"""Shared fixtures: RNG streams, tokenizer, and the smoke-profile zoo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.corpus import build_reference_texts
from repro.tokenizer import WordTokenizer
from repro.zoo import ModelZoo, PROFILE_SMOKE


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def tokenizer() -> WordTokenizer:
    return WordTokenizer.from_texts(build_reference_texts())


@pytest.fixture(scope="session")
def smoke_zoo() -> ModelZoo:
    """Smoke-profile zoo (fast budgets); artifacts are disk-cached, so the
    first test session trains them (~1 min) and later sessions just load."""
    return ModelZoo(PROFILE_SMOKE, verbose=False)


class Replay:
    """A stand-in for ``np.random.Generator`` that computes exact laws.

    It models the two draws every sampled path of the system makes:
    ``rng.choice(n, p=p)`` and ``rng.random() < a``.  A replay re-takes
    the recorded decisions ``path`` in order, then takes the first option
    at every new decision and records each other option as a fork (a path
    still to replay); ``weight`` is the product of the chosen options'
    probabilities.  :func:`exact_law` replays every fork, so the weights of
    the outcomes sum to their exact law: no sampling, no tolerance.

    Zero-weight options are never taken.  A replay that meets a decision
    other than the recorded one, stops before its recorded decisions, or
    calls a method it does not model fails with an ``AssertionError``
    that :func:`exact_law` re-raises even if the code under test caught it.
    """

    def __init__(self, path=()):
        self.path, self.taken, self.weight = list(path), 0, 1.0
        self.forks, self.error = [], None

    def _fail(self, message):
        self.error = self.error or AssertionError(message)
        raise self.error

    def _decide(self, options, weights):
        """Take the recorded option (or a new decision's first): its value."""
        if self.taken < len(self.path):
            recorded, index = self.path[self.taken]
            if recorded != (options, weights):
                self._fail(f"replay diverged at decision {self.taken}: recorded "
                           f"{recorded}, now {(options, weights)}")
        else:
            index = 0
            self.forks += [self.path + [((options, weights), j)] for j in range(1, len(options))]
            self.path.append(((options, weights), 0))
        self.taken += 1
        self.weight *= weights[index]
        return options[index]

    def choice(self, a, size=None, p=None):
        p = None if p is None else np.asarray(p, dtype=np.float64)
        if not (isinstance(a, (int, np.integer)) and size is None and p is not None
                and p.shape == (a,) and np.isfinite(p).all() and (p >= 0).all()
                and abs(p.sum() - 1.0) < 1e-8):
            self._fail(f"Replay models only choice(n, p=<distribution over n>), got {a!r}, p={p}")
        support = np.flatnonzero(p)
        return self._decide(tuple(support.tolist()), tuple(p[support].tolist()))

    def random(self, *args, **kwargs):
        if args or kwargs:
            self._fail("Replay models only random() with no arguments")
        return _Uniform(self)

    def __getattr__(self, name):
        if name.startswith("__"):
            raise AttributeError(name)
        self._fail(f"Replay does not model rng.{name}")


class _Uniform:
    """``rng.random()``: compared once, ``u < a`` is ``True`` with probability ``a``."""

    def __init__(self, replay):
        self.replay, self.used = replay, False

    def __lt__(self, a):
        if self.used:
            self.replay._fail("a Replay uniform is compared at most once")
        self.used = True
        a = min(max(float(a), 0.0), 1.0) if a == a else 0.0   # u < nan is always False
        kept = [(value, w) for value, w in ((True, a), (False, 1.0 - a)) if w > 0.0]
        return self.replay._decide(*(tuple(column) for column in zip(*kept)))


class Law(dict):
    """An exact law, ``{outcome: probability}``."""

    def distance(self, other) -> float:
        """Largest absolute difference from ``other``, outcome by outcome."""
        return max(abs(self.get(key, 0.0) - other.get(key, 0.0))
                   for key in self.keys() | other.keys())


def exact_law(run) -> Law:
    """The exact law of ``run(rng)``'s (hashable) result.

    ``run`` is called once per decision path with a fresh :class:`Replay`,
    so whatever it builds per call (a fault wrapper's counters, an
    engine's sessions) must be rebuilt inside it.  The path weights must
    sum to 1 within 1e-12.
    """
    law, paths = Law(), [[]]
    while paths:
        rng = Replay(paths.pop())
        outcome = run(rng)
        if rng.error is not None:
            raise rng.error
        assert rng.taken == len(rng.path), (
            f"replay stopped after {rng.taken} of its {len(rng.path)} recorded decisions")
        law[outcome] = law.get(outcome, 0.0) + rng.weight
        paths += rng.forks
    assert abs(sum(law.values()) - 1.0) <= 1e-12, f"path weights sum to {sum(law.values())}"
    return law


class EosAtDepth:
    """A drafter that drafts eos at one depth: the head with eos's logit raised.

    Every draft step feeding a node at depth ``depth - 1`` (the root path
    in ``ancestor_rows`` has that many rows) returns the head's logits
    with eos moved to rank ``rank`` among them: the argmax at rank 0,
    halfway between the first and the second at rank 1.  Everything else
    is the wrapped head's; ``rows`` counts the draft forwards served.  It
    keeps that count, so build one per decode (or per replay).
    """

    def __init__(self, head, eos, depth, rank=0):
        self._head, self.eos, self.depth, self.rank = head, eos, depth, rank
        self.rows = 0

    def __getattr__(self, name):
        return getattr(self._head, name)

    def _raised(self, logits, ancestors):
        self.rows += 1
        if isinstance(logits, Exception) or len(ancestors) != self.depth - 1:
            return logits
        out = np.array(logits, dtype=np.float64)
        others = np.sort(np.delete(out, self.eos))[::-1]
        out[self.eos] = others[0] + 1.0 if self.rank == 0 else (others[0] + others[1]) / 2
        return out

    def step(self, token_id, position, hybrid, request_id=None, ancestor_rows=None):
        logits = self._head.step(token_id, position, hybrid, request_id, ancestor_rows)
        return self._raised(logits, ancestor_rows)

    def step_packed(self, token_ids, positions, hybrids, request_ids=None,
                    ancestor_rows=None):
        rows = self._head.step_packed(token_ids, positions, hybrids, request_ids,
                                      ancestor_rows)
        return [self._raised(logits, ancestors)
                for logits, ancestors in zip(rows, ancestor_rows)]


@pytest.fixture(scope="session")
def eos_at_depth():
    """:class:`EosAtDepth`, for tests that make the draft walk meet eos."""
    return EosAtDepth


@pytest.fixture(scope="session")
def exact():
    """:func:`exact_law`, for tests that prove a law by enumeration."""
    return exact_law
