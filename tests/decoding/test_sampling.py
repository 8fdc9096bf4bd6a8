"""Sampling and speculative-verify tests, including the losslessness
property of speculative sampling (Leviathan et al., 2023) and of its
multi-candidate tree walk (SpecInfer / Sequoia)."""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.decoding.tree as tree_mod
from repro.decoding.sampling import Sampler, SamplerConfig, logits_to_probs
from repro.decoding.tree import DraftWalk, TreeDraft, speculative_verify
from repro.errors import DecodingError

# The parent's outcome type, which the verbatim copy of its chain rule
# below constructs.
VerifyOutcome = namedtuple("VerifyOutcome", "accepted next_token all_accepted")


def parent_chain_verify(draft_tokens, draft_probs, target_logits, config, rng):
    """The chain accept rule as it was before trees shared it, verbatim: the spec."""
    gamma = len(draft_tokens)
    target_logits = np.asarray(target_logits, dtype=np.float64)
    if target_logits.shape[0] != gamma + 1:
        raise DecodingError(
            f"need {gamma + 1} target logit rows for {gamma} draft tokens, "
            f"got {target_logits.shape[0]}"
        )
    draft_probs = np.asarray(draft_probs, dtype=np.float64)
    if draft_probs.shape[0] != gamma:
        raise DecodingError(
            f"need {gamma} draft prob rows, got {draft_probs.shape[0]}"
        )

    accepted = []
    for i, token in enumerate(draft_tokens):
        target_probs = logits_to_probs(target_logits[i], config)
        if config.greedy:
            if int(np.argmax(target_probs)) == token:
                accepted.append(token)
                continue
            return VerifyOutcome(tuple(accepted), int(np.argmax(target_probs)), False)
        row = draft_probs[i]
        if not (np.isfinite(row).all() and 0.0 < float(row.sum()) < np.inf):
            # Corrupt draft distribution (NaN/Inf or degenerate mass):
            # discard the proposal and emit a pure target sample, which is
            # lossless no matter what the drafter produced.
            next_token = int(rng.choice(target_probs.size, p=target_probs))
            return VerifyOutcome(tuple(accepted), next_token, False)
        p_target = target_probs[token]
        p_draft = row[token]
        if p_draft <= 0.0 or rng.random() < min(1.0, p_target / p_draft):
            if p_target <= 0.0 and p_draft <= 0.0:
                # Token impossible under both: reject via the residual below.
                pass
            else:
                accepted.append(token)
                continue
        residual = np.maximum(target_probs - draft_probs[i], 0.0)
        total = residual.sum()
        if total <= 0.0:
            # Distributions identical: any target sample is valid.
            next_token = int(rng.choice(target_probs.size, p=target_probs))
        else:
            next_token = int(rng.choice(residual.size, p=residual / total))
        return VerifyOutcome(tuple(accepted), next_token, False)

    bonus_probs = logits_to_probs(target_logits[gamma], config)
    if config.greedy:
        bonus = int(np.argmax(bonus_probs))
    else:
        bonus = int(rng.choice(bonus_probs.size, p=bonus_probs))
    return VerifyOutcome(tuple(accepted), bonus, True)


class TestSamplerConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(DecodingError):
            SamplerConfig(temperature=0.0)
        with pytest.raises(DecodingError):
            SamplerConfig(top_k=-1)
        with pytest.raises(DecodingError):
            SamplerConfig(top_p=0.0)
        with pytest.raises(DecodingError):
            SamplerConfig(top_p=1.5)


class TestLogitsToProbs:
    def test_greedy_one_hot(self, rng):
        logits = rng.standard_normal(10)
        probs = logits_to_probs(logits, SamplerConfig(greedy=True))
        assert probs.sum() == 1.0
        assert probs[np.argmax(logits)] == 1.0

    def test_temperature_sharpens(self, rng):
        logits = rng.standard_normal(10)
        hot = logits_to_probs(logits, SamplerConfig(greedy=False, temperature=2.0))
        cold = logits_to_probs(logits, SamplerConfig(greedy=False, temperature=0.25))
        assert cold.max() > hot.max()

    def test_top_k_zeroes_tail(self, rng):
        logits = rng.standard_normal(10)
        probs = logits_to_probs(logits, SamplerConfig(greedy=False, top_k=3))
        assert (probs > 0).sum() == 3
        assert probs.sum() == pytest.approx(1.0)

    def test_top_p_keeps_smallest_covering_set(self):
        logits = np.log(np.array([0.5, 0.3, 0.15, 0.05]))
        probs = logits_to_probs(logits, SamplerConfig(greedy=False, top_p=0.7))
        assert (probs > 0).sum() == 2
        assert probs.sum() == pytest.approx(1.0)

    def test_top_p_one_keeps_all(self, rng):
        logits = rng.standard_normal(6)
        probs = logits_to_probs(logits, SamplerConfig(greedy=False, top_p=1.0))
        assert (probs > 0).all()


class TestSampler:
    def test_greedy_deterministic(self, rng):
        sampler = Sampler(SamplerConfig(greedy=True), rng=rng)
        logits = np.array([0.0, 5.0, 1.0])
        assert sampler.sample(logits) == 1

    def test_sampling_respects_distribution(self, exact):
        config = SamplerConfig(greedy=False, top_k=2)
        logits = np.log(np.array([0.7, 0.2, 0.1]))
        law = exact(lambda rng: Sampler(config, rng=rng).sample(logits))
        assert law.distance({0: 0.7 / 0.9, 1: 0.2 / 0.9}) <= 1e-12


class TestExactLaw:
    """The replaying generator behind ``exact`` (tests/conftest.py) guards itself."""

    def test_independent_draws_multiply(self, exact):
        law = exact(lambda rng: (rng.random() < 0.25, int(rng.choice(3, p=[0.5, 0.5, 0.0]))))
        assert law.distance({(True, 0): 0.125, (True, 1): 0.125,
                             (False, 0): 0.375, (False, 1): 0.375}) <= 1e-12

    def test_a_replay_that_diverges_fails_clearly(self, exact):
        calls = []

        def run(rng):
            calls.append(rng)
            n = 2 if len(calls) == 1 else 3
            return int(rng.choice(n, p=np.full(n, 1.0 / n)))

        with pytest.raises(AssertionError, match="replay diverged at decision 0"):
            exact(run)

    def test_a_replay_that_stops_early_fails_clearly(self, exact):
        calls = []

        def run(rng):
            calls.append(rng)
            draws = 2 if len(calls) == 1 else 1
            return tuple(int(rng.choice(2, p=[0.5, 0.5])) for _ in range(draws))

        with pytest.raises(AssertionError, match="stopped after 1 of its 2"):
            exact(run)

    def test_an_unmodelled_draw_fails_even_when_caught(self, exact):
        def run(rng):
            try:
                rng.integers(3)
            except Exception:   # as the engine's fault isolation would
                pass
            return 0

        with pytest.raises(AssertionError, match="does not model rng.integers"):
            exact(run)


class TestGreedyVerify:
    def make_logits(self, argmaxes, vocab=10):
        rows = np.zeros((len(argmaxes), vocab))
        for i, a in enumerate(argmaxes):
            rows[i, a] = 5.0
        return rows

    def test_full_acceptance_emits_bonus(self, rng):
        cfg = SamplerConfig(greedy=True)
        draft = [3, 4, 5]
        target = self.make_logits([3, 4, 5, 6])
        out = speculative_verify(TreeDraft.chain(draft), np.zeros((3, 10)), target, cfg, rng)
        assert out.accepted == (3, 4, 5)
        assert out.next_token == 6
        assert out.all_accepted
        assert out.tokens_emitted == 4

    def test_first_mismatch_truncates(self, rng):
        cfg = SamplerConfig(greedy=True)
        draft = [3, 9, 5]
        target = self.make_logits([3, 4, 5, 6])
        out = speculative_verify(TreeDraft.chain(draft), np.zeros((3, 10)), target, cfg, rng)
        assert out.accepted == (3,)
        assert out.next_token == 4
        assert not out.all_accepted
        assert out.tokens_emitted == 2

    def test_zero_acceptance(self, rng):
        cfg = SamplerConfig(greedy=True)
        out = speculative_verify(
            TreeDraft.chain([9]), np.zeros((1, 10)), self.make_logits([0, 1]), cfg, rng
        )
        assert out.accepted == ()
        assert out.n_accepted == 0
        assert out.next_token == 0

    def test_row_count_validation(self, rng):
        cfg = SamplerConfig(greedy=True)
        target = self.make_logits([1, 2])
        with pytest.raises(DecodingError):
            speculative_verify(TreeDraft.chain([1, 2]), np.zeros((2, 10)), target, cfg, rng)
        with pytest.raises(DecodingError):   # draft rows are read only when sampling
            speculative_verify(TreeDraft.chain([1]), np.zeros((2, 10)), target,
                               SamplerConfig(greedy=False), rng)


V = 3   # vocabulary of the drawn logit tables


def _row(table, prefix):
    """``table``'s logits after the context ``prefix`` (tokens past the prompt).

    Prefixes are numbered in bijective base ``V``, so a ``(13, 3)`` table
    gives every context of length <= 2 its own row.
    """
    index = 0
    for token in prefix:
        index = index * V + token + 1
    return table[index]


def _sample_target(target, config, k, rng, out=()):
    """Plain target sampling after ``out`` up to ``k`` tokens: the law to match."""
    sampler = Sampler(config, rng=rng)
    while len(out) < k:
        out += (sampler.sample(target(out)),)
    return out


def _emit(draft, target, config, k, rng, *, gamma=2, width=1, max_nodes=0, corrupt=()):
    """The first ``k`` tokens a block of the one walk commits, as the engine runs it.

    ``draft(prefix)`` and ``target(prefix)`` give the logits after a
    context.  The block drafts a :class:`DraftWalk`, verifies it against
    the target's row for every node's root path, and commits; the draft
    rows listed in ``corrupt`` reach the verifier as NaN.  A block that
    commits fewer than ``k`` tokens is continued by target draws: by the
    k = 1 case, which the same check proves for every context, that is
    the law of the next block's first token.  A pending node's context is
    rebuilt from its token and depth, which is exact up to gamma = 2;
    past it the replays multiply, so memoise before lifting the bound.
    """
    assert gamma <= 2
    walk = DraftWalk(0, gamma, max_branch=width, max_nodes=max_nodes, entropy_scale=1e-9,
                     config=config, rng=rng)
    while walk.pending is not None:
        token, depth, _ = walk.pending
        walk.expand(draft((token,) * depth))
    tree, paths = walk.draft, []   # paths: each node's root path, in node order
    for token, parent in zip(tree.tokens, tree.parents):
        paths.append((paths[parent] if parent >= 0 else ()) + (token,))
    rows = np.stack([target(path) for path in [(), *paths]])
    probs = [np.full_like(q, np.nan) if i in corrupt else q for i, q in enumerate(walk.probs)]
    verdict = speculative_verify(tree, probs, rows, config, rng)
    return _sample_target(target, config, k, rng, (*verdict.accepted, verdict.next_token))[:k]


class TestSpeculativeSamplingLossless:
    """Speculative sampling is lossless, proven by enumeration.

    The theorem: for any draft and target logits, the first ``k`` tokens
    the walk commits (:func:`_emit`) are distributed exactly as the
    target's (:func:`_sample_target`), k = 1, 2.  ``exact``
    (tests/conftest.py) computes both laws over every decision path, so
    every check is an equality to 1e-12 and a broken rule misses
    deterministically.
    """

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_first_tokens_follow_the_target(self, exact, data):
        """Greedy and sampled; temperature, top-k, top-p; the chain and widths 2
        and 3; the guards: corrupt draft rows, zero-mass tokens in q and p
        (masked logits), and contexts where q = p (a rejection there would
        leave no residual: the accept draw must be exactly 1)."""
        config = SamplerConfig(
            greedy=data.draw(st.booleans()), temperature=data.draw(st.floats(0.5, 2.0)),
            top_k=data.draw(st.integers(0, V)), top_p=data.draw(st.floats(0.5, 1.0)))
        logits = data.draw(arrays(np.float64, (2, 13, V), elements=st.floats(-3.0, 3.0)))
        masked = data.draw(arrays(bool, (2, 13, V)))
        target_table, draft_table = np.where(masked & ~masked.all(-1, keepdims=True),
                                             -np.inf, logits)
        tied = data.draw(arrays(bool, 13))
        draft_table[tied] = target_table[tied]
        gamma, k = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        walk = dict(gamma=gamma, width=data.draw(st.integers(1, 3)),
                    max_nodes=data.draw(st.integers(gamma, 4)),
                    corrupt=data.draw(st.sets(st.integers(0, 3), max_size=2)))

        def draft(prefix):
            return _row(draft_table, prefix)

        def target(prefix):
            return _row(target_table, prefix)

        ours = exact(lambda rng: _emit(draft, target, config, k, rng, **walk))
        theirs = exact(lambda rng: _sample_target(target, config, k, rng))
        assert ours.distance(theirs) <= 1e-12

    def test_marginal_matches_target(self, exact):
        """k = 1 on the chain, whatever the draft distribution is."""
        gen = np.random.default_rng(7)
        vocab = 5
        target_logits = gen.standard_normal(vocab) * 1.5
        draft_logits = np.log(gen.dirichlet(np.ones(vocab)))
        config = SamplerConfig(greedy=False)

        def draft(prefix):
            return draft_logits

        def target(prefix):
            return target_logits

        ours = exact(lambda rng: _emit(draft, target, config, 1, rng, gamma=1))
        assert ours.distance(exact(lambda rng: _sample_target(target, config, 1, rng))) <= 1e-12

    def test_identical_distributions_accept_almost_always(self, exact):
        """q = p: the drafted token is accepted with probability exactly 1."""
        logits = np.random.default_rng(1).standard_normal(4)
        config = SamplerConfig(greedy=False)

        def n_accepted(rng):
            walk = DraftWalk(0, 1, config=config, rng=rng)
            walk.expand(logits)
            return speculative_verify(walk.draft, walk.probs, np.stack([logits, logits]),
                                      config, rng).n_accepted

        law = exact(n_accepted)
        assert list(law) == [1] and abs(law[1] - 1.0) <= 1e-12   # no path rejects

    def test_a_child_no_one_can_draw_leaves_the_target_law(self, exact):
        """The q(c) = 0 and zero-residual guards together: a drafted token of
        zero mass under q = p is rejected without an accept draw, the
        rejection leaves no residual, and the correction token is drawn
        from p itself."""
        config = SamplerConfig(greedy=False, top_k=2)
        logits = np.log(np.array([0.1, 0.5, 0.4]))   # top-2 leaves token 0 no mass
        p = logits_to_probs(logits, config)

        def first(rng):
            verdict = speculative_verify(TreeDraft.chain([0]), [p], np.stack([logits, logits]),
                                         config, rng)
            return (*verdict.accepted, verdict.next_token)[0]

        assert exact(first).distance({1: p[1], 2: p[2]}) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), gamma=st.integers(1, 6), greedy=st.booleans(),
           top_k=st.integers(0, 4), top_p=st.floats(0.5, 1.0))
    def test_width1_tree_is_the_parent_chain_rule(self, seed, gamma, greedy, top_k, top_p):
        """Same outcome and same draws as the parent's chain rule, including
        its corner cases: a corrupt draft row, a draft token of zero draft
        mass, and a rejection that leaves no residual."""
        gen = np.random.default_rng(seed)
        vocab = 6
        config = SamplerConfig(greedy=greedy, temperature=float(gen.uniform(0.5, 2.0)),
                               top_k=top_k, top_p=top_p)
        target_logits = gen.standard_normal((gamma + 1, vocab)) * 2.0
        draft_probs = gen.dirichlet(np.ones(vocab), size=gamma)
        tokens = [int(t) for t in gen.integers(0, vocab, size=gamma)]
        for i, kind in enumerate(gen.integers(0, 4, size=gamma)):
            if kind == 1:      # q == p: a rejection leaves no residual
                draft_probs[i] = logits_to_probs(target_logits[i], config)
            elif kind == 2:    # the drafted token has no draft mass
                draft_probs[i, tokens[i]] = 0.0
                draft_probs[i] /= draft_probs[i].sum()
            elif kind == 3:    # a corrupt draft row
                draft_probs[i] = np.nan
        spec_rng, rule_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        spec = parent_chain_verify(tokens, draft_probs, target_logits, config, spec_rng)
        out = speculative_verify(TreeDraft.chain(tokens), draft_probs, target_logits,
                                 config, rule_rng)
        assert (out.accepted, out.next_token, out.all_accepted) == tuple(spec)
        assert out.path == tuple(range(out.n_accepted))
        assert spec_rng.bit_generator.state == rule_rng.bit_generator.state

    # The broken rules' tables: the draft favours what the target does not,
    # so rejections and sibling rescues are common.
    P0 = np.array([0.1, 0.3, 0.6])   # first-token laws
    Q0 = P0[::-1].copy()
    # second-token laws given the first (every cell >= 1/6)
    P1 = 0.5 * np.random.default_rng(1).dirichlet(np.full(V, 2.0), size=V) + 0.5 / V
    Q1 = 0.5 * np.random.default_rng(11).dirichlet(np.full(V, 2.0), size=V) + 0.5 / V

    def _miss(self, exact):
        """How far the first two tokens of width-2, gamma-2 trees are from the target's."""
        config = SamplerConfig(greedy=False)

        def draft(prefix):
            return np.log(self.Q1[prefix[-1]] if prefix else self.Q0)

        def target(prefix):
            return np.log(self.P1[prefix[-1]] if prefix else self.P0)

        ours = exact(lambda rng: _emit(draft, target, config, 2, rng, width=2, max_nodes=4))
        return ours.distance(exact(lambda rng: _sample_target(target, config, 2, rng)))

    def test_the_check_sees_broken_sibling_rules(self, exact, monkeypatch):
        """Siblings tried without the residual update, or taken top-k, miss."""
        def no_residual(kids, tokens, p, q, config, rng):
            for child in kids:
                if rng.random() < min(1.0, p[tokens[child]] / q[tokens[child]]):
                    return child, p
                q = tree_mod._without(q, tokens[child])
            return None, p

        def top_k(walk, logits):
            q = logits_to_probs(logits, walk.config)
            walk.probs.append(q)
            return np.argsort(-q, kind="stable")[:2]

        assert self._miss(exact) <= 1e-12
        with monkeypatch.context() as patch:
            patch.setattr(tree_mod, "_try_children", no_residual)
            assert self._miss(exact) > 0.05
        with monkeypatch.context() as patch:
            patch.setattr(DraftWalk, "_children", top_k)
            assert self._miss(exact) > 0.05


class TestSamplerSeedPlumbing:
    """Regression: the default Sampler RNG is derived, never OS entropy."""

    def test_default_samplers_are_identical_across_constructions(self):
        cfg = SamplerConfig(greedy=False, temperature=1.3)
        logits = np.random.default_rng(7).standard_normal((50, 32))
        a = [Sampler(cfg).sample(row) for row in logits]
        b = [Sampler(cfg).sample(row) for row in logits]
        assert a == b

    def test_same_seed_same_stream_different_seed_diverges(self):
        logits = np.random.default_rng(11).standard_normal((200, 64))
        draws = {}
        for seed in (0, 0, 1):
            sampler = Sampler(SamplerConfig(greedy=False, seed=seed))
            draws.setdefault(seed, []).append(
                [sampler.sample(row) for row in logits])
        assert draws[0][0] == draws[0][1]
        assert draws[0][0] != draws[1][0]

    def test_explicit_rng_still_wins(self):
        cfg = SamplerConfig(greedy=False)
        logits = np.random.default_rng(3).standard_normal((20, 16))
        a = Sampler(cfg, rng=np.random.default_rng(42))
        b = Sampler(cfg, rng=np.random.default_rng(42))
        assert [a.sample(r) for r in logits] == [b.sample(r) for r in logits]
