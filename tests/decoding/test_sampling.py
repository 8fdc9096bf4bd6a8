"""Sampling and speculative-verify tests, including the losslessness
property of speculative sampling (Leviathan et al., 2023) and of its
multi-candidate tree walk (SpecInfer / Sequoia)."""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_sampling_respects_distribution(self):
        sampler = Sampler(SamplerConfig(greedy=False), rng=np.random.default_rng(0))
        logits = np.log(np.array([0.8, 0.2]))
        draws = [sampler.sample(logits) for _ in range(2000)]
        assert np.mean(np.asarray(draws) == 0) == pytest.approx(0.8, abs=0.05)


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


class TestSpeculativeSamplingLossless:
    def test_marginal_matches_target(self):
        """One-position speculative sampling must reproduce the target
        distribution exactly, whatever the draft distribution is."""
        gen = np.random.default_rng(7)
        vocab = 5
        target_logits = gen.standard_normal(vocab) * 1.5
        draft_probs = gen.dirichlet(np.ones(vocab))
        cfg = SamplerConfig(greedy=False)
        target_probs = logits_to_probs(target_logits, cfg)

        counts = np.zeros(vocab)
        trials = 6000
        for _ in range(trials):
            draft_token = int(gen.choice(vocab, p=draft_probs))
            out = speculative_verify(
                TreeDraft.chain([draft_token]),
                draft_probs[None, :],
                np.stack([target_logits, target_logits]),
                cfg,
                gen,
            )
            emitted = out.accepted[0] if out.accepted else out.next_token
            counts[emitted] += 1
        empirical = counts / trials
        assert np.abs(empirical - target_probs).max() < 0.03

    def test_identical_distributions_accept_almost_always(self):
        gen = np.random.default_rng(1)
        vocab = 4
        logits = gen.standard_normal(vocab)
        cfg = SamplerConfig(greedy=False)
        probs = logits_to_probs(logits, cfg)
        accepted = 0
        for _ in range(500):
            token = int(gen.choice(vocab, p=probs))
            out = speculative_verify(TreeDraft.chain([token]), probs[None], np.stack([logits, logits]),
                                     cfg, gen)
            accepted += out.n_accepted
        assert accepted == 500

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

    # Sibling rescue is exact: a width-2, depth-2 tree drafted by the
    # walk's own child rule (siblings drawn without replacement) and
    # verified by the one rule commits its first two tokens distributed
    # as the target's.
    VOCAB = 5
    # the target's and the draft's first-token distributions: the draft
    # favours what the target does not, so rejections and rescues are common
    P0 = np.array([0.05, 0.10, 0.15, 0.30, 0.40])
    Q0 = P0[::-1].copy()
    # second-token distributions given the first (every cell >= 0.1)
    P1 = 0.5 * np.random.default_rng(1).dirichlet(np.full(VOCAB, 2.0), size=VOCAB) + 0.1
    Q1 = 0.5 * np.random.default_rng(2).dirichlet(np.full(VOCAB, 2.0), size=VOCAB) + 0.1
    WALKS = 20_000
    MAX_Z = 4.0

    def _walks(self, rng):
        """First-token counts and first-two-token counts of ``WALKS`` walks."""
        config = SamplerConfig(greedy=False)
        firsts, pairs = np.zeros(self.VOCAB), np.zeros((self.VOCAB, self.VOCAB))
        for _ in range(self.WALKS):
            walk = DraftWalk(0, 2, max_branch=2, max_nodes=6, entropy_scale=1e-3,
                             config=config, rng=rng)
            while walk.pending is not None:
                token, depth, _ = walk.pending
                walk.expand(np.log(self.Q0 if depth == 0 else self.Q1[token]))
            tree = walk.draft
            rows = [self.P0] + [self.P1[t] if d == 1 else self.P0
                                for t, d in zip(tree.tokens, tree.depths)]
            out = speculative_verify(tree, walk.probs, np.log(rows), config, rng)
            first, *rest = [*out.accepted, out.next_token]
            # a rejection at the anchor commits one token; the next block's
            # first token is a plain target draw given it
            second = rest[0] if rest else int(rng.choice(self.VOCAB, p=self.P1[first]))
            firsts[first] += 1
            pairs[first, second] += 1
        return firsts, pairs

    @staticmethod
    def _z(counts, probs):
        """Normalised chi-square of ``counts`` against ``probs``."""
        expected = counts.sum() * probs.ravel()
        chi2 = ((counts.ravel() - expected) ** 2 / expected).sum()
        df = probs.size - 1
        return (chi2 - df) / np.sqrt(2 * df)

    def _worst_z(self):
        firsts, pairs = self._walks(np.random.default_rng(0))
        joint = self.P0[:, None] * self.P1
        return max(self._z(firsts, self.P0), self._z(pairs, joint))

    def test_tree_first_two_tokens_match_the_target(self):
        assert self._worst_z() < self.MAX_Z

    def test_the_check_sees_broken_sibling_rules(self, monkeypatch):
        """Power: siblings tried without the residual update, or taken top-k."""
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

        with monkeypatch.context() as patch:
            patch.setattr(tree_mod, "_try_children", no_residual)
            assert self._worst_z() > self.MAX_Z
        with monkeypatch.context() as patch:
            patch.setattr(DraftWalk, "_children", top_k)
            assert self._worst_z() > self.MAX_Z


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
