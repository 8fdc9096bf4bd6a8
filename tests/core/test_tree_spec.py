"""Tree-structured speculation: drafting, single-forward verify, commit.

Pins the tentpole contracts of ``repro.decoding.tree`` + the engine's
tree path:

* ``TreeDraft`` serialization invariants and the one acceptance walk
  (``speculative_verify``) on trees, greedy and sampled — its exactness
  is pinned in ``tests/decoding/test_sampling.py``,
* verification is ONE target forward per round (counted on the model),
* greedy token identity with the autoregressive baseline (losslessness),
* branch-factor-1 trees are bitwise identical to the linear speculative
  path — tokens, simulated time, and forward counts,
* batched tree stepping matches solo tree stepping bitwise,
* the draft lane grows every session's tree in lockstep — one packed
  forward per expansion index — each exactly as ``draft_tree`` alone,
* the ``tree_ready`` gate (``supports_tree`` heads only; sampled engines
  draft trees too) and fault injection in tree rounds,
* pointer-only commit keeps the target cache exactly in sync.

The world uses dim=96 like the ragged-serving tests: the gemv/gemm
K-reduction divergence only appears at K >= 64, so a smaller world could
hide packing bugs in the tree feeds.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.engine as engine_mod
from repro.core import AASDDraftHead, AASDEngine, AASDEngineConfig, DraftHeadConfig
from repro.data.tasks import make_dataset
from repro.decoding import AutoregressiveDecoder, CostModel, get_profile
from repro.decoding.adaptive import FixedGamma
from repro.decoding.sampling import SamplerConfig
from repro.decoding.tree import TreeDraft, speculative_verify, tree_extra_blocked
from repro.errors import DecodingError
from repro.nn.ragged import tree_blocked
from repro.nn.tensor import no_grad
from repro.robustness.faults import FaultyDraftHead
from repro.serving import STATUS_COMPLETED, ServingConfig, serve_requests

MAX_NEW_TOKENS = 20
N_SAMPLES = 3
SAMPLED = SamplerConfig(greedy=False, temperature=1.0)


@pytest.fixture(scope="module")
def world(tokenizer):
    gen = np.random.default_rng(0)
    vocab = tokenizer.vocab_size
    from repro.models.config import LlamaConfig, LlavaConfig, VisionConfig
    from repro.models.llava import MiniLlava

    target = MiniLlava(
        LlavaConfig(
            llama=LlamaConfig(vocab_size=vocab, dim=96, n_layers=2, n_heads=6,
                              mlp_hidden=128),
            vision=VisionConfig(image_size=48, patch_size=16, dim=32, n_layers=1,
                                n_heads=2, mlp_hidden=48),
        ),
        rng=gen,
    )
    head = AASDDraftHead(
        DraftHeadConfig(
            vocab_size=vocab, dim=96, n_heads=6, mlp_hidden=128,
            n_vision_tokens=9, k_compressed=3,
        ),
        rng=gen,
    )
    cm = CostModel(get_profile("sim-7b"))
    samples = make_dataset("coco-sim", N_SAMPLES, seed=4).samples
    return dict(target=target, head=head, cm=cm, samples=samples, tokenizer=tokenizer)


def _engine(world, seed=7, head=None, **overrides):
    sampler_config = overrides.pop("sampler_config", None)
    return AASDEngine(
        world["target"],
        head if head is not None else world["head"],
        world["tokenizer"], world["cm"],
        AASDEngineConfig(
            gamma=overrides.pop("gamma", 4),
            max_new_tokens=overrides.pop("max_new_tokens", MAX_NEW_TOKENS),
            **overrides,
        ),
        rng=np.random.default_rng(seed),
        sampler_config=sampler_config,
    )


def _tree_engine(world, **overrides):
    overrides.setdefault("tree_speculation", True)
    overrides.setdefault("tree_max_branch", 2)
    overrides.setdefault("tree_max_nodes", 6)
    return _engine(world, **overrides)


def _run(engine, sample, gamma_controller=None):
    session = engine.begin(sample, gamma_controller=gamma_controller)
    while not session.finished:
        engine.step(session)
    return session


class TestTreeDraftUnit:
    def test_chain_properties(self):
        tree = TreeDraft(tokens=(5, 7, 9), parents=(-1, 0, 1), depths=(1, 2, 3))
        assert tree.is_chain and tree.n_nodes == 3 and tree.max_depth == 3
        assert tree.feed_positions(10).tolist() == [10, 11, 12, 13]

    def test_branching_children_rank_order(self):
        #   anchor -> n0 -> n1
        #         \-> n2
        tree = TreeDraft(tokens=(1, 2, 3), parents=(-1, 0, -1), depths=(1, 2, 1))
        assert not tree.is_chain
        assert tree.children() == {-1: [0, 2], 0: [1]}
        # siblings n0 and n2 share the anchor's successor position
        assert tree.feed_positions(4).tolist() == [4, 5, 6, 5]

    def test_serialization_validation(self):
        with pytest.raises(DecodingError):    # arrays disagree
            TreeDraft(tokens=(1,), parents=(-1, 0), depths=(1, 2))
        with pytest.raises(DecodingError):    # parent not before node
            TreeDraft(tokens=(1, 2), parents=(-1, 1), depths=(1, 2))
        with pytest.raises(DecodingError):    # depth inconsistent with parent
            TreeDraft(tokens=(1, 2), parents=(-1, 0), depths=(1, 3))


class TestAcceptTree:
    """The one acceptance rule on trees.  Greedy walks take no draft
    distributions and no random stream (both ``None`` / empty here)."""

    CFG = SamplerConfig(greedy=True)

    def _logits(self, rows, vocab=8, peak=5.0):
        """Logits whose argmax per row is ``rows[i]``."""
        out = np.zeros((len(rows), vocab), dtype=np.float32)
        for i, tok in enumerate(rows):
            out[i, tok] = peak
        return out

    def test_chain_full_accept_with_bonus(self):
        tree = TreeDraft(tokens=(3, 4), parents=(-1, 0), depths=(1, 2))
        out = speculative_verify(tree, (), self._logits([3, 4, 6]), self.CFG, None)
        assert out.path == (0, 1) and out.accepted == (3, 4) and out.all_accepted
        assert out.next_token == 6 and out.tokens_emitted == 3

    def test_sibling_rescues_rejected_branch(self):
        # anchor's children: n0 (token 3, rank 0) and n2 (token 5);
        # the target prefers 5, so the walk descends the second branch.
        tree = TreeDraft(tokens=(3, 4, 5), parents=(-1, 0, -1), depths=(1, 2, 1))
        out = speculative_verify(tree, (), self._logits([5, 0, 0, 7]), self.CFG, None)
        assert out.path == (2,) and out.accepted == (5,)
        assert out.next_token == 7    # row 3 = continuation of node 2

    def test_no_match_emits_correction(self):
        tree = TreeDraft(tokens=(3,), parents=(-1,), depths=(1,))
        out = speculative_verify(tree, (), self._logits([6, 1]), self.CFG, None)
        assert out.path == () and out.n_accepted == 0 and out.next_token == 6
        assert not out.all_accepted

    def test_sampled_sibling_rescues_rejected_branch(self):
        # the same tree under sampling: the draft split its mass between
        # the two anchor children, the target wants 5 (and then 7), so the
        # first child is rejected, the residual moves onto 5, and the
        # second child is kept
        tree = TreeDraft(tokens=(3, 4, 5), parents=(-1, 0, -1), depths=(1, 2, 1))
        q = np.zeros(8)
        q[[3, 5]] = 0.5
        config = SamplerConfig(greedy=False)
        out = speculative_verify(tree, [q, q], self._logits([5, 0, 0, 7], peak=60.0),
                                 config, np.random.default_rng(0))
        assert out.path == (2,) and out.accepted == (5,) and out.next_token == 7
        with pytest.raises(DecodingError):   # one draft row per expanded node
            speculative_verify(tree, [q], self._logits([5, 0, 0, 7]), config,
                               np.random.default_rng(0))

    def test_rejects_misshapen_logits(self):
        tree = TreeDraft(tokens=(3, 4), parents=(-1, 0), depths=(1, 2))
        with pytest.raises(DecodingError):   # needs 3 rows
            speculative_verify(tree, (), self._logits([3, 4]), self.CFG, None)


class TestTreeExtraBlocked:
    def test_layout(self):
        parents = [-1, 0, -1]
        extra = tree_extra_blocked(parents, n_cache=5)
        assert extra.shape == (4, 9)
        assert not extra[:, :5].any()                    # context stays open
        assert np.array_equal(extra[:, 5:], tree_blocked(parents))

    def test_chain_is_causal_noop(self):
        # For a chain the feed part equals the strict upper triangle the
        # causal rule already imposes, so OR-ing it in changes nothing.
        extra = tree_extra_blocked([-1, 0], n_cache=3)
        assert np.array_equal(extra[:, 3:], np.triu(np.ones((3, 3), bool), k=1))


class TestSingleForwardPerRound:
    def test_solo_verify_is_one_decode_call(self, world, monkeypatch):
        engine = _tree_engine(world)
        assert engine.tree_ready
        session = engine.begin(world["samples"][0])
        calls = []
        original = engine.target.decode_batch
        monkeypatch.setattr(
            engine.target, "decode_batch",
            lambda *a, **kw: calls.append(1) or original(*a, **kw),
        )
        monkeypatch.setattr(
            engine.target, "decode",
            lambda *a, **kw: pytest.fail("a verify is never a per-session decode"),
        )
        report = engine.step(session)
        # more nodes than the gamma-chain has: the block was a tree
        assert report.kind == "verify" and report.feed_size > 1 + engine.config.gamma
        assert len(calls) == 1, "tree verification must be a single target forward"
        # feed = anchor + nodes; leaves are never expanded, so there are
        # fewer draft forwards (kv_lens entries) than fed rows.
        assert 2 <= report.feed_size <= 1 + engine.config.tree_max_nodes
        assert len(report.draft_kv_lens) < report.feed_size

    def test_batched_verify_is_one_packed_call(self, world, monkeypatch):
        engine = _tree_engine(world)
        sessions = engine.begin_batch(list(world["samples"]))
        calls = {"decode": 0, "decode_batch": 0}
        orig_decode, orig_batch = engine.target.decode, engine.target.decode_batch
        monkeypatch.setattr(
            engine.target, "decode",
            lambda *a, **kw: calls.__setitem__("decode", calls["decode"] + 1)
            or orig_decode(*a, **kw),
        )
        monkeypatch.setattr(
            engine.target, "decode_batch",
            lambda *a, **kw: calls.__setitem__("decode_batch", calls["decode_batch"] + 1)
            or orig_batch(*a, **kw),
        )
        reports = engine.step_batch(sessions)
        assert all(r.feed_size > 1 + engine.config.gamma for r in reports)
        assert calls["decode_batch"] == 1 and calls["decode"] == 0

    def test_forward_accounting(self, world):
        session = _run(_tree_engine(world), world["samples"][0])
        record = session.record
        # one prefill + one verify per block (no faults in this world)
        assert record.n_target_forwards == 1 + len(record.blocks)
        assert record.n_draft_faults == 0


class TestLosslessness:
    def test_tree_matches_greedy_ar(self, world):
        ar = AutoregressiveDecoder(
            world["target"], world["tokenizer"], world["cm"],
            max_new_tokens=MAX_NEW_TOKENS,
        )
        engine = _tree_engine(world)
        for sample in world["samples"]:
            assert engine.decode(sample).token_ids == ar.decode(sample).token_ids

    def test_wider_trees_still_lossless(self, world):
        ar = AutoregressiveDecoder(
            world["target"], world["tokenizer"], world["cm"],
            max_new_tokens=MAX_NEW_TOKENS,
        )
        engine = _tree_engine(world, tree_max_branch=3, tree_max_nodes=10,
                              tree_entropy_scale=0.5, gamma=5)
        for sample in world["samples"]:
            assert engine.decode(sample).token_ids == ar.decode(sample).token_ids


class TestBranch1Identity:
    def test_bitwise_identical_to_linear_path(self, world):
        for sample in world["samples"]:
            linear_session = _run(_engine(world), sample)
            tree_session = _run(_tree_engine(world, tree_max_branch=1), sample)
            linear, tree = linear_session.record, tree_session.record
            assert list(tree_session.committed) == list(linear_session.committed)
            assert tree.sim_time_ms == linear.sim_time_ms   # exact float equality
            assert tree.n_target_forwards == linear.n_target_forwards
            assert [(b.n_draft, b.n_accepted, b.n_emitted) for b in tree.blocks] == [
                (b.n_draft, b.n_accepted, b.n_emitted) for b in linear.blocks
            ]


class TestBatchedTree:
    def test_batched_matches_solo_bitwise(self, world):
        solo_engine = _tree_engine(world)
        solo = [_run(solo_engine, s) for s in world["samples"]]
        engine = _tree_engine(world)
        sessions = engine.begin_batch(list(world["samples"]))
        for outcome in sessions:
            assert not isinstance(outcome, Exception), outcome
        while any(not s.finished for s in sessions):
            engine.step_batch([s for s in sessions if not s.finished])
        for batched, reference in zip(sessions, solo):
            assert list(batched.committed) == list(reference.committed)
            assert batched.record.sim_time_ms == reference.record.sim_time_ms


class _CountingHead:
    """The head, counting its packed draft forwards."""

    def __init__(self, head):
        self._head, self.calls = head, 0

    def __getattr__(self, name):
        return getattr(self._head, name)

    def step_packed(self, *args, **kwargs):
        self.calls += 1
        return self._head.step_packed(*args, **kwargs)


class TestLockstepDraftLane:
    def test_round_is_one_packed_forward_per_expansion(self, world, monkeypatch):
        head = world["head"]
        counting = _CountingHead(head)
        engine = _tree_engine(world, head=counting, tree_max_nodes=8, gamma=4)
        cfg = engine.config
        sessions = engine.begin_batch(list(world["samples"]))
        trees = []
        monkeypatch.setattr(
            engine_mod, "speculative_verify",
            lambda tree, *a: trees.append(tree) or speculative_verify(tree, *a),
        )
        reports = engine.step_batch(sessions)
        assert [r.kind for r in reports] == ["verify"] * len(sessions)

        # the spec: each session's tree drafted alone by ``draft_tree``
        reference = _tree_engine(world)
        expansions = []
        for session, report, tree in zip(sessions, reports, trees):
            solo = reference.begin(session.sample)
            with no_grad():
                spec = head.draft_tree(
                    solo.committed[-1], solo.gen_base + len(solo.committed) - 1,
                    solo.draft_state, gamma=cfg.gamma, max_branch=cfg.tree_max_branch,
                    max_nodes=cfg.tree_max_nodes, entropy_scale=cfg.tree_entropy_scale,
                )
            assert tree == spec
            # the anchor and every node with children were expanded, in
            # preorder, each attending the context, its ancestors and itself
            ctx = solo.draft_state.context_len
            parents = set(spec.parents)
            kv_lens = [ctx + 1] + [ctx + d + 1 for i, d in enumerate(spec.depths)
                                   if i in parents]
            assert report.draft_kv_lens == tuple(kv_lens)
            record = solo.record
            for kv in kv_lens:
                record.charge_sim(head.step_ms(world["cm"], (kv,)), "draft")
            record.charge_sim(world["cm"].target_verify(1 + spec.n_nodes), "verify")
            assert session.record.sim_time_ms == record.sim_time_ms
            expansions.append(len(kv_lens))
        assert counting.calls == max(expansions) < sum(expansions)


class TestTreeGate:
    def test_ready_when_greedy_and_supported(self, world):
        assert _tree_engine(world).tree_ready
        assert not _engine(world).tree_ready    # tree_speculation off

    def test_sampled_engine_drafts_trees(self, world):
        engine = _tree_engine(world, sampler_config=SAMPLED)
        assert engine.tree_ready
        vocab = world["tokenizer"].vocab_size
        for sample in world["samples"]:
            record = engine.decode(sample)
            assert all(0 <= t < vocab for t in record.token_ids)
            assert any(b.n_draft > engine.config.gamma for b in record.blocks)

    def test_faulty_wrapper_drafts_sampled_trees(self, world):
        wrapped = FaultyDraftHead(world["head"], mode="nan-logits", fail_every=7)
        engine = _tree_engine(world, head=wrapped, sampler_config=SAMPLED)
        records = [engine.decode(sample) for sample in world["samples"]]
        eos = world["tokenizer"].vocab.eos_id
        # every decode completes: at its budget or at eos
        assert all(len(r.token_ids) == MAX_NEW_TOKENS or r.token_ids[-1] == eos
                   for r in records)
        assert all(r.n_draft_faults > 0 for r in records)
        assert any(b.n_draft > engine.config.gamma for r in records for b in r.blocks)

    def test_faulty_wrapper_drafts_trees(self, world):
        ar = AutoregressiveDecoder(
            world["target"], world["tokenizer"], world["cm"],
            max_new_tokens=MAX_NEW_TOKENS,
        )
        expected = [ar.decode(sample).token_ids for sample in world["samples"]]
        for mode in ("nan-logits", "raise", "corrupt-cache"):
            wrapped = FaultyDraftHead(world["head"], mode=mode, fail_every=7)
            engine = _tree_engine(world, head=wrapped)
            assert wrapped.supports_tree and engine.tree_ready
            records = [engine.decode(sample) for sample in world["samples"]]
            assert [r.token_ids for r in records] == expected, mode
            assert all(r.n_draft_faults > 0 for r in records), mode
            # faults end single blocks: the rest still verify as trees
            assert any(b.n_draft > engine.config.gamma for r in records for b in r.blocks)

    def test_request_storm_is_width_independent(self, world):
        # a per-request schedule faults the same requests at the same
        # request-local expansions whether their trees grow alone or in lockstep
        def run(width):
            head = FaultyDraftHead(world["head"], mode="nan-logits", seed=3,
                                   request_fault_rate=0.5, fault_horizon=6)
            report = serve_requests(_tree_engine(world, head=head), world["samples"],
                                    ServingConfig(max_batch_size=width))
            assert report.count(STATUS_COMPLETED) == len(world["samples"])
            return head.faults_by_request, [r.record.token_ids for r in report.results]

        faults_solo, tokens_solo = run(1)
        faults_wide, tokens_wide = run(len(world["samples"]))
        assert faults_solo == faults_wide and sum(faults_solo.values()) > 0
        assert tokens_solo == tokens_wide

    def test_config_validation(self):
        for bad in (
            dict(tree_max_branch=0),
            dict(tree_max_nodes=0),
            dict(tree_entropy_scale=0.0),
        ):
            with pytest.raises(DecodingError):
                AASDEngineConfig(gamma=3, tree_speculation=True, **bad)


class TestCommitState:
    def test_pointer_commit_tracks_committed_tokens(self, world):
        engine = _tree_engine(world)
        session = engine.begin(world["samples"][0])
        base = session.target_cache.seq_len - len(session.committed)
        while not session.finished:
            engine.step(session)
            assert session.target_cache.seq_len == base + len(session.committed)
        # cache positions are the contiguous committed range
        positions = session.target_cache.positions
        assert positions[-1] == positions[0] + session.target_cache.seq_len - 1

    def test_gamma_controller_sees_tree_depth(self, world):
        # FixedGamma keeps gamma constant; the adaptive update must still
        # be called with the tree's max depth (not node count) — pinned by
        # drafting with gamma=2 and checking no block drafts deeper.
        session = _run(_tree_engine(world, gamma=2), world["samples"][0],
                       gamma_controller=FixedGamma(2))
        for block in session.record.blocks:
            assert block.n_accepted <= block.n_draft
