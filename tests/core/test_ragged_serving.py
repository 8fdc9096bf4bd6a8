"""Packed ragged-batch serving: token identity, isolation, edge cases.

The engine's one round (``begin_batch`` / ``step_batch``) promises
**bitwise** token identity with one-session-at-a-time stepping, under greedy
decoding and — because every request draws from its own derived stream —
under sampling too, whatever the batch order, the per-session gammas or
the moment batch-mates retire.  The world here uses dim=96 deliberately:
the gemv/gemm K-reduction divergence that makes naive packing lossy only
appears at K >= 64 (``tests/nn/test_ragged.py::TestPackingStability``),
so a small-dim world would pass even with a broken packing scheme.

Also pins: ``step`` / ``begin`` are the one-row round report for report,
per-request outcomes (a session's hard fault is its own entry of
``step_batch``'s result, on the plain head and on ``FaultyDraftHead``; a
row-level fault from ``step_packed`` degrades its session alone),
per-request fault isolation in batched prefill, mixed per-session
gammas, reference-cache compatibility of the packed path, and rollback
visibility of packed draft blocks through a ``BlockTable`` view.

The drafter is one more input of these cases: the round is the same over
the AASD head and over the independent drafts of Table 1 (``dt-llama``: a
language-only LM, ``ft-llava``: a tiny LLaVA — random weights, the labels
only name the two cache shapes), so the baselines inherit every property.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.core.draft_head as draft_head_mod
import repro.core.engine as engine_mod
import repro.models.llama as llama_mod
from repro.core import (
    AASDDraftHead, AASDEngine, AASDEngineConfig, DraftHeadConfig, StepReport,
)
from repro.core.kv_arena import BlockTable
from repro.core.reference import ReferenceHybridKVCache, ReferenceKVCache
from repro.data.tasks import make_dataset
from repro.decoding import (
    AutoregressiveDecoder, CostModel, LlamaTextDraft, LlavaDraft, get_profile,
)
from repro.decoding.adaptive import FixedGamma
from repro.decoding.sampling import SamplerConfig
from repro.decoding.tree import VerifyOutcome
from repro.errors import DecodingError
from repro.models.config import LlamaConfig, LlavaConfig, VisionConfig
from repro.models.llama import MiniLlama
from repro.models.llava import MiniLlava
from repro.robustness.faults import DraftFault, FaultyDraftHead

MAX_NEW_TOKENS = 24
N_SAMPLES = 6


@pytest.fixture(scope="module")
def world(tokenizer):
    gen = np.random.default_rng(0)
    vocab = tokenizer.vocab_size
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
    small = LlamaConfig(vocab_size=vocab, dim=32, n_layers=1, n_heads=2, mlp_hidden=48)
    drafters = {
        "aasd": head,
        "dt-llama": LlamaTextDraft(MiniLlama(small, rng=gen), "dt-llama"),
        "ft-llava": LlavaDraft(MiniLlava(LlavaConfig(
            llama=small,
            vision=VisionConfig(image_size=48, patch_size=16, dim=16, n_layers=1,
                                n_heads=2, mlp_hidden=24),
        ), rng=gen), "ft-llava"),
    }
    cm = CostModel(get_profile("sim-7b"))
    samples = make_dataset("coco-sim", N_SAMPLES, seed=4).samples
    return dict(target=target, head=head, cm=cm, samples=samples, tokenizer=tokenizer,
                **drafters)


def _engine(world, seed=7, head=None, **overrides):
    sampler_config = overrides.pop("sampler_config", None)
    return AASDEngine(
        world["target"],
        head if head is not None else world["head"],
        world["tokenizer"], world["cm"],
        AASDEngineConfig(
            gamma=overrides.pop("gamma", 3),
            max_new_tokens=overrides.pop("max_new_tokens", MAX_NEW_TOKENS),
            **overrides,
        ),
        rng=np.random.default_rng(seed),
        sampler_config=sampler_config,
    )


SAMPLED = SamplerConfig(greedy=False, temperature=0.8, top_p=0.95)

# A sampled request's stream is derived from its id, so the helpers below
# give sample ``i`` the id ``req-{i}`` wherever and however it is decoded.


def _solo_tokens(world, samples, gammas=None, **overrides):
    engine = _engine(world, **overrides)
    out = []
    for i, sample in enumerate(samples):
        session = engine.begin(
            sample, request_id=f"req-{i}",
            gamma_controller=FixedGamma(gammas[i]) if gammas else None,
        )
        while not session.finished:
            engine.step(session)
        out.append(list(session.committed))
    return out


def _packed_tokens(world, samples, gammas=None, order=None, **overrides):
    """Tokens per sample (in sample order) of one packed run batched in ``order``."""
    engine = _engine(world, **overrides)
    order = list(order) if order is not None else list(range(len(samples)))
    sessions = engine.begin_batch(
        [samples[i] for i in order],
        gamma_controllers=[FixedGamma(gammas[i]) for i in order] if gammas else None,
        request_ids=[f"req-{i}" for i in order],
    )
    for outcome in sessions:
        assert not isinstance(outcome, Exception), outcome
    while any(not s.finished for s in sessions):
        engine.step_batch([s for s in sessions if not s.finished])
    by_sample = dict(zip(order, sessions))
    return [list(by_sample[i].committed) for i in range(len(samples))]


@pytest.fixture(params=[
    pytest.param((drafter, config, False),
                 id=mode if drafter == "aasd" else f"{drafter}-{mode}")
    for drafter in ("aasd", "dt-llama", "ft-llava")
    for mode, config in (("greedy", None), ("sampled", SAMPLED))
] + [
    pytest.param(("aasd", config, True), id=f"tree-{mode}")
    for mode, config in (("greedy", None), ("sampled", SAMPLED))
])
def sampling(request, world):
    """Engine overrides: every drafter, in both decoding modes the identity
    must hold in, and the AASD head drafting trees in both modes too."""
    drafter, config, tree = request.param
    return {"head": world[drafter], "sampler_config": config, "tree_speculation": tree}


class TestTokenIdentity:
    def test_packed_matches_solo_bitwise(self, world, sampling):
        assert _packed_tokens(world, world["samples"], **sampling) == _solo_tokens(
            world, world["samples"], **sampling
        )

    def test_batch_order_does_not_matter(self, world, sampling):
        n = len(world["samples"])
        straight = _packed_tokens(world, world["samples"], **sampling)
        for order in ([*range(n)][::-1], [3, 0, 5, 1, 4, 2][:n]):
            assert _packed_tokens(
                world, world["samples"], order=order, **sampling
            ) == straight

    def test_finished_sessions_drop_out_mid_round(self, world, sampling):
        # budgets shrink the batch as short generations finish; the
        # remaining sessions' tokens must be unaffected by the shrink
        engine = _engine(world, **sampling)
        budgets = [4 + 4 * i for i in range(len(world["samples"]))]
        sessions = engine.begin_batch(
            list(world["samples"]),
            max_new_tokens=budgets,
            request_ids=[f"req-{i}" for i in range(len(budgets))],
        )
        while any(not s.finished for s in sessions):
            engine.step_batch([s for s in sessions if not s.finished])
        solo = _solo_tokens(world, world["samples"], **sampling)
        for session, budget, reference in zip(sessions, budgets, solo):
            assert list(session.committed) == reference[:budget]

    def test_mixed_gammas(self, world, sampling):
        gammas = [1, 2, 4, 3, 2, 5][: len(world["samples"])]
        assert _packed_tokens(
            world, world["samples"], gammas=gammas, **sampling
        ) == _solo_tokens(world, world["samples"], gammas=gammas, **sampling)

    def test_reference_cache_compat(self, world, monkeypatch):
        # the packed path builds caches through the same monkeypatchable
        # names as the solo path, so the pre-arena reference stores must
        # run packed and stay token-identical
        arena = _packed_tokens(world, world["samples"])
        monkeypatch.setattr(llama_mod, "KVCache", ReferenceKVCache)
        monkeypatch.setattr(draft_head_mod, "HybridKVCache", ReferenceHybridKVCache)
        assert _packed_tokens(world, world["samples"]) == arena


class TestRequestStreams:
    """A sampled request's draws come from a stream keyed by its identity."""

    def _decode(self, engine, sample, request_id=None):
        session = engine.begin(sample, request_id=request_id)
        while not session.finished:
            engine.step(session)
        return list(session.committed)

    def test_same_id_same_stream_different_ids_differ(self, world):
        engine = _engine(world, sampler_config=SAMPLED)
        sample = world["samples"][0]
        first = self._decode(engine, sample, "a")
        other = self._decode(engine, sample, "b")
        assert self._decode(engine, sample, "a") == first
        assert other != first
        # ... and the id, not what was decoded in between, is what counts
        assert self._decode(_engine(world, sampler_config=SAMPLED), sample, "b") == other

    def test_requests_without_id_use_their_admission_ordinal(self, world):
        sample = world["samples"][0]
        engine = _engine(world, sampler_config=SAMPLED)
        runs = [self._decode(engine, sample) for _ in range(2)]
        assert runs[0] != runs[1]
        replay = _engine(world, sampler_config=SAMPLED)
        assert [self._decode(replay, sample) for _ in range(2)] == runs

    def test_root_key_follows_the_injected_generator(self, world):
        sample = world["samples"][0]
        a = self._decode(_engine(world, seed=1, sampler_config=SAMPLED), sample, "a")
        b = self._decode(_engine(world, seed=2, sampler_config=SAMPLED), sample, "a")
        assert a != b

    def test_greedy_sessions_carry_no_stream(self, world):
        assert _engine(world).begin(world["samples"][0]).rng is None


class TestTokenBudget:
    """A verified block that crosses ``max_new_tokens`` *and* holds eos is
    cut at the budget, on every path that commits a block."""

    @pytest.mark.parametrize("tree,config", [
        pytest.param(False, None, id="chain"),
        pytest.param(True, None, id="tree"),
        pytest.param(True, SAMPLED, id="tree-sampled"),
    ])
    @pytest.mark.parametrize("packed", [False, True], ids=["solo", "packed"])
    def test_eos_past_the_cap_does_not_extend_the_output(
            self, world, monkeypatch, tree, config, packed):
        eos = world["tokenizer"].vocab.eos_id
        budget = 2

        def accept_first_branch_then_eos(draft, *_):
            children, node, path = draft.children(), -1, []
            while children.get(node):
                node = children[node][0]
                path.append(node)
            return VerifyOutcome(tuple(draft.tokens[i] for i in path), eos, True, tuple(path))

        monkeypatch.setattr(engine_mod, "speculative_verify", accept_first_branch_then_eos)
        engine = _engine(world, max_new_tokens=budget, tree_speculation=tree,
                         sampler_config=config)
        assert engine.tree_ready == tree
        samples = list(world["samples"][:3])
        if packed:
            sessions = engine.begin_batch(samples)
            reports = engine.step_batch(sessions)
        else:
            sessions = [engine.begin(sample) for sample in samples]
            reports = [engine.step(session) for session in sessions]
        for session, report in zip(sessions, reports):
            # the block emitted 1 + n_accepted + 1 tokens, eos last
            assert report.kind == "verify" and report.n_accepted >= 2
            assert session.finished
            assert len(session.committed) == budget
            assert eos not in session.committed


class TestSoloReduction:
    def test_batch_of_one_uses_solo_begin(self, world):
        engine = _engine(world)
        (packed,) = engine.begin_batch([world["samples"][0]])
        solo = _engine(world).begin(world["samples"][0])
        assert list(packed.committed) == list(solo.committed)
        report_packed = engine.step_batch([packed])[0]
        report_solo = _engine(world)
        # a singleton step_batch must behave exactly like step
        session = report_solo.begin(world["samples"][0])
        assert report_packed.kind == report_solo.step(session).kind
        assert list(packed.committed) == list(session.committed)

    def test_step_batch_rejects_finished_session(self, world):
        engine = _engine(world)
        sessions = engine.begin_batch(list(world["samples"][:2]))
        while not sessions[0].finished:
            engine.step_batch([s for s in sessions if not s.finished])
        with pytest.raises(DecodingError):
            engine.step_batch(sessions)


class _RowFaultHead:
    """Plain drafter whose lockstep step spoils one request's row (``once``, or always).

    ``fault`` is an exception instance (returned in the row's slot, the
    row-level fault contract of ``step_packed``) or ``None`` (the row's
    logits come back NaN, for the engine's own finiteness guard to catch).
    """

    def __init__(self, head, request_id, fault=None, once=True):
        self._head, self.request_id, self.fault = head, request_id, fault
        self.once, self.fired = once, False

    def __getattr__(self, name):
        return getattr(self._head, name)

    def step_packed(self, token_ids, positions, states, request_ids=None, **kw):
        rows = self._head.step_packed(
            token_ids, positions, states, request_ids=request_ids, **kw)
        if not (self.once and self.fired) and self.request_id in request_ids:
            self.fired = True
            at = list(request_ids).index(self.request_id)
            rows[at] = self.fault if self.fault is not None else np.full_like(rows[at], np.nan)
        return rows


def _ar_tokens(world, samples):
    ar = AutoregressiveDecoder(
        world["target"], world["tokenizer"], world["cm"], max_new_tokens=MAX_NEW_TOKENS
    )
    return [ar.decode(sample).token_ids for sample in samples]


class TestPerRequestOutcomes:
    """``step_batch`` answers per session: a report, or that session's exception."""

    IDS = [f"req-{i}" for i in range(4)]

    def _begin(self, engine, world):
        sessions = engine.begin_batch(list(world["samples"][:4]), request_ids=self.IDS)
        assert not any(isinstance(s, Exception) for s in sessions)
        return sessions

    def _drain(self, engine, sessions):
        while any(not s.finished for s in sessions):
            for outcome in engine.step_batch([s for s in sessions if not s.finished]):
                assert isinstance(outcome, StepReport), outcome

    @pytest.mark.parametrize("wrapper,drafter", [
        pytest.param("faulty-head", "aasd", id="faulty-head"),
        pytest.param("nan-row", "aasd", id="nan-row"),
        pytest.param("faulty-head", "dt-llama", id="faulty-dt-llama"),
        pytest.param("nan-row", "ft-llava", id="nan-row-ft-llava"),
    ])
    def test_hard_fault_fails_only_its_session(self, world, wrapper, drafter):
        if wrapper == "faulty-head":
            # a storm seed that afflicts exactly one of the four requests
            head = next(
                h for h in (
                    FaultyDraftHead(world[drafter], mode="raise", seed=seed,
                                    request_fault_rate=0.3, fault_horizon=1)
                    for seed in range(100)
                ) if [bool(h.storm_steps(rid)) for rid in self.IDS] == [0, 0, 1, 0]
            )
        else:
            head = _RowFaultHead(world[drafter], "req-2")
        engine = _engine(world, head=head, fallback_on_fault=False)
        sessions = self._begin(engine, world)
        outcomes = engine.step_batch(sessions)
        assert isinstance(outcomes[2], Exception)
        assert all(isinstance(outcomes[i], StepReport) for i in (0, 1, 3))
        assert sessions[2].record.n_draft_faults == 0   # failed, not degraded
        survivors = [sessions[i] for i in (0, 1, 3)]
        self._drain(engine, survivors)
        reference = _ar_tokens(world, world["samples"][:4])
        assert [list(s.committed) for s in survivors] == [reference[i] for i in (0, 1, 3)]

    def test_step_reraises_its_sessions_outcome(self, world):
        head = FaultyDraftHead(world["head"], mode="raise", per_request=True,
                               fail_steps=[0])
        engine = _engine(world, head=head, fallback_on_fault=False)
        with pytest.raises(DraftFault):
            engine.step(engine.begin(world["samples"][0], request_id="r"))

    def test_row_level_fault_degrades_only_its_session(self, world):
        # an exception in the row's slot, or NaN logits for the engine's
        # own finiteness guard: either way that session alone falls back
        for drafter, fault in (("aasd", DraftFault("row fault")),
                               ("dt-llama", DraftFault("row fault")),
                               ("ft-llava", None)):
            head = _RowFaultHead(world[drafter], "req-1", fault=fault)
            engine = _engine(world, head=head)
            sessions = self._begin(engine, world)
            reports = engine.step_batch(sessions)
            assert [r.kind for r in reports] == ["verify", "fallback", "verify", "verify"]
            self._drain(engine, sessions)
            assert [s.record.n_draft_faults for s in sessions] == [0, 1, 0, 0]
            assert [list(s.committed) for s in sessions] == _ar_tokens(
                world, world["samples"][:4]
            )

    @pytest.mark.parametrize("tree,drafter", [
        pytest.param(False, "aasd", id="chain"),
        pytest.param(True, "aasd", id="tree"),
        pytest.param(False, "dt-llama", id="dt-llama"),
    ])
    def test_step_is_the_one_row_round(self, world, tree, drafter):
        # same request through step() and through step_batch([s])[0]:
        # plain blocks, a breaker-forced block, then a deadline expiry
        plan = [{}, {"force_fallback": True}, {}, {"budget_ms": 0.0}]
        solo, batched = (
            _engine(world, head=world[drafter], tree_speculation=tree, tree_max_branch=2)
            for _ in range(2)
        )
        a = solo.begin(world["samples"][0], request_id="r")
        (b,) = batched.begin_batch([world["samples"][0]], request_ids=["r"])
        kinds = []
        for kwargs in plan:
            report = solo.step(a, **kwargs)
            budget = kwargs.get("budget_ms")
            (twin,) = batched.step_batch(
                [b], budgets_ms=[budget],
                force_fallback=kwargs.get("force_fallback", False),
            )
            assert report == twin
            assert a.committed == b.committed
            kinds.append(report.kind)
        assert kinds == ["verify", "fallback", "verify", "expired"]
        assert a.record.sim_time_ms == b.record.sim_time_ms


class TestFaultIsolation:
    @pytest.mark.parametrize("mode", ["raise", "nan"])
    def test_broken_independent_draft_costs_speed_never_tokens(self, world, mode):
        # req-1's draft faults at every step: it degrades after the first
        # fault, goes target-only after max_draft_faults, and neither its
        # output nor its batch-mates' blocks notice
        head = _RowFaultHead(
            world["dt-llama"], "req-1", once=False,
            fault=DraftFault("broken draft") if mode == "raise" else None,
        )
        engine = _engine(world, head=head, max_draft_faults=2)
        ids = [f"req-{i}" for i in range(3)]
        sessions = engine.begin_batch(list(world["samples"][:3]), request_ids=ids)
        while any(not s.finished for s in sessions):
            engine.step_batch([s for s in sessions if not s.finished])
        broken, mates = sessions[1], (sessions[0], sessions[2])
        assert [list(s.committed) for s in sessions] == _ar_tokens(
            world, world["samples"][:3]
        )
        assert broken.record.n_draft_faults == 2
        assert broken.record.fallback_mode == "target-only" and not broken.record.blocks
        assert broken.record.n_fallback_steps == len(broken.committed) - 1
        assert all(s.record.n_draft_faults == 0 and s.record.blocks for s in mates)

    def test_bad_image_faults_only_its_request(self, world):
        bad = dataclasses.replace(
            world["samples"][0], image=np.zeros((8, 8, 3), dtype=np.float32)
        )
        engine = _engine(world)
        outcomes = engine.begin_batch([bad, world["samples"][1]])
        assert isinstance(outcomes[0], Exception)
        assert not isinstance(outcomes[1], Exception)
        solo = _solo_tokens(world, [world["samples"][1]])[0]
        session = outcomes[1]
        while not session.finished:
            engine.step_batch([session])
        assert list(session.committed) == solo


class TestBlockTableRollback:
    def test_packed_draft_rollback_visible_through_view(self, world):
        # speculate a draft block through the packed lockstep path, then
        # reject it: the pointer-decrement rollback must be visible
        # through a BlockTable built over the same hybrid caches
        engine = _engine(world)
        sessions = engine.begin_batch(list(world["samples"][:3]))
        table = BlockTable([s.draft_state for s in sessions])
        before = table.seq_lens()
        engine.step_batch(sessions)
        # every draft block was either committed (context grew) or rolled
        # back; in both cases no speculative entries may linger
        for hybrid, n_before in zip(table.caches, before):
            assert hybrid.draft_len == 0
            assert hybrid.seq_len >= n_before
        assert table.seq_lens() == [h.seq_len for h in table.caches]
        assert table.cu_seqlens().tolist() == np.cumsum(
            [0] + [h.seq_len for h in table.caches]
        ).tolist()

    def test_layer_blocks_are_views(self, world):
        engine = _engine(world)
        sessions = engine.begin_batch(list(world["samples"][:2]))
        table = BlockTable([s.target_cache for s in sessions])
        keys, values = table.layer_blocks(0)
        assert len(keys) == len(values) == 2
        for cache, k in zip(table.caches, keys):
            layer_k, _ = cache.layer(0)
            assert np.shares_memory(np.asarray(k), np.asarray(layer_k))
