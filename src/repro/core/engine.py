"""AASDEngine: the full prefill / draft / verify inference loop.

This is the paper's Figure 2a pipeline:

1. **Prefill** — the target processes image + prompt, producing its KV
   cache and the first token; the draft head compresses the vision slice of
   the last-layer KV through the projector and adopts the text slice as its
   attention context.
2. **Draft** — the speculating module autoregressively proposes gamma
   tokens, attending over [compressed vision KV, target text KV, its own
   block-local KV].
3. **Verify** — one parallel target forward checks the block (greedy match
   or speculative sampling).  The verification forward's *own last-layer KV
   output* for the accepted tokens is appended to the draft context, so
   context maintenance costs nothing extra.

One drafter seam: what is particular to the speculating module — its
per-request state, how that is opened, stepped, rolled back and extended
over a verified block, and which cost-model phase each call is priced as —
sits behind :class:`~repro.decoding.speculative.Drafter`.  The engine runs the
same round over whichever drafter it is handed as ``head``: the KV-reusing
:class:`~repro.core.draft_head.AASDDraftHead` or an independent draft of
Table 1, so every guarantee below covers the baselines too.

One round: the loop is written once.  :meth:`AASDEngine.begin_batch` is
the only prefill and :meth:`AASDEngine.step_batch` the only draft / verify
/ commit implementation; each advances B resumable per-request state
objects (:class:`DecodeSession`) as fused kernels (``docs/kernels.md``)
and returns one outcome per request — a session / :class:`StepReport`, or
the exception that request raised.  A batch of one is a one-row round with
the solo GEMM shapes: :meth:`AASDEngine.begin` / :meth:`AASDEngine.step`
are exactly that, :meth:`AASDEngine.decode` is the single-request loop on
top, and the continuous-batching scheduler in :mod:`repro.serving` drives
the same two calls at any width (``docs/serving.md``, "The model of
batching").  Because *all* mutable decode state (target cache, draft
state, committed tokens, fault status, speculation depth, random stream)
lives on the session, sessions are independent: a fault in one degrades or
fails that request alone, and what one samples never depends on its
batch-mates, on batch order or on batch width.

Fault tolerance: speculative decoding is lossless-with-fallback by
construction — the target model alone can always finish a generation — so
a broken drafter must only ever cost speed, never availability.  Every
draft block is guarded against NaN/Inf logits, draft-state invariant
violations, and arbitrary drafter exceptions.  On a fault the engine
drops the block, takes one plain target step instead and, after
``max_draft_faults`` faults, disables the speculating module and decodes
the rest autoregressively (with ``fallback_on_fault=False`` the fault is
that request's outcome instead).  Faults are counted on the returned :class:`DecodeRecord` so benchmarks can
report degradation rates.

Observability: the loop is tiled into ``prefill`` / ``draft`` / ``verify``
/ ``fallback`` spans under one ``decode`` root (see
:mod:`repro.obs.tracing`), each carrying gamma, acceptance counts, fault
tags, and the simulated-clock charge for that phase, so wall and simulated
time can be compared per phase.  Tracing is off by default and never
touches sampling state, so traced and untraced decodes emit identical
tokens.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import count
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..data.tasks import MultimodalSample
from ..decoding.base import Decoder, commit_block, encode_prompt
from ..decoding.cost_model import CostModel
from ..decoding.metrics import BlockRecord, DecodeRecord
from ..decoding.sampling import Sampler, SamplerConfig
from ..decoding.speculative import Drafter
from ..decoding.tree import DraftWalk, speculative_verify, tree_extra_blocked
from ..errors import DecodingError, PrefillGroupError
from ..models.llava import MiniLlava
from ..nn.kernels import pin_operands
from ..nn.tensor import no_grad
from ..obs.logsetup import get_logger, log_exception
from ..obs.tracing import Tracer, get_tracer
from ..robustness.guards import ensure_finite
from ..tokenizer import WordTokenizer
from ..utils.rng import derive
from ..utils.timing import SimulatedClock, WallTimer
from .kv_arena import ArenaStats, combined_stats

__all__ = ["AASDEngineConfig", "AASDEngine", "DecodeSession", "StepReport"]

logger = get_logger(__name__)

FALLBACK_TARGET_ONLY = "target-only"

# The one accept rule, bound a second time under its old tree name only
# because the e2e tracer (benchmarks/e2e/trace.py) looks both names up here.
accept_tree = speculative_verify


@dataclass(frozen=True)
class AASDEngineConfig:
    """Runtime knobs of the engine (ablation switches included)."""

    gamma: int = 3
    max_new_tokens: int = 64
    fallback_on_fault: bool = True   # degrade instead of raising on draft faults
    max_draft_faults: int = 3        # after this many faults, go target-only
    # Tree speculation (repro.decoding.tree): draft a candidate *tree*
    # instead of a gamma-chain and verify every branch in one target
    # forward, greedy or sampled, by the one acceptance rule.  With
    # max_branch=1 the tree degenerates to the chain and the engine's
    # output is bitwise identical to the linear speculative path.
    tree_speculation: bool = False   # route steps through the tree path
    tree_max_branch: int = 2         # children cap per draft step
    tree_max_nodes: int = 12         # node budget per tree (floored at gamma)
    tree_entropy_scale: float = 1.0  # draft-head nats needed per extra branch

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise DecodingError(f"gamma must be positive, got {self.gamma}")
        if self.max_new_tokens <= 0:
            raise DecodingError(f"max_new_tokens must be positive, got {self.max_new_tokens}")
        if self.max_draft_faults <= 0:
            raise DecodingError(f"max_draft_faults must be positive, got {self.max_draft_faults}")
        if self.tree_max_branch <= 0:
            raise DecodingError(f"tree_max_branch must be positive, got {self.tree_max_branch}")
        if self.tree_max_nodes <= 0:
            raise DecodingError(f"tree_max_nodes must be positive, got {self.tree_max_nodes}")
        if self.tree_entropy_scale <= 0:
            raise DecodingError(
                f"tree_entropy_scale must be positive, got {self.tree_entropy_scale}"
            )


@dataclass
class DecodeSession:
    """Resumable state of one in-flight generation (one request).

    Created by :meth:`AASDEngine.begin_batch` (which runs the prefill) and
    advanced one draft-then-verify block per :meth:`AASDEngine.step_batch`
    round.
    Every piece of mutable decode state lives here rather than on the
    engine, so a scheduler can interleave arbitrarily many sessions over
    one engine and a fault in one session degrades that session alone.
    """

    sample: MultimodalSample            #: the request being decoded
    record: DecodeRecord                #: per-request metrics, charged in place
    prompt_ids: np.ndarray              #: encoded ``[bos, prompt...]``
    eos: int                            #: tokenizer eos id
    gen_base: int                       #: absolute position of ``committed[0]``
    max_new_tokens: int                 #: per-request generation budget
    gamma: int                          #: speculation depth of every block
    target_cache: object                #: the target model's KV cache
    #: the drafter's per-request state, in the drafter's own format
    #: (``None`` when opening it faulted and the session went target-only)
    draft_state: object = None
    committed: List[int] = field(default_factory=list)  #: tokens emitted so far
    speculating: bool = True            #: False once speculation was disabled
    request_id: Optional[str] = None    #: serving-layer id (attribution)
    #: the request's own random stream (``None`` under greedy, which draws
    #: nothing); every sample, accept test and residual draw of this
    #: request comes from it and from nowhere else.
    rng: Optional[np.random.Generator] = None

    @property
    def finished(self) -> bool:
        """True once eos was emitted or the token budget is exhausted."""
        return bool(self.committed) and (
            self.committed[-1] == self.eos
            or len(self.committed) >= self.max_new_tokens
        )

    def commit(self, accepted: Sequence[int], next_token: int) -> None:
        """Emit a verified block, cut at eos or the token budget, whichever is first."""
        commit_block(self.committed, accepted, next_token, self.eos, self.max_new_tokens)

    @property
    def kv_tokens(self) -> int:
        """KV entries this request holds: target cache plus draft state."""
        draft = self.draft_state
        return self.target_cache.seq_len + (draft.seq_len if draft is not None else 0)

    def memory_stats(self) -> ArenaStats:
        """Arena copy/growth accounting over this session's two caches.

        Tolerates non-arena (reference) cache implementations, which
        simply contribute nothing.
        """
        return combined_stats(self.target_cache, self.draft_state)


@dataclass
class _PackedDraftState:
    """One session's speculated block within a round, chain or tree.

    Holds the verify anchor, the :class:`DraftWalk` growing the block
    below it (a chain is its width-1 tree), the solo-priced draft charge
    the deadline check compares to the session's budget, how the draft
    phase ended for this session and what absorbing its verified block
    cost.
    """

    slot: int                       #: index of the session in the round
    session: DecodeSession
    last: int                       #: last committed token (verify anchor)
    last_pos: int                   #: absolute position of ``last``
    open_len: int                   #: draft-state ``seq_len`` at block open
    walk: DraftWalk                 #: the block, grown one expansion per lane step
    pos: int = 0                    #: position of the last token fed (fault reports)
    n_forwards: int = 0             #: draft forwards charged to this block
    draft_ms: float = 0.0           #: solo-priced draft charge (budget check)
    absorb_ms: float = 0.0          #: the drafter's charge for absorbing the block
    faulted: bool = False           #: a draft fault emptied this block
    failure: Optional[Exception] = None   #: the fault, when it is the session's outcome

    @property
    def drafted(self) -> Sequence[int]:
        """The block's tokens in feed order (empty: nothing to verify)."""
        return () if self.faulted else self.walk.draft.tokens


@dataclass(frozen=True)
class StepReport:
    """What one round did for one session.

    A scheduler reads how the step ended and the speculation counts its
    circuit breaker watches; the prices of the step's model calls were
    already charged where the calls ran (:meth:`AASDEngine.step_batch`).
    """

    kind: str                           #: ``"verify"``, ``"fallback"``, or ``"expired"``
    n_draft_forwards: int = 0           #: draft forwards run for this session
    n_accepted: int = 0                 #: draft tokens accepted (verify only)


class AASDEngine(Decoder):
    """Speculative decoding: one round, over whichever drafter is passed as ``head``."""

    def __init__(
        self,
        target: MiniLlava,
        head: Drafter,
        tokenizer: WordTokenizer,
        cost_model: CostModel,
        config: Optional[AASDEngineConfig] = None,
        sampler_config: Optional[SamplerConfig] = None,
        rng: Optional[np.random.Generator] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.target = target
        self.head = head
        self.tokenizer = tokenizer
        self.cost_model = cost_model
        self.config = config or AASDEngineConfig()
        sampler_config = sampler_config or SamplerConfig()
        self.sampler = Sampler(sampler_config, rng=rng)
        # Root of the per-request streams: the sampler seed, or one key
        # drawn here from an injected generator (never touched again).
        self._stream_seed = (
            sampler_config.seed if rng is None else int(rng.integers(1 << 62))
        )
        self._admissions = count()   # stream identity of requests without an id
        self._tracer = tracer
        head.check_target(target)
        # The float64 operands every no-grad forward reads (repro.nn.kernels)
        # live while an engine serves these weights, and die with the last.
        weakref.finalize(self, pin_operands([*target.parameters(), *head.parameters()]))

    @property
    def name(self) -> str:
        """Table label of this decoder: its drafter's (``ours``, ``sd(ft-llama)``)."""
        return self.head.name

    @property
    def tracer(self) -> Tracer:
        """Explicit tracer if one was injected, else the process default."""
        return self._tracer if self._tracer is not None else get_tracer()

    # ------------------------------------------------------------------
    def _request_stream(self, request_id: Optional[str]) -> Optional[np.random.Generator]:
        """The generator a new session draws from, or ``None`` under greedy.

        Derived from the engine's root seed and the request's identity —
        its ``request_id``, else its admission ordinal on this engine —
        so a request's draws do not depend on its batch-mates, on batch
        order, or on packing, and a retried ``request_id`` replays them.
        """
        if self.sampler.config.greedy:
            return None
        if request_id is None:
            return derive(self._stream_seed, f"admission:{next(self._admissions)}")
        return derive(self._stream_seed, f"request:{request_id}")

    def _disable_speculation(self, session: DecodeSession, reason: str) -> None:
        """Turn a session target-only after repeated / unrecoverable faults."""
        session.speculating = False
        session.record.fallback_mode = FALLBACK_TARGET_ONLY
        logger.warning(
            "speculation disabled, decoding target-only: %s",
            reason,
            extra={
                "event": "fallback_target_only",
                "reason": reason,
                "n_draft_faults": session.record.n_draft_faults,
                "request_id": session.request_id,
            },
        )

    def _charge_draft_forward(self, state: _PackedDraftState, sp, kv_len: int) -> None:
        """Solo-price one draft forward over ``kv_len`` keys *before* it runs."""
        step_ms = state.session.record.charge_sim(
            self.cost_model.price(self.head.step_phase, (1,), (kv_len,)), "draft"
        )
        sp.add_sim_ms(step_ms)
        state.draft_ms += step_ms
        state.n_forwards += 1

    def _draft_fault(self, state: _PackedDraftState, exc: Exception, sp) -> None:
        """The one draft-fault rule: drop the block, then degrade or fail.

        The caller logs the exception (handlers own their logging so the
        except-discipline lint can see it).  With ``fallback_on_fault``
        the fault is counted, the session takes a plain target step this
        round, and after ``max_draft_faults`` it goes target-only;
        without it the exception becomes this session's outcome and its
        batch-mates carry on.
        """
        cfg = self.config
        session = state.session
        state.faulted = True
        # The speculated block may be poisoned; what the state held
        # before it is still trusted (the fallback step that follows
        # re-validates it).
        self.head.rollback(session.draft_state)
        if not cfg.fallback_on_fault:
            state.failure = exc
            return
        session.record.note_fault(f"draft fault at position {state.pos}: {exc}")
        sp.set_attr("fault", str(exc))
        if session.record.n_draft_faults >= cfg.max_draft_faults:
            self._disable_speculation(
                session, f"{session.record.n_draft_faults} draft faults"
            )

    def _absorb(self, session: DecodeSession, out, tokens: Sequence[int], last_pos: int,
                category: str, sp, rows: Optional[np.ndarray] = None) -> float:
        """Draft-state maintenance after a verify (or fallback) target forward.

        ``tokens`` are the fed tokens now committed (the anchor at
        ``last_pos``, then the accepted drafts); ``rows`` selects which
        fed rows they were when the feed was a candidate tree (a root
        path need not be contiguous), ``None`` meaning the first
        ``len(tokens)``.  Returns what the drafter charged for it.

        This is the one guard around the absorb: failing to extend the
        draft state never loses the tokens the target just produced.
        With ``fallback_on_fault`` the session goes target-only and the
        caller commits as usual; without it the exception is the
        session's outcome.
        """
        cfg = self.config
        state = session.draft_state
        positions = last_pos + np.arange(len(tokens), dtype=np.int64)
        try:
            ms = self.head.absorb(state, out, tokens, positions, self.cost_model, rows=rows)
            sp.add_sim_ms(session.record.charge_sim(ms, category))
            # A fallback step follows a block with no (clean) draft-phase
            # guard, so the state is re-validated here.
            if category == "fallback":
                self.head.check(state)
            return ms
        except Exception as exc:  # degrade to plain decode
            if not cfg.fallback_on_fault:
                raise
            log_exception(logger, "context_maintenance_fault", exc,
                          request_id=session.request_id, phase=category)
            session.record.note_fault(f"context maintenance failed: {exc}")
            sp.set_attr("fault", str(exc))
            self._disable_speculation(session, "context maintenance failed")
            return 0.0

    # ------------------------------------------------------------------
    # Session API: begin_batch / step_batch / finish are the implementation;
    # begin / step are the one-element batch, decode() the sequential loop
    # on top; repro.serving interleaves many sessions per engine.
    # ------------------------------------------------------------------
    @property
    def tree_ready(self) -> bool:
        """Whether rounds draft candidate trees instead of gamma-chains.

        The single gate of the round: the config switch and a drafter
        that advertises ``supports_tree`` (its steps attend any root path
        of the block).  Greedy and sampled requests alike: one acceptance
        rule verifies every tree (``repro.decoding.tree``).
        """
        return self.config.tree_speculation and bool(getattr(self.head, "supports_tree", False))

    def begin(
        self,
        sample: MultimodalSample,
        *,
        record: Optional[DecodeRecord] = None,
        max_new_tokens: Optional[int] = None,
        gamma: Optional[int] = None,
        request_id: Optional[str] = None,
    ) -> DecodeSession:
        """Prefill one request: :meth:`begin_batch` over a batch of one.

        Returns the resumable :class:`DecodeSession`, or raises what the
        request's prefill raised.
        """
        (outcome,) = self.begin_batch(
            [sample],
            records=[record],
            max_new_tokens=[max_new_tokens],
            gammas=[gamma],
            request_ids=[request_id],
        )
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def _prefill_isolated(
        self, images: Sequence[np.ndarray], prompts: Sequence[np.ndarray],
    ) -> Tuple[List[Union[Tuple[object, np.ndarray], Exception]],
               List[Tuple[List[int], List[int]]]]:
        """Batched target prefill: per request ``(cache, last_logits)`` or the fault.

        A group's failure (e.g. one malformed image makes its image stack
        ragged) must not take down the whole admission: that group is
        redone one request at a time, so only the requests that genuinely
        fault are failed, and the groups that completed stand.  Also
        returns each :meth:`MiniLlava.prefill_batch` call made, as the
        requests it ran and the requests it prefilled.
        """
        results: List[Union[Tuple[object, np.ndarray], Exception]] = [None] * len(images)
        calls: List[Tuple[List[int], List[int]]] = []
        pending = [list(range(len(images)))]
        while pending:
            ran = pending.pop(0)
            done: List[int] = []
            calls.append((ran, done))
            try:
                groups = [(range(len(ran)), self.target.prefill_batch(
                    [images[i] for i in ran], [prompts[i] for i in ran]))]
            except Exception as exc:
                log_exception(logger, "prefill_fault", exc, batch=len(ran))
                groups = (exc.outcomes if isinstance(exc, PrefillGroupError)
                          else [(range(len(ran)), exc)])
            for members, outcome in groups:
                rows = [ran[j] for j in members]
                if not isinstance(outcome, Exception):
                    done.extend(rows)
                    for i, result in zip(rows, zip(*outcome)):
                        results[i] = result
                elif len(rows) == 1:
                    results[rows[0]] = outcome
                else:
                    pending.extend([i] for i in rows)
        return results, calls

    def _open_session(self, sample: MultimodalSample, record: Optional[DecodeRecord],
                      prompt_ids: np.ndarray, gamma: int,
                      max_new_tokens: int, request_id: Optional[str],
                      target_cache, last_logits: np.ndarray,
                      sp) -> Union[DecodeSession, Exception]:
        """Charge one request's prefill, open its draft state, emit token 1.

        What this raises is the request's outcome, not its batch-mates'.
        """
        cfg = self.config
        try:
            n_vis = self.target.n_vision_tokens
            if record is None:
                record = DecodeRecord()
            if request_id is not None:
                record.request_id = request_id
            sp.add_sim_ms(record.charge_sim(
                self.cost_model.price("prefill", (n_vis + len(prompt_ids),)), "prefill"))
            record.count_target_forward()
            session = DecodeSession(
                sample=sample,
                record=record,
                prompt_ids=prompt_ids,
                eos=self.tokenizer.vocab.eos_id,
                gen_base=n_vis + len(prompt_ids),
                max_new_tokens=max_new_tokens,
                gamma=gamma,
                target_cache=target_cache,
                request_id=request_id,
                rng=self._request_stream(request_id),
            )
            try:
                session.draft_state = self.head.open(sample, prompt_ids, target_cache)
                phase = self.head.prefill_phase
                if phase is not None:
                    sp.add_sim_ms(record.charge_sim(self.cost_model.price(phase, (1,)), "prefill"))
                self.head.check(session.draft_state)
            except Exception as exc:  # any drafter fault degrades, never aborts
                if not cfg.fallback_on_fault:
                    raise
                log_exception(logger, "context_build_fault", exc, request_id=request_id)
                record.note_fault(f"context build failed: {exc}")
                self._disable_speculation(session, "context build failed")
                sp.set_attr("fault", str(exc))
            session.committed.append(self.sampler.sample(last_logits[0], rng=session.rng))
            return session
        except Exception as exc:  # isolate the fault to this request
            log_exception(logger, "prefill_fault", exc, request_id=request_id)
            return exc

    def begin_batch(
        self,
        samples: Sequence[MultimodalSample],
        *,
        records: Optional[Sequence[Optional[DecodeRecord]]] = None,
        max_new_tokens: Optional[Sequence[Optional[int]]] = None,
        gammas: Optional[Sequence[Optional[int]]] = None,
        request_ids: Optional[Sequence[Optional[str]]] = None,
        clock: Optional[SimulatedClock] = None,
    ) -> List[Union[DecodeSession, Exception]]:
        """Prefill B requests as packed forwards; per-request outcomes.

        The only prefill: a batch of one is a one-row packed forward with
        the solo GEMM shapes.  The per-request option sequences parallel
        ``samples``; a ``None`` entry takes the default — a fresh
        :class:`DecodeRecord`, the config's ``max_new_tokens`` and
        ``gamma``, no request id; a non-positive ``max_new_tokens`` or
        ``gammas`` entry raises :class:`~repro.errors.DecodingError`
        before any prefill runs.  Returns one entry per request *in
        order*: the started :class:`DecodeSession`, or the exception that
        request's prefill raised — failures are isolated, one bad sample
        never aborts its batch-mates.

        The requests run in groups of at most ``PREFILL_ROWS`` rows; per
        group the images are encoded in one vision call and the LM
        prefill runs cu-seqlen-packed (:meth:`MiniLlava.prefill_batch`),
        bitwise token-identical to B one-request prefills.  The round is traced
        as one ``prefill`` span; each record is charged the one-row
        ``prefill`` price, then its drafter's ``prefill_phase``, and each
        session's draft state is opened from its own target cache.  A
        server ``clock`` is charged once per ``prefill_batch`` call: the
        ``prefill`` price over the rows it ran plus the drafter's price
        over the sessions it opened.
        """
        n = len(samples)
        recs = list(records) if records is not None else [None] * n
        mnts = list(max_new_tokens) if max_new_tokens is not None else [None] * n
        gams = list(gammas) if gammas is not None else [None] * n
        rids = list(request_ids) if request_ids is not None else [None] * n
        if not (len(recs) == len(mnts) == len(gams) == len(rids) == n):
            raise DecodingError("begin_batch per-request sequences must parallel samples")
        mnts = [self.config.max_new_tokens if m is None else m for m in mnts]
        gams = [self.config.gamma if g is None else g for g in gams]
        for name, values in (("max_new_tokens", mnts), ("gamma", gams)):
            if n and min(values) <= 0:
                raise DecodingError(f"{name} must be positive, got {min(values)}")

        outcomes: List[Union[DecodeSession, Exception]] = [None] * n  # type: ignore[list-item]
        with no_grad(), self.tracer.span("prefill") as sp:
            sp.set_attr("batch", n)
            live: List[Tuple[int, np.ndarray]] = []   # (index, prompt ids)
            for i, sample in enumerate(samples):
                try:
                    live.append((i, encode_prompt(self.tokenizer, sample)))
                except Exception as exc:
                    log_exception(logger, "prefill_fault", exc, request_id=rids[i])
                    outcomes[i] = exc
            prefilled, calls = self._prefill_isolated(
                [samples[i].image for i, _ in live], [ids for _, ids in live]
            ) if live else ([], [])
            for (i, prompt_ids), result in zip(live, prefilled):
                if isinstance(result, Exception):
                    outcomes[i] = result
                else:
                    outcomes[i] = self._open_session(
                        samples[i], recs[i], prompt_ids, gams[i], mnts[i], rids[i],
                        *result, sp,
                    )
            if clock is not None:
                n_vis, phase = self.target.n_vision_tokens, self.head.prefill_phase
                for ran, done in calls:
                    ms = self.cost_model.price("prefill", [n_vis + len(live[j][1]) for j in ran])
                    opened = sum(isinstance(outcomes[live[j][0]], DecodeSession) for j in done)
                    if phase is not None and opened:
                        ms += self.cost_model.price(phase, [1] * opened)
                    clock.charge(ms, "prefill")
        return outcomes

    def step(
        self,
        session: DecodeSession,
        *,
        budget_ms: Optional[float] = None,
        force_fallback: bool = False,
    ) -> StepReport:
        """Advance one block: :meth:`step_batch` over a batch of one.

        Returns the session's :class:`StepReport`, or raises what its
        step raised (and :class:`~repro.errors.DecodingError` if the
        session already finished).
        """
        (outcome,) = self.step_batch(
            [session], budgets_ms=[budget_ms], force_fallback=force_fallback
        )
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def step_batch(
        self,
        sessions: Sequence[DecodeSession],
        *,
        budgets_ms: Optional[Sequence[Optional[float]]] = None,
        force_fallback: bool = False,
        clock: Optional[SimulatedClock] = None,
    ) -> List[Union[StepReport, Exception]]:
        """Advance B sessions one block each: the one draft / verify / commit round.

        Every decode step of the system is this method; a solo step is
        its one-row case, which runs the solo GEMM shapes.  Sessions are
        mutated in place (committed tokens, caches, fault state, record
        charges).  Returns one entry per session, in input order: its
        :class:`StepReport` — or the exception that session's step
        raised, which fails that session alone.  (A failure of the shared
        verify forward is nobody's in particular and propagates, as does
        :class:`~repro.errors.DecodingError` for a finished session.)

        Pricing: every model call is priced once, by
        :meth:`~repro.decoding.cost_model.CostModel.price`, where it
        runs.  Each session's record is charged the one-row price of the
        calls made for it; a server ``clock`` is charged each call's price
        over all its rows — one ``draft`` charge per ``step_packed`` call,
        one ``verify`` charge per ``decode_batch`` call, then one of the
        round's summed absorbs, and per fallback ``decode`` call one
        ``fallback`` step charge and its absorb.

        The round has one shape:

        1. **Fallback lane** — sessions no longer speculating, and every
           session under ``force_fallback``, take one plain target step
           (one ``decode`` call each).
           ``force_fallback`` drafts nothing but still maintains the
           draft context — the circuit breaker uses it to flip a batch
           target-only temporarily, so speculation can resume the moment
           it re-closes.
        2. **Draft lane**, one ``draft`` span — every session's block is
           a :class:`~repro.decoding.tree.DraftWalk` (a gamma-chain, or
           under :attr:`tree_ready` a candidate tree; the chain is the
           width-1 tree), and the walks grow in lockstep: one
           ``step_packed`` call per expansion index (for the AASD head
           one ``(B, 1, D)`` kernel set), each row attending its node's
           root path, rows dropping out as their walk completes or a
           fault ends their block (:meth:`_draft`).  Each draft forward
           is charged to its session's record, solo-priced, before it
           runs.  A draft fault
           — NaN/Inf logits, a draft-state invariant violation, an exception in
           a row's slot of ``step_packed``'s result, or one raised by the
           head (which faults every row active at that expansion) — ends
           that session's block by the one rule of :meth:`_draft_fault`.
        3. **Deadline expiry** — ``budgets_ms[i]`` is session ``i``'s
           remaining deadline budget on the server clock: when its draft
           phase alone charged more, the block is dropped before the
           verify forward and the report is ``kind="expired"`` — the
           session keeps its partial generation but stops consuming
           verify compute for tokens a dead request could never use.  The
           check prices the draft solo, a documented approximation of its
           share of the batched draft calls the server clock is charged
           (budgets are checked against that clock at round boundaries).
        4. **Nothing drafted** (a fault emptied the block) — one plain
           target step, as in lane 1.
        5. **Verify lane**, one ``verify`` span — one cu-seqlen-packed
           target forward (:meth:`MiniLlava.decode_batch`) over every
           drafted block, then per session the accept rule, cache commit,
           context maintenance and token commit (:meth:`_verify_block`).

        Chain and tree differ in exactly two places: the walk's width (2)
        and how the verify forward's rows reach the target cache (5); the
        child rule and the accept rule are the same
        (``repro.decoding.tree``).
        Tokens are identical, request by request, at any batch width and
        in any batch order, greedy or sampled.
        """
        n = len(sessions)
        budgets = list(budgets_ms) if budgets_ms is not None else [None] * n
        if len(budgets) != n:
            raise DecodingError("step_batch budgets_ms must parallel sessions")
        for session in sessions:
            if session.finished:
                raise DecodingError("cannot step a finished session")
        tree = self.tree_ready
        outcomes: List[Union[StepReport, Exception, None]] = [None] * n
        # The states and reports are built *inside* the phase spans so
        # sibling spans keep tiling the decode loop with microsecond gaps
        # (the per-phase wall-time invariant, docs/observability.md).
        with no_grad():
            drafting = []
            for i, session in enumerate(sessions):
                if session.speculating and not force_fallback:
                    drafting.append(i)
                else:
                    outcomes[i] = self._fallback_step(session, clock, forced=force_fallback)
            if not drafting:
                return outcomes  # type: ignore[return-value]

            with self.tracer.span("draft") as sp:
                states = [self._open_block(i, sessions[i], tree) for i in drafting]
                sp.set_attr("batch", len(states))
                sp.set_attr("gamma", max(st.session.gamma for st in states))
                self._draft(states, sp, clock)
                for st in states:
                    if not st.faulted:
                        try:
                            self.head.check(st.session.draft_state)
                        except Exception as exc:
                            log_exception(logger, "draft_fault", exc,
                                          request_id=st.session.request_id,
                                          position=st.pos)
                            self._draft_fault(st, exc, sp)
                    if st.failure is not None:
                        outcomes[st.slot] = st.failure
                    elif (budgets[st.slot] is not None and st.drafted
                          and st.draft_ms > budgets[st.slot]):
                        # Mid-round deadline: skip the verify forward and
                        # drop the (uncommitted) speculated block.  The
                        # scheduler retires the session as timed out
                        # without another round.
                        sp.set_attr("expired", True)
                        self.head.rollback(st.session.draft_state)
                        outcomes[st.slot] = StepReport(
                            kind="expired", n_draft_forwards=st.n_forwards)
                sp.set_attr("n_draft", sum(len(st.drafted) for st in states))

            for st in states:
                if outcomes[st.slot] is None and not st.drafted:
                    outcomes[st.slot] = self._fallback_step(
                        st.session, clock, n_draft_forwards=st.n_forwards)

            verifying = [st for st in states if outcomes[st.slot] is None]
            if verifying:
                with self.tracer.span("verify") as sp:
                    sp.set_attr("batch", len(verifying))
                    sp.set_attr("n_draft", sum(len(st.drafted) for st in verifying))
                    caches = [st.session.target_cache for st in verifying]
                    verify_starts = [cache.seq_len for cache in caches]
                    feeds = [np.asarray([st.last, *st.drafted], dtype=np.int64)
                             for st in verifying]
                    if clock is not None:
                        clock.charge(self.cost_model.price("verify", [len(f) for f in feeds]),
                                     "verify")
                    # Chain rows are written to the cache and truncated to
                    # the accepted prefix; tree rows carry per-branch
                    # positions and ancestor masks and are never written
                    # — the accepted root path is gathered in afterwards.
                    outs = self.target.decode_batch(
                        feeds,
                        caches,
                        update_cache=not tree,
                        position_rows=[
                            st.walk.draft.feed_positions(st.last_pos) for st in verifying
                        ] if tree else None,
                        extra_blocked_rows=[
                            tree_extra_blocked(st.walk.draft.parents, start)
                            for st, start in zip(verifying, verify_starts)
                        ] if tree else None,
                    )
                    n_accepted = 0
                    for st, out, start in zip(verifying, outs, verify_starts):
                        try:
                            report = outcomes[st.slot] = self._verify_block(
                                st, out, start, sp, tree)
                            n_accepted += report.n_accepted
                        except Exception as exc:  # isolate the fault to this session
                            log_exception(logger, "step_fault", exc,
                                          request_id=st.session.request_id)
                            outcomes[st.slot] = exc
                    if clock is not None:
                        clock.charge(sum(st.absorb_ms for st in verifying), "verify")
                    sp.set_attr("n_accepted", n_accepted)
        return outcomes  # type: ignore[return-value]

    def _fallback_step(self, session: DecodeSession, clock: Optional[SimulatedClock], *,
                       forced: bool = False,
                       n_draft_forwards: int = 0) -> Union[StepReport, Exception]:
        """One plain autoregressive target step under a ``fallback`` span.

        While the session still speculates (a forced step, or a block
        whose draft came up empty) the drafter absorbs the forward, so
        its state is in sync for the next block.  The ``decode`` call is
        a one-row ``step``: the record and a server ``clock`` are charged
        its price and the absorb's.  What the step raises is the
        session's outcome, not its batch-mates'.
        """
        try:
            with self.tracer.span("fallback") as sp:
                if forced:
                    sp.set_attr("forced", True)
                record = session.record
                committed = session.committed
                last = committed[-1]
                step_ms = self.cost_model.target_step()
                if clock is not None:
                    clock.charge(step_ms, "fallback")
                out = self.target.decode(
                    np.asarray([[last]], dtype=np.int64), session.target_cache
                )
                sp.add_sim_ms(record.charge_sim(step_ms, "fallback"))
                record.count_target_forward()
                record.count_fallback_step()
                token = self.sampler.sample(out.logits.data[0, -1], rng=session.rng)
                if session.speculating:
                    absorb_ms = self._absorb(
                        session, out, (last,),
                        session.gen_base + len(committed) - 1, "fallback", sp,
                    )
                    if clock is not None:
                        clock.charge(absorb_ms, "fallback")
                committed.append(token)
                return StepReport(kind="fallback", n_draft_forwards=n_draft_forwards)
        except Exception as exc:  # isolate the fault to this session
            log_exception(logger, "step_fault", exc, request_id=session.request_id)
            return exc

    def _open_block(self, slot: int, session: DecodeSession,
                    tree: bool) -> _PackedDraftState:
        """Anchor a new block at the session's last committed token."""
        cfg = self.config
        last, gamma = session.committed[-1], session.gamma
        walk = DraftWalk(
            last, gamma, max_branch=cfg.tree_max_branch if tree else 1,
            max_nodes=cfg.tree_max_nodes if tree else gamma,
            entropy_scale=cfg.tree_entropy_scale,
            config=self.sampler.config, rng=session.rng,
        )
        return _PackedDraftState(
            slot=slot, session=session, last=last,
            last_pos=session.gen_base + len(session.committed) - 1,
            open_len=session.draft_state.seq_len, walk=walk,
        )

    def _draft(self, states: Sequence[_PackedDraftState], sp,
               clock: Optional[SimulatedClock]) -> None:
        """Grow every session's block in lockstep, one expansion index at a time.

        At expansion ``e`` each unfaulted session whose walk has a pending
        node is charged that forward, solo-priced, and all of them share
        **one** ``step_packed`` call, each row attending its node's root
        path, which a server ``clock`` is charged at the drafter's
        ``step_phase`` over those rows.  Each walk keeps its own DFS
        order, so a session drafts the block it would draft alone
        (:meth:`AASDDraftHead.draft_tree`).
        """
        for expansion in count():
            active = [st for st in states if not st.faulted and st.walk.pending is not None]
            if not active:
                return
            nodes = [st.walk.pending for st in active]
            kv_lens = [st.open_len + len(ancestors) + 1 for st, (_, _, ancestors)
                       in zip(active, nodes)]
            for st, (_, depth, _), kv_len in zip(active, nodes, kv_lens):
                st.pos = st.last_pos + depth
                self._charge_draft_forward(st, sp, kv_len)
            if clock is not None:
                clock.charge(self.cost_model.price(
                    self.head.step_phase, [1] * len(active), kv_lens), "draft")
            try:
                logit_rows = self.head.step_packed(
                    [token for token, _, _ in nodes],
                    [st.pos for st in active],
                    [st.session.draft_state for st in active],
                    request_ids=[st.session.request_id for st in active],
                    ancestor_rows=[ancestors for _, _, ancestors in nodes],
                )
            except Exception as exc:  # faults every active row
                log_exception(logger, "draft_fault", exc,
                              batch=len(active), expansion=expansion)
                logit_rows = [exc] * len(active)
            for st, logits in zip(active, logit_rows):
                if isinstance(logits, Exception):   # logged where it was caught
                    self._draft_fault(st, logits, sp)
                    continue
                try:
                    st.walk.expand(ensure_finite(logits, "draft logits"))
                except Exception as exc:
                    log_exception(logger, "draft_fault", exc,
                                  request_id=st.session.request_id, position=st.pos)
                    self._draft_fault(st, exc, sp)

    def _verify_block(self, state: _PackedDraftState, out, verify_start: int,
                      sp, tree: bool) -> StepReport:
        """Accept rule + commit for one session's slice of the verify forward.

        The one acceptance rule (:func:`repro.decoding.tree.speculative_verify`)
        walks the block, chain or tree, greedy or sampled.  Committing
        then forks on the feed: a chain's rows were written to the target
        cache and the rejected ones are truncated off; a tree's forward
        ran with ``update_cache=False``, so committing means *gathering*
        the accepted rows' fresh KV (anchor + root path) into the target
        cache — rejected branches were never written and rollback costs
        nothing.
        """
        session = state.session
        record = session.record
        draft = state.walk.draft
        n_draft = draft.n_nodes
        sp.add_sim_ms(record.charge_sim(self.cost_model.price("verify", (n_draft + 1,)), "verify"))
        record.count_target_forward()
        outcome = speculative_verify(
            draft, state.walk.probs, out.logits.data[0], self.sampler.config, session.rng,
        )
        rows = None
        if not tree:
            session.target_cache.truncate(verify_start + 1 + outcome.n_accepted)
        else:
            rows = np.asarray([0] + [i + 1 for i in outcome.path], dtype=np.int64)
            for layer_idx, (k_new, v_new) in enumerate(out.new_kv):
                session.target_cache.append(
                    layer_idx, k_new.data[:, :, rows, :], v_new.data[:, :, rows, :]
                )
            session.target_cache.extend_positions(
                state.last_pos + np.arange(len(rows), dtype=np.int64)
            )
        record.add_block(
            BlockRecord(
                n_draft=n_draft,
                n_accepted=outcome.n_accepted,
                n_emitted=outcome.tokens_emitted,
            )
        )
        state.absorb_ms = self._absorb(
            session, out, (state.last, *outcome.accepted), state.last_pos,
            "verify", sp, rows=rows,
        )
        session.commit(outcome.accepted, outcome.next_token)
        return StepReport(kind="verify", n_draft_forwards=state.n_forwards,
                          n_accepted=outcome.n_accepted)

    def finish(self, session: DecodeSession) -> DecodeRecord:
        """Finalize a session: detokenize and return its record.

        Safe to call on an unfinished session (a timed-out request keeps
        the tokens committed so far).
        """
        record = session.record
        record.token_ids = list(session.committed)
        record.text = self.tokenizer.decode(record.token_ids)
        return record

    # ------------------------------------------------------------------
    def decode(self, sample: MultimodalSample) -> DecodeRecord:
        """Run one full generation sequentially (the paper's setting)."""
        tracer = self.tracer
        record = DecodeRecord()

        with WallTimer() as timer, no_grad(), tracer.span(
            "decode", decoder=self.name
        ) as root:
            session = self.begin(sample, record=record)
            record.ttft_wall_s = timer.split()   # begin() committed token 1
            root.set_attr("n_prompt_tokens", len(session.prompt_ids))
            # Inline the finished-check (rather than session.finished) to
            # keep the per-block gap between phase spans small.
            committed, eos, budget = session.committed, session.eos, session.max_new_tokens
            while committed[-1] != eos and len(committed) < budget:
                self.step(session)
            root.set_attr("n_tokens", len(session.committed))
            root.set_attr("n_draft_faults", record.n_draft_faults)
            root.set_attr("fallback_mode", record.fallback_mode)
            memory = session.memory_stats()
            root.set_attr("bytes_copied", memory.bytes_copied)
            root.set_attr("arena_grows", memory.grow_events)
            root.set_attr("peak_cache_tokens", memory.peak_tokens)
            root.add_sim_ms(record.sim_time_ms)

        self.finish(session)
        record.wall_time_s = timer.elapsed
        return record
