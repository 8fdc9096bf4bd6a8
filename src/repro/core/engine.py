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

Sessions: the loop is factored into a resumable per-request state object
(:class:`DecodeSession`) advanced one block at a time by
:meth:`AASDEngine.step`.  :meth:`AASDEngine.decode` is the single-request
loop written on top; the continuous-batching scheduler in
:mod:`repro.serving` interleaves many sessions over one engine, joining new
requests at block boundaries and retiring finished ones without stalling
the rest.  Because *all* mutable decode state (target cache, hybrid cache,
committed tokens, fault status, gamma controller, random stream) lives on
the session, sessions are independent: a fault in one degrades that
request alone, and what one samples never depends on its batch-mates.

Fault tolerance: speculative decoding is lossless-with-fallback by
construction — the target model alone can always finish a generation — so
a broken drafter must only ever cost speed, never availability.  Every
draft block is guarded against NaN/Inf logits, hybrid-cache invariant
violations, and arbitrary draft-head exceptions.  On a fault the engine
skips the block (verifying any clean prefix it already drafted, else
taking one plain target step) and, after ``max_draft_faults`` faults,
disables the speculating module and decodes the rest autoregressively.
Faults are counted on the returned :class:`DecodeRecord` so benchmarks can
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

from dataclasses import dataclass, field
from itertools import count
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..data.tasks import MultimodalSample
from ..decoding.base import Decoder, encode_prompt
from ..decoding.cost_model import CostModel
from ..decoding.metrics import BlockRecord, DecodeRecord
from ..decoding.sampling import Sampler, SamplerConfig, logits_to_probs, speculative_verify
from ..decoding.tree import TreeDraft, accept_tree, tree_extra_blocked
from ..errors import DecodingError
from ..models.llava import MiniLlava
from ..nn.tensor import no_grad
from ..obs.logsetup import get_logger, log_exception
from ..obs.tracing import NULL_SPAN, Tracer, get_tracer
from ..robustness.guards import check_hybrid_cache, ensure_finite
from ..tokenizer import WordTokenizer
from ..decoding.adaptive import FixedGamma, GammaController
from ..utils.rng import derive
from ..utils.timing import WallTimer
from .draft_head import AASDDraftHead
from .hybrid_cache import SEGMENT_TEXT, HybridKVCache
from .kv_arena import ArenaStats, combined_stats

__all__ = ["AASDEngineConfig", "AASDEngine", "DecodeSession", "StepReport"]

logger = get_logger(__name__)

FALLBACK_NONE = "none"
FALLBACK_DEGRADED = "degraded"
FALLBACK_TARGET_ONLY = "target-only"


@dataclass(frozen=True)
class AASDEngineConfig:
    """Runtime knobs of the engine (ablation switches included)."""

    gamma: int = 3
    max_new_tokens: int = 64
    disable_image_kv: bool = False   # Figure 4 ablation
    disable_text_kv: bool = False    # Figure 4 ablation
    fallback_on_fault: bool = True   # degrade instead of raising on draft faults
    max_draft_faults: int = 3        # after this many faults, go target-only
    guard_cache: bool = True         # validate hybrid-cache invariants per block
    # Tree speculation (repro.decoding.tree): draft a candidate *tree*
    # instead of a gamma-chain and verify every branch in one target
    # forward.  Greedy-only; with max_branch=1 the tree degenerates to
    # the chain and the engine's output is bitwise identical to the
    # linear speculative path.
    tree_speculation: bool = False   # route steps through the tree path
    tree_max_branch: int = 2         # top-k branching cap per draft step
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

    Created by :meth:`AASDEngine.begin` (which runs the prefill) and
    advanced one draft-then-verify block per :meth:`AASDEngine.step` call.
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
    gamma_controller: GammaController   #: per-session speculation depth policy
    target_cache: object                #: the target model's KV cache
    hybrid: HybridKVCache               #: the speculating module's hybrid cache
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

    @property
    def n_committed(self) -> int:
        """Tokens emitted so far."""
        return len(self.committed)

    def commit(self, accepted: Sequence[int], next_token: int) -> None:
        """Emit a verified block, cut at eos or the token budget, whichever is first."""
        committed = self.committed
        committed.extend(accepted)
        committed.append(next_token)
        cut = self.max_new_tokens
        if self.eos in committed:
            cut = min(cut, committed.index(self.eos) + 1)
        del committed[cut:]

    def memory_stats(self) -> ArenaStats:
        """Arena copy/growth accounting over this session's two caches.

        Tolerates non-arena (reference) cache implementations, which
        simply contribute nothing.
        """
        return combined_stats(self.target_cache, self.hybrid)


@dataclass
class _PackedDraftState:
    """Per-session scratch state of one packed draft/verify round.

    Mirrors the locals of the solo :meth:`AASDEngine.step` draft phase so
    the packed round can replicate its bookkeeping (charges, fault
    handling, budget expiry) session by session.
    """

    session: DecodeSession
    last: int                       #: last committed token (verify anchor)
    last_pos: int                   #: absolute position of ``last``
    gamma: int                      #: depth the controller granted this round
    token: int                      #: token fed to the next draft step
    pos: int                        #: position of ``token``
    tokens: List[int] = field(default_factory=list)       #: drafted tokens
    probs: List[np.ndarray] = field(default_factory=list)  #: draft distributions
    kv_lens: List[int] = field(default_factory=list)      #: hybrid KV len per step
    draft_ms: float = 0.0           #: solo-priced draft charge (budget check)
    faulted: bool = False           #: a draft fault truncated this block


@dataclass(frozen=True)
class StepReport:
    """What one :meth:`AASDEngine.step` call did, for batched cost grouping.

    The serving scheduler uses the step composition — how many tokens the
    target forward fed and the hybrid-KV length of every draft-head step —
    to charge the *batched* cost of a round to the server clock, while the
    session's own :class:`DecodeRecord` keeps solo-priced attribution.
    """

    kind: str                           #: ``"verify"``, ``"fallback"``, or ``"expired"``
    feed_size: int                      #: tokens fed to the target forward
    draft_kv_lens: Tuple[int, ...]      #: hybrid KV length per draft-head step
    n_accepted: int = 0                 #: draft tokens accepted (verify only)
    tree: bool = False                  #: the step took the tree-speculation path


class AASDEngine(Decoder):
    """Speculative decoding with the KV-reusing speculating module."""

    def __init__(
        self,
        target: MiniLlava,
        head: AASDDraftHead,
        tokenizer: WordTokenizer,
        cost_model: CostModel,
        config: Optional[AASDEngineConfig] = None,
        sampler_config: Optional[SamplerConfig] = None,
        rng: Optional[np.random.Generator] = None,
        gamma_controller: Optional[GammaController] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.target = target
        self.head = head
        self.tokenizer = tokenizer
        self.cost_model = cost_model
        self.config = config or AASDEngineConfig()
        self.gamma_controller = gamma_controller or FixedGamma(self.config.gamma)
        sampler_config = sampler_config or SamplerConfig()
        self.sampler = Sampler(sampler_config, rng=rng)
        # Root of the per-request streams: the sampler seed, or one key
        # drawn here from an injected generator (never touched again).
        self._stream_seed = (
            sampler_config.seed if rng is None else int(rng.integers(1 << 62))
        )
        self._admissions = count()   # stream identity of requests without an id
        self._tracer = tracer
        if head.config.n_vision_tokens != target.n_vision_tokens and head.config.use_target_kv:
            raise DecodingError(
                f"draft head expects {head.config.n_vision_tokens} vision tokens, "
                f"target produces {target.n_vision_tokens}"
            )

    @property
    def name(self) -> str:
        """Table label of this decoder."""
        return "ours"

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

    def _target_step(self, session: DecodeSession, last: int, span=NULL_SPAN):
        """One plain autoregressive target step (the fallback primitive).

        Returns ``(next_token, decode_output)`` so callers can reuse the
        forward's last-layer KV for draft-context maintenance.
        """
        record = session.record
        out = self.target.decode(np.asarray([[last]], dtype=np.int64), session.target_cache)
        span.add_sim_ms(record.charge_sim(self.cost_model.target_step(), "fallback"))
        record.count_target_forward()
        record.count_fallback_step()
        return self.sampler.sample(out.logits.data[0, -1], rng=session.rng), out

    def _build_context(self, target_cache, hybrid: HybridKVCache, prompt_ids, n_vis: int,
                       record: DecodeRecord) -> float:
        """Build the draft context; returns the simulated ms charged."""
        charged = 0.0
        if self.head.config.use_target_kv:
            self.head.build_context(target_cache, hybrid)
            if self.head.projector is not None:
                charged += record.charge_sim(self.cost_model.projector(), "prefill")
        else:
            # Figure 3 ablation: the head encodes the prompt itself.
            positions = n_vis + np.arange(len(prompt_ids), dtype=np.int64)
            k_own, v_own = self.head.self_encode(prompt_ids, positions)
            hybrid.append_context(k_own, v_own, positions, SEGMENT_TEXT)
            charged += record.charge_sim(self.cost_model.draft_prefill(), "prefill")
        if self.config.guard_cache:
            check_hybrid_cache(hybrid)
        return charged

    def _append_committed_kv(self, out, last: int, accepted, keep: int, last_pos: int,
                             hybrid: HybridKVCache, record: DecodeRecord,
                             category: str, rows: Optional[np.ndarray] = None) -> None:
        """Context maintenance after a verify (or fallback) target forward.

        ``rows`` selects which fed rows were accepted when the feed was a
        candidate tree (acceptance is a root path, not a prefix, so the
        kept rows need not be contiguous); ``None`` keeps the linear
        behavior of taking the first ``keep`` rows.
        """
        positions = last_pos + np.arange(keep, dtype=np.int64)
        if self.head.config.use_target_kv:
            # Free by-product of verification: last-layer KV of the fed
            # tokens, trimmed to the accepted prefix (or gathered along
            # the accepted root path).
            k_new, v_new = out.last_layer_kv
            if rows is None:
                k_keep = k_new.data[:, :, :keep, :]
                v_keep = v_new.data[:, :, :keep, :]
            else:
                k_keep = k_new.data[:, :, rows, :]
                v_keep = v_new.data[:, :, rows, :]
            hybrid.append_context(k_keep, v_keep, positions, SEGMENT_TEXT)
        else:
            emitted = np.asarray([last] + list(accepted), dtype=np.int64)
            k_own, v_own = self.head.self_encode(emitted, positions)
            hybrid.append_context(k_own, v_own, positions, SEGMENT_TEXT)
            record.charge_sim(self.cost_model.draft_sync(keep), category)

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

    # ------------------------------------------------------------------
    # Session API: begin / step / finish.  decode() is the sequential loop
    # on top; repro.serving interleaves many sessions per engine.
    # ------------------------------------------------------------------
    def begin(
        self,
        sample: MultimodalSample,
        *,
        record: Optional[DecodeRecord] = None,
        max_new_tokens: Optional[int] = None,
        gamma_controller: Optional[GammaController] = None,
        request_id: Optional[str] = None,
    ) -> DecodeSession:
        """Prefill one request and return its resumable :class:`DecodeSession`.

        ``max_new_tokens`` overrides the engine config per request;
        ``gamma_controller`` supplies a per-session depth policy (pass a
        fresh controller per session when interleaving — the engine's
        shared controller is only reset here when it is the one used).
        The prefill is traced as a ``prefill`` span and charged to
        ``record`` exactly as in :meth:`decode`.
        """
        cfg = self.config
        tracer = self.tracer
        with no_grad(), tracer.span("prefill") as sp:
            if record is None:
                record = DecodeRecord()
            if request_id is not None:
                record.request_id = request_id
            prompt_ids = encode_prompt(self.tokenizer, sample)
            n_vis = self.target.n_vision_tokens
            controller = gamma_controller
            if controller is None:
                controller = self.gamma_controller
            speculating = True

            target_cache, last_logits = self.target.prefill(
                sample.image[None], prompt_ids[None]
            )
            sp.add_sim_ms(record.charge_sim(self.cost_model.target_prefill(), "prefill"))
            record.count_target_forward()

            hybrid = HybridKVCache(self.head.config.n_heads, self.head.config.head_dim)
            session = DecodeSession(
                sample=sample,
                record=record,
                prompt_ids=prompt_ids,
                eos=self.tokenizer.vocab.eos_id,
                gen_base=n_vis + len(prompt_ids),
                max_new_tokens=max_new_tokens or cfg.max_new_tokens,
                gamma_controller=controller,
                target_cache=target_cache,
                hybrid=hybrid,
                request_id=request_id,
                rng=self._request_stream(request_id),
            )
            try:
                sp.add_sim_ms(
                    self._build_context(target_cache, hybrid, prompt_ids, n_vis, record)
                )
            except Exception as exc:  # any head fault degrades, never aborts
                if not cfg.fallback_on_fault:
                    raise
                log_exception(logger, "context_build_fault", exc,
                              request_id=request_id)
                record.note_fault(f"context build failed: {exc}")
                self._disable_speculation(session, "context build failed")
                sp.set_attr("fault", str(exc))
                speculating = False
            session.speculating = speculating

            session.committed.append(self.sampler.sample(last_logits[0], rng=session.rng))
            controller.reset()
        return session

    # ------------------------------------------------------------------
    # Packed batched rounds (docs/kernels.md).  A batch of B sessions
    # runs its prefill / draft / verify phases as fused kernels — one set
    # of GEMMs over a cu-seqlen-packed tensor (prefill/verify) or a
    # (B, 1, D) lockstep tensor (draft) — instead of B per-session Python
    # loops, while every per-session side effect (record charges, fault
    # handling, controller updates, cache maintenance) replicates the
    # solo path exactly.  Outputs are bitwise token-identical to
    # per-session stepping, greedy or sampled (each request draws from its
    # own stream); that identity is what licenses the fusion.
    # ------------------------------------------------------------------
    @property
    def packed_ready(self) -> bool:
        """Whether batched calls may take the packed fused path.

        The one condition is a draft head that advertises
        ``supports_packed`` (fault-injection wrappers intercept
        per-session ``step`` calls and opt out).  Sampling does not
        matter: every request draws from its own stream
        (:meth:`_request_stream`) and the packed kernels reproduce the
        solo logits bitwise, so a packed round emits, request by request,
        exactly the tokens of sequential stepping — greedy or sampled.
        """
        return bool(getattr(self.head, "supports_packed", False))

    @property
    def tree_ready(self) -> bool:
        """Whether steps may take the tree-speculation path.

        Requires the config switch, a head that advertises
        ``supports_tree`` (fault-injection wrappers intercept per-request
        ``step`` calls and opt out, keeping the linear path where
        interception works), and greedy sampling — tree acceptance is
        defined for greedy configs only (:func:`repro.decoding.tree.accept_tree`).
        """
        return (
            self.config.tree_speculation
            and bool(getattr(self.head, "supports_tree", False))
            and bool(self.sampler.config.greedy)
        )

    def begin_batch(
        self,
        samples: Sequence[MultimodalSample],
        *,
        records: Optional[Sequence[Optional[DecodeRecord]]] = None,
        max_new_tokens: Optional[Sequence[Optional[int]]] = None,
        gamma_controllers: Optional[Sequence[Optional[GammaController]]] = None,
        request_ids: Optional[Sequence[Optional[str]]] = None,
    ) -> List[Union[DecodeSession, Exception]]:
        """Prefill B requests as one packed forward; per-request outcomes.

        The per-request option sequences parallel ``samples`` (``None``
        entries take the :meth:`begin` defaults).  Returns one entry per
        request *in order*: the started :class:`DecodeSession`, or the
        exception that request's prefill raised (failures are isolated —
        one bad sample never aborts its batchmates, mirroring the
        scheduler's per-request fault handling around solo ``begin``).

        When the engine is not :attr:`packed_ready` (or B == 1) each
        request simply runs solo :meth:`begin`.  On the packed path the
        image batch is encoded in one vision call and the LM prefill runs
        cu-seqlen-packed (:meth:`MiniLlava.prefill_batch`), bitwise
        token-identical to B solo prefills; records are charged and the
        draft context built per session exactly as in :meth:`begin`.
        """
        n = len(samples)
        recs = list(records) if records is not None else [None] * n
        mnts = list(max_new_tokens) if max_new_tokens is not None else [None] * n
        ctrls = list(gamma_controllers) if gamma_controllers is not None else [None] * n
        rids = list(request_ids) if request_ids is not None else [None] * n
        if not (len(recs) == len(mnts) == len(ctrls) == len(rids) == n):
            raise DecodingError("begin_batch per-request sequences must parallel samples")

        outcomes: List[Union[DecodeSession, Exception]] = [None] * n  # type: ignore[list-item]
        if n == 1 or not self.packed_ready:
            for i in range(n):
                try:
                    outcomes[i] = self.begin(
                        samples[i],
                        record=recs[i],
                        max_new_tokens=mnts[i],
                        gamma_controller=ctrls[i],
                        request_id=rids[i],
                    )
                except Exception as exc:
                    log_exception(logger, "prefill_fault", exc, request_id=rids[i])
                    outcomes[i] = exc
            return outcomes

        cfg = self.config
        n_vis = self.target.n_vision_tokens
        with no_grad(), self.tracer.span("prefill") as sp:
            sp.set_attr("batch", n)
            prepped: List[Tuple[int, DecodeRecord, np.ndarray, GammaController]] = []
            for i in range(n):
                try:
                    record = recs[i] if recs[i] is not None else DecodeRecord()
                    if rids[i] is not None:
                        record.request_id = rids[i]
                    prompt_ids = encode_prompt(self.tokenizer, samples[i])
                    controller = ctrls[i] if ctrls[i] is not None else self.gamma_controller
                    prepped.append((i, record, prompt_ids, controller))
                except Exception as exc:
                    log_exception(logger, "prefill_fault", exc, request_id=rids[i])
                    outcomes[i] = exc
            caches: List[object] = []
            logit_rows: List[np.ndarray] = []
            if prepped:
                try:
                    caches, logit_rows = self.target.prefill_batch(
                        [samples[i].image for i, *_ in prepped],
                        [p for _, _, p, _ in prepped],
                    )
                except Exception as exc:
                    # A batch-wide failure (e.g. one malformed image makes
                    # the image stack ragged) must not take down the whole
                    # admission: redo each request as a solo prefill so
                    # only the requests that genuinely fault are failed.
                    log_exception(logger, "prefill_fault", exc, batch=len(prepped))
                    survivors: List[Tuple[int, DecodeRecord, np.ndarray, GammaController]] = []
                    for entry in prepped:
                        i, _, prompt_ids, _ = entry
                        try:
                            cache, last = self.target.prefill(
                                samples[i].image[None], prompt_ids[None]
                            )
                        except Exception as solo_exc:
                            log_exception(logger, "prefill_fault", solo_exc,
                                          request_id=rids[i])
                            outcomes[i] = solo_exc
                            continue
                        survivors.append(entry)
                        caches.append(cache)
                        logit_rows.append(last)
                    prepped = survivors
            for (i, record, prompt_ids, controller), cache, last_logits in zip(
                prepped, caches, logit_rows
            ):
                sp.add_sim_ms(
                    record.charge_sim(self.cost_model.target_prefill(), "prefill")
                )
                record.count_target_forward()
                hybrid = HybridKVCache(self.head.config.n_heads, self.head.config.head_dim)
                session = DecodeSession(
                    sample=samples[i],
                    record=record,
                    prompt_ids=prompt_ids,
                    eos=self.tokenizer.vocab.eos_id,
                    gen_base=n_vis + len(prompt_ids),
                    max_new_tokens=mnts[i] or cfg.max_new_tokens,
                    gamma_controller=controller,
                    target_cache=cache,
                    hybrid=hybrid,
                    request_id=rids[i],
                    rng=self._request_stream(rids[i]),
                )
                speculating = True
                try:
                    sp.add_sim_ms(
                        self._build_context(cache, hybrid, prompt_ids, n_vis, record)
                    )
                except Exception as exc:  # any head fault degrades, never aborts
                    if not cfg.fallback_on_fault:
                        raise
                    log_exception(logger, "context_build_fault", exc, request_id=rids[i])
                    record.note_fault(f"context build failed: {exc}")
                    self._disable_speculation(session, "context build failed")
                    sp.set_attr("fault", str(exc))
                    speculating = False
                session.speculating = speculating
                session.committed.append(
                    self.sampler.sample(last_logits[0], rng=session.rng)
                )
                controller.reset()
                outcomes[i] = session
        return outcomes

    def step(
        self,
        session: DecodeSession,
        *,
        budget_ms: Optional[float] = None,
        force_fallback: bool = False,
    ) -> StepReport:
        """Advance one block: draft-then-verify, or one fallback target step.

        Mutates ``session`` in place (committed tokens, caches, fault
        state, record charges) and returns a :class:`StepReport`
        describing the step's composition so batched schedulers can price
        the round.  Raises :class:`~repro.errors.DecodingError` if the
        session already finished.

        ``budget_ms`` is the session's remaining deadline budget on the
        server clock: when the draft phase alone already charges more
        than the budget, the speculated block is dropped before the
        verify forward and the step returns ``kind="expired"`` — the
        session keeps its partial generation but stops consuming verify
        compute for tokens a dead request could never use.  The check
        prices the draft solo, a documented approximation of its batched
        share (always within one phase of the scheduler's own
        round-boundary accounting).

        ``force_fallback`` takes one plain target step *without*
        consulting or advancing the gamma controller, while still doing
        draft-context maintenance — the circuit breaker uses it to flip a
        batch to target-only decoding temporarily, so speculation can
        resume the moment the breaker re-closes.
        """
        if session.finished:
            raise DecodingError("cannot step a finished session")
        tracer = self.tracer

        # Local setup and the returned StepReport are built *inside* the
        # phase spans so sibling spans keep tiling the decode loop with
        # sub-microsecond gaps (the per-phase wall-time invariant).
        with no_grad():
            if not session.speculating:
                with tracer.span("fallback") as sp:
                    committed = session.committed
                    token, _ = self._target_step(session, committed[-1], sp)
                    committed.append(token)
                    report = StepReport(kind="fallback", feed_size=1, draft_kv_lens=())
                return report

            if force_fallback:
                with tracer.span("fallback") as sp:
                    sp.set_attr("forced", True)
                    cfg = self.config
                    record = session.record
                    hybrid = session.hybrid
                    committed = session.committed
                    last = committed[-1]
                    last_pos = session.gen_base + len(committed) - 1
                    token, out = self._target_step(session, last, sp)
                    try:
                        self._append_committed_kv(
                            out, last, [], 1, last_pos, hybrid, record, "fallback"
                        )
                        if cfg.guard_cache:
                            check_hybrid_cache(hybrid)
                    except Exception as exc:  # degrade to plain decode
                        if not cfg.fallback_on_fault:
                            raise
                        log_exception(logger, "context_maintenance_fault", exc,
                                      request_id=session.request_id,
                                      phase="forced-fallback")
                        record.note_fault(f"context maintenance failed: {exc}")
                        sp.set_attr("fault", str(exc))
                        self._disable_speculation(session, "context maintenance failed")
                    committed.append(token)
                    report = StepReport(kind="fallback", feed_size=1, draft_kv_lens=())
                return report

            if self.tree_ready:
                return self._step_tree(session, budget_ms=budget_ms)

            # ---- draft: gamma steps of the speculating module -------
            # Guarded: a fault truncates the block to the clean prefix
            # drafted so far instead of aborting the decode.
            with tracer.span("draft") as sp:
                cfg = self.config
                record = session.record
                hybrid = session.hybrid
                committed = session.committed
                last = committed[-1]
                last_pos = session.gen_base + len(committed) - 1
                draft_tokens: List[int] = []
                draft_probs: List[np.ndarray] = []
                draft_kv_lens: List[int] = []
                draft_ms = 0.0
                gamma = session.gamma_controller.next_gamma()
                sp.set_attr("gamma", gamma)
                token, pos = last, last_pos
                try:
                    for _ in range(gamma):
                        kv_len = hybrid.total_len + 1
                        step_ms = record.charge_sim(
                            self.cost_model.aasd_step(kv_len), "draft"
                        )
                        sp.add_sim_ms(step_ms)
                        draft_ms += step_ms
                        draft_kv_lens.append(kv_len)
                        logits = self.head.step(
                            token,
                            pos,
                            hybrid,
                            disable_image_kv=cfg.disable_image_kv,
                            disable_text_kv=cfg.disable_text_kv,
                            request_id=session.request_id,
                        )
                        ensure_finite(logits, "draft logits")
                        probs = logits_to_probs(logits, self.sampler.config)
                        token = self.sampler.sample(logits, probs=probs, rng=session.rng)
                        draft_probs.append(probs)
                        draft_tokens.append(token)
                        pos += 1
                    if cfg.guard_cache:
                        check_hybrid_cache(hybrid)
                except Exception as exc:  # any head fault degrades, never aborts
                    if not cfg.fallback_on_fault:
                        raise
                    log_exception(logger, "draft_fault", exc,
                                  request_id=session.request_id, position=pos)
                    record.note_fault(f"draft fault at position {pos}: {exc}")
                    sp.set_attr("fault", str(exc))
                    # The draft segment may be poisoned; the context store
                    # is target-provided and still trusted (re-validated
                    # below).
                    hybrid.clear_draft()
                    draft_tokens = []
                    draft_probs = []
                    if record.n_draft_faults >= cfg.max_draft_faults:
                        self._disable_speculation(
                            session, f"{record.n_draft_faults} draft faults"
                        )
                sp.set_attr("n_draft", len(draft_tokens))
                expired = bool(
                    budget_ms is not None and draft_tokens and draft_ms > budget_ms
                )
                if expired:
                    # Mid-round deadline: the draft phase alone blew the
                    # remaining budget, so skip the verify forward and
                    # drop the (uncommitted) speculated block.  Partial
                    # generation stays on the session; the scheduler
                    # retires it as timed out without another round.
                    sp.set_attr("expired", True)
                    hybrid.clear_draft()
                    report = StepReport(
                        kind="expired", feed_size=0,
                        draft_kv_lens=tuple(draft_kv_lens),
                    )
            if expired:
                return report

            if not draft_tokens:
                # Nothing drafted this block: take one plain target step
                # and keep the draft context in sync for the next block.
                with tracer.span("fallback") as sp:
                    token, out = self._target_step(session, last, sp)
                    if session.speculating:
                        try:
                            self._append_committed_kv(
                                out, last, [], 1, last_pos, hybrid, record, "fallback"
                            )
                            if cfg.guard_cache:
                                check_hybrid_cache(hybrid)
                        except Exception as exc:  # degrade to plain decode
                            if not cfg.fallback_on_fault:
                                raise
                            log_exception(logger, "context_maintenance_fault", exc,
                                          request_id=session.request_id,
                                          phase="fallback")
                            record.note_fault(f"context maintenance failed: {exc}")
                            sp.set_attr("fault", str(exc))
                            self._disable_speculation(session, "context maintenance failed")
                    committed.append(token)
                    report = StepReport(
                        kind="fallback", feed_size=1, draft_kv_lens=tuple(draft_kv_lens)
                    )
                return report

            # ---- verify: one parallel target forward ----------------
            with tracer.span("verify") as sp:
                gamma_used = len(draft_tokens)
                sp.set_attr("n_draft", gamma_used)
                verify_start = session.target_cache.seq_len
                feed = np.asarray([[last] + draft_tokens], dtype=np.int64)
                out = self.target.decode(feed, session.target_cache)
                sp.add_sim_ms(record.charge_sim(
                    self.cost_model.target_verify(gamma_used + 1), "verify"
                ))
                record.count_target_forward()

                outcome = speculative_verify(
                    draft_tokens,
                    np.stack(draft_probs),
                    out.logits.data[0],
                    self.sampler.config,
                    session.rng,
                )
                record.add_block(
                    BlockRecord(
                        n_draft=gamma_used,
                        n_accepted=outcome.n_accepted,
                        n_emitted=outcome.tokens_emitted,
                    )
                )
                sp.set_attr("n_accepted", outcome.n_accepted)
                session.gamma_controller.update(outcome.n_accepted, gamma_used)

                # Roll back rejected tokens in the target cache.
                keep = 1 + outcome.n_accepted
                session.target_cache.truncate(verify_start + keep)

                # ---- context maintenance ----------------------------
                hybrid.clear_draft()
                try:
                    self._append_committed_kv(
                        out, last, outcome.accepted, keep, last_pos, hybrid,
                        record, "verify",
                    )
                except Exception as exc:  # degrade to plain decode
                    if not cfg.fallback_on_fault:
                        raise
                    log_exception(logger, "context_maintenance_fault", exc,
                                  request_id=session.request_id, phase="verify")
                    record.note_fault(f"context maintenance failed: {exc}")
                    sp.set_attr("fault", str(exc))
                    self._disable_speculation(session, "context maintenance failed")

                session.commit(outcome.accepted, outcome.next_token)
                report = StepReport(
                    kind="verify",
                    feed_size=gamma_used + 1,
                    draft_kv_lens=tuple(draft_kv_lens),
                    n_accepted=outcome.n_accepted,
                )
            return report

    # ------------------------------------------------------------------
    # Tree speculation (repro.decoding.tree).  One block becomes: draft a
    # candidate tree (entropy-adapted branching), verify EVERY branch in
    # one target forward under the tree-attention mask, walk the longest
    # root path matching the target's argmax, and commit only that path's
    # KV — pointer/gather ops only, rollback is free because rejected
    # rows were never written.  With tree_max_branch=1 the tree is the
    # gamma-chain and every emitted token, charge, and cache byte matches
    # the linear path above bitwise.
    # ------------------------------------------------------------------
    def _step_tree(
        self,
        session: DecodeSession,
        *,
        budget_ms: Optional[float] = None,
    ) -> StepReport:
        """Advance one block on the tree-speculation path (solo session).

        Mirrors :meth:`step`'s draft/fallback/verify structure — same
        spans, same record charges (``on_step`` prices each draft-head
        expansion before it runs, exactly like the linear
        charge-then-step order), same fault handling and budget-expiry
        semantics — with the chain draft replaced by
        :meth:`AASDDraftHead.draft_tree` and the verify by one
        tree-masked target forward.
        """
        tracer = self.tracer
        with no_grad():
            with tracer.span("draft") as sp:
                cfg = self.config
                record = session.record
                hybrid = session.hybrid
                committed = session.committed
                last = committed[-1]
                last_pos = session.gen_base + len(committed) - 1
                kv_lens: List[int] = []
                draft_ms = [0.0]
                gamma = session.gamma_controller.next_gamma()
                sp.set_attr("gamma", gamma)

                def charge(kv_len: int) -> None:
                    """Price one draft-head expansion before it runs."""
                    step_ms = record.charge_sim(self.cost_model.aasd_step(kv_len), "draft")
                    sp.add_sim_ms(step_ms)
                    draft_ms[0] += step_ms
                    kv_lens.append(kv_len)

                tree: Optional[TreeDraft] = None
                try:
                    tree = self.head.draft_tree(
                        last,
                        last_pos,
                        hybrid,
                        gamma=gamma,
                        max_branch=cfg.tree_max_branch,
                        max_nodes=cfg.tree_max_nodes,
                        entropy_scale=cfg.tree_entropy_scale,
                        disable_image_kv=cfg.disable_image_kv,
                        disable_text_kv=cfg.disable_text_kv,
                        request_id=session.request_id,
                        on_step=charge,
                    )
                    if cfg.guard_cache:
                        check_hybrid_cache(hybrid)
                except Exception as exc:  # any head fault degrades, never aborts
                    if not cfg.fallback_on_fault:
                        raise
                    log_exception(logger, "draft_fault", exc,
                                  request_id=session.request_id, position=last_pos)
                    record.note_fault(f"draft fault at position {last_pos}: {exc}")
                    sp.set_attr("fault", str(exc))
                    # The draft segment may be poisoned; the context store
                    # is target-provided and still trusted.
                    hybrid.clear_draft()
                    tree = None
                    if record.n_draft_faults >= cfg.max_draft_faults:
                        self._disable_speculation(
                            session, f"{record.n_draft_faults} draft faults"
                        )
                n_nodes = tree.n_nodes if tree is not None else 0
                sp.set_attr("n_draft", n_nodes)
                expired = bool(
                    budget_ms is not None and n_nodes and draft_ms[0] > budget_ms
                )
                if expired:
                    sp.set_attr("expired", True)
                    hybrid.clear_draft()
                    report = StepReport(
                        kind="expired", feed_size=0,
                        draft_kv_lens=tuple(kv_lens), tree=True,
                    )
            if expired:
                return report

            if tree is None or not tree.n_nodes:
                # Nothing drafted this block: take one plain target step
                # and keep the draft context in sync for the next block.
                with tracer.span("fallback") as sp:
                    token, out = self._target_step(session, last, sp)
                    if session.speculating:
                        try:
                            self._append_committed_kv(
                                out, last, [], 1, last_pos, hybrid, record, "fallback"
                            )
                            if cfg.guard_cache:
                                check_hybrid_cache(hybrid)
                        except Exception as exc:  # degrade to plain decode
                            if not cfg.fallback_on_fault:
                                raise
                            log_exception(logger, "context_maintenance_fault", exc,
                                          request_id=session.request_id,
                                          phase="fallback")
                            record.note_fault(f"context maintenance failed: {exc}")
                            sp.set_attr("fault", str(exc))
                            self._disable_speculation(session, "context maintenance failed")
                    committed.append(token)
                    report = StepReport(
                        kind="fallback", feed_size=1,
                        draft_kv_lens=tuple(kv_lens), tree=True,
                    )
                return report

            # ---- verify: ONE target forward over the whole tree -----
            with tracer.span("verify") as sp:
                sp.set_attr("n_draft", tree.n_nodes)
                feed = np.asarray([[last] + list(tree.tokens)], dtype=np.int64)
                out = self.target.decode(
                    feed,
                    session.target_cache,
                    update_cache=False,
                    positions=tree.feed_positions(last_pos),
                    extra_blocked=tree_extra_blocked(
                        tree.parents, session.target_cache.seq_len
                    ),
                )
                sp.add_sim_ms(record.charge_sim(
                    self.cost_model.tree_verify(1 + tree.n_nodes), "verify"
                ))
                record.count_target_forward()
                report = self._commit_tree_outcome(
                    session, tree, out, last, last_pos, tuple(kv_lens), sp
                )
                sp.set_attr("n_accepted", report.n_accepted)
            return report

    def _commit_tree_outcome(
        self,
        session: DecodeSession,
        tree: TreeDraft,
        out,
        last: int,
        last_pos: int,
        kv_lens: Tuple[int, ...],
        sp,
    ) -> StepReport:
        """Acceptance walk + pointer-only commit after a tree-verify forward.

        Shared by the solo and packed tree paths; the caller has already
        charged the verify forward.  The forward ran with
        ``update_cache=False``, so committing means *gathering* the
        accepted rows' fresh KV (anchor + root path) into the target
        cache; rejected branches are never written — rollback costs
        nothing.
        """
        cfg = self.config
        record = session.record
        outcome = accept_tree(tree, out.logits.data[0], self.sampler.config)
        record.add_block(
            BlockRecord(
                n_draft=tree.n_nodes,
                n_accepted=outcome.n_accepted,
                n_emitted=outcome.tokens_emitted,
            )
        )
        session.gamma_controller.update(outcome.n_accepted, tree.max_depth)

        keep_rows = np.asarray([0] + [i + 1 for i in outcome.path], dtype=np.int64)
        keep = len(keep_rows)
        for layer_idx, (k_new, v_new) in enumerate(out.new_kv):
            session.target_cache.append(
                layer_idx,
                k_new.data[:, :, keep_rows, :],
                v_new.data[:, :, keep_rows, :],
            )
        session.target_cache.extend_positions(
            last_pos + np.arange(keep, dtype=np.int64)
        )

        # ---- context maintenance --------------------------------------
        session.hybrid.clear_draft()
        try:
            self._append_committed_kv(
                out, last, outcome.accepted, keep, last_pos, session.hybrid,
                record, "verify", rows=keep_rows,
            )
        except Exception as exc:  # degrade to plain decode
            if not cfg.fallback_on_fault:
                raise
            log_exception(logger, "context_maintenance_fault", exc,
                          request_id=session.request_id, phase="verify")
            record.note_fault(f"context maintenance failed: {exc}")
            sp.set_attr("fault", str(exc))
            self._disable_speculation(session, "context maintenance failed")

        session.commit(outcome.accepted, outcome.next_token)
        return StepReport(
            kind="verify",
            feed_size=1 + tree.n_nodes,
            draft_kv_lens=kv_lens,
            n_accepted=outcome.n_accepted,
            tree=True,
        )

    def step_batch(
        self,
        sessions: Sequence[DecodeSession],
        *,
        budgets_ms: Optional[Sequence[Optional[float]]] = None,
        force_fallback: bool = False,
    ) -> List[StepReport]:
        """Advance B sessions one block each, as one packed fused round.

        Semantically ``[self.step(s) for s in sessions]`` — same committed
        tokens (bitwise, greedy or sampled), same per-session record charges,
        fault handling, controller updates, and budget expiry — but the
        compute is batched: all speculating sessions draft in lockstep
        through :meth:`AASDDraftHead.step_packed` (one ``(B, 1, D)``
        kernel set per draft position, sessions dropping out as their
        gamma is reached or a fault truncates their block) and verify in
        one cu-seqlen-packed target forward
        (:meth:`MiniLlava.decode_batch`).  The round is traced as one
        batch-level ``draft`` span and one ``verify`` span.

        Sessions that cannot take the packed path — not speculating, or
        with nothing drafted — fall through to solo stepping / fallback
        within the same round.  When the engine is not
        :attr:`packed_ready`, ``force_fallback`` is set, or B == 1, every
        session runs solo :meth:`step`.  A draft-head exception faults
        the sessions active at that draft position (each handled exactly
        like a solo draft fault); with ``fallback_on_fault=False`` it is
        re-raised.

        Returns one :class:`StepReport` per session, in input order.
        """
        n = len(sessions)
        budgets = list(budgets_ms) if budgets_ms is not None else [None] * n
        if len(budgets) != n:
            raise DecodingError("step_batch budgets_ms must parallel sessions")
        for session in sessions:
            if session.finished:
                raise DecodingError("cannot step a finished session")
        if n == 1 or force_fallback or not self.packed_ready:
            return [
                self.step(s, budget_ms=b, force_fallback=force_fallback)
                for s, b in zip(sessions, budgets)
            ]
        if self.tree_ready:
            return self._step_batch_tree(sessions, budgets)

        cfg = self.config
        tracer = self.tracer
        reports: List[Optional[StepReport]] = [None] * n
        with no_grad():
            spec_idx: List[int] = []
            for i, session in enumerate(sessions):
                if session.speculating:
                    spec_idx.append(i)
                else:
                    reports[i] = self.step(session, budget_ms=budgets[i])
            if len(spec_idx) == 1:
                i = spec_idx[0]
                reports[i] = self.step(sessions[i], budget_ms=budgets[i])
                spec_idx = []
            if not spec_idx:
                return reports  # type: ignore[return-value]

            # ---- packed draft: lockstep gamma steps -----------------
            st: dict = {}
            with tracer.span("draft") as sp:
                sp.set_attr("batch", len(spec_idx))
                for i in spec_idx:
                    session = sessions[i]
                    last = session.committed[-1]
                    last_pos = session.gen_base + len(session.committed) - 1
                    st[i] = _PackedDraftState(
                        session=session,
                        last=last,
                        last_pos=last_pos,
                        gamma=session.gamma_controller.next_gamma(),
                        token=last,
                        pos=last_pos,
                    )
                sp.set_attr("gamma", max(st[i].gamma for i in spec_idx))
                for depth in range(max(st[i].gamma for i in spec_idx)):
                    active = [
                        i for i in spec_idx
                        if st[i].gamma > depth and not st[i].faulted
                    ]
                    if not active:
                        break
                    for i in active:
                        s = st[i]
                        kv_len = s.session.hybrid.total_len + 1
                        step_ms = s.session.record.charge_sim(
                            self.cost_model.aasd_step(kv_len), "draft"
                        )
                        sp.add_sim_ms(step_ms)
                        s.draft_ms += step_ms
                        s.kv_lens.append(kv_len)
                    try:
                        logit_rows = self.head.step_packed(
                            [st[i].token for i in active],
                            [st[i].pos for i in active],
                            [sessions[i].hybrid for i in active],
                            disable_image_kv=cfg.disable_image_kv,
                            disable_text_kv=cfg.disable_text_kv,
                            request_ids=[sessions[i].request_id for i in active],
                        )
                    except Exception as exc:  # faults every active session
                        if not cfg.fallback_on_fault:
                            raise
                        log_exception(logger, "draft_fault", exc,
                                      batch=len(active), depth=depth)
                        for i in active:
                            self._note_packed_draft_fault(st[i], exc, sp)
                        continue
                    for i, logits in zip(active, logit_rows):
                        s = st[i]
                        try:
                            ensure_finite(logits, "draft logits")
                            probs = logits_to_probs(logits, self.sampler.config)
                            token = self.sampler.sample(
                                logits, probs=probs, rng=s.session.rng
                            )
                        except Exception as exc:
                            if not cfg.fallback_on_fault:
                                raise
                            log_exception(logger, "draft_fault", exc,
                                          request_id=s.session.request_id,
                                          position=s.pos)
                            self._note_packed_draft_fault(s, exc, sp)
                            continue
                        s.probs.append(probs)
                        s.tokens.append(token)
                        s.token = token
                        s.pos += 1
                if cfg.guard_cache:
                    for i in spec_idx:
                        if st[i].faulted:
                            continue
                        try:
                            check_hybrid_cache(sessions[i].hybrid)
                        except Exception as exc:
                            if not cfg.fallback_on_fault:
                                raise
                            log_exception(logger, "draft_fault", exc,
                                          request_id=sessions[i].request_id,
                                          position=st[i].pos)
                            self._note_packed_draft_fault(st[i], exc, sp)
                sp.set_attr("n_draft", sum(len(st[i].tokens) for i in spec_idx))
                for i in spec_idx:
                    s = st[i]
                    if budgets[i] is not None and s.tokens and s.draft_ms > budgets[i]:
                        sp.set_attr("expired", True)
                        sessions[i].hybrid.clear_draft()
                        reports[i] = StepReport(
                            kind="expired", feed_size=0,
                            draft_kv_lens=tuple(s.kv_lens),
                        )

            # ---- solo fallback for sessions with nothing drafted ----
            for i in spec_idx:
                if reports[i] is not None:
                    continue
                s = st[i]
                session = sessions[i]
                if s.tokens:
                    continue
                with tracer.span("fallback") as sp:
                    record = session.record
                    token, out = self._target_step(session, s.last, sp)
                    if session.speculating:
                        try:
                            self._append_committed_kv(
                                out, s.last, [], 1, s.last_pos, session.hybrid,
                                record, "fallback",
                            )
                            if cfg.guard_cache:
                                check_hybrid_cache(session.hybrid)
                        except Exception as exc:  # degrade to plain decode
                            if not cfg.fallback_on_fault:
                                raise
                            log_exception(logger, "context_maintenance_fault", exc,
                                          request_id=session.request_id,
                                          phase="fallback")
                            record.note_fault(f"context maintenance failed: {exc}")
                            sp.set_attr("fault", str(exc))
                            self._disable_speculation(session, "context maintenance failed")
                    session.committed.append(token)
                    reports[i] = StepReport(
                        kind="fallback", feed_size=1, draft_kv_lens=tuple(s.kv_lens)
                    )

            # ---- packed verify: one fused target forward ------------
            verify_idx = [i for i in spec_idx if reports[i] is None]
            if verify_idx:
                with tracer.span("verify") as sp:
                    sp.set_attr("batch", len(verify_idx))
                    sp.set_attr(
                        "n_draft", sum(len(st[i].tokens) for i in verify_idx)
                    )
                    feeds = [
                        np.asarray([st[i].last] + st[i].tokens, dtype=np.int64)
                        for i in verify_idx
                    ]
                    caches = [sessions[i].target_cache for i in verify_idx]
                    verify_starts = [cache.seq_len for cache in caches]
                    outs = self.target.decode_batch(feeds, caches)
                    n_accepted_total = 0
                    for i, out, verify_start in zip(verify_idx, outs, verify_starts):
                        s = st[i]
                        session = sessions[i]
                        record = session.record
                        gamma_used = len(s.tokens)
                        sp.add_sim_ms(record.charge_sim(
                            self.cost_model.target_verify(gamma_used + 1), "verify"
                        ))
                        record.count_target_forward()

                        outcome = speculative_verify(
                            s.tokens,
                            np.stack(s.probs),
                            out.logits.data[0],
                            self.sampler.config,
                            session.rng,
                        )
                        record.add_block(
                            BlockRecord(
                                n_draft=gamma_used,
                                n_accepted=outcome.n_accepted,
                                n_emitted=outcome.tokens_emitted,
                            )
                        )
                        n_accepted_total += outcome.n_accepted
                        session.gamma_controller.update(outcome.n_accepted, gamma_used)

                        keep = 1 + outcome.n_accepted
                        session.target_cache.truncate(verify_start + keep)
                        session.hybrid.clear_draft()
                        try:
                            self._append_committed_kv(
                                out, s.last, outcome.accepted, keep, s.last_pos,
                                session.hybrid, record, "verify",
                            )
                        except Exception as exc:  # degrade to plain decode
                            if not cfg.fallback_on_fault:
                                raise
                            log_exception(logger, "context_maintenance_fault", exc,
                                          request_id=session.request_id,
                                          phase="verify")
                            record.note_fault(f"context maintenance failed: {exc}")
                            sp.set_attr("fault", str(exc))
                            self._disable_speculation(session, "context maintenance failed")

                        session.commit(outcome.accepted, outcome.next_token)
                        reports[i] = StepReport(
                            kind="verify",
                            feed_size=gamma_used + 1,
                            draft_kv_lens=tuple(s.kv_lens),
                            n_accepted=outcome.n_accepted,
                        )
                    sp.set_attr("n_accepted", n_accepted_total)
        return reports  # type: ignore[return-value]

    def _step_batch_tree(
        self,
        sessions: Sequence[DecodeSession],
        budgets: Sequence[Optional[float]],
    ) -> List[StepReport]:
        """Advance B sessions one tree block each; one packed tree verify.

        The batched analogue of :meth:`_step_tree`, mirroring
        :meth:`step_batch`'s structure: non-speculating sessions take solo
        fallback steps, tree drafting runs per session under one
        batch-level ``draft`` span (tree growth is data-dependent, so the
        draft phase cannot run in lockstep — its cost model grouping
        still matches the solo charges exactly), sessions with nothing
        drafted fall back solo, and every drafted tree is verified in
        **one** cu-seqlen-packed target forward whose rows carry
        per-request tree positions and ancestor masks.  Commit and
        bookkeeping per session are identical to the solo path.
        """
        cfg = self.config
        tracer = self.tracer
        n = len(sessions)
        reports: List[Optional[StepReport]] = [None] * n
        with no_grad():
            spec_idx: List[int] = []
            for i, session in enumerate(sessions):
                if session.speculating:
                    spec_idx.append(i)
                else:
                    reports[i] = self.step(session, budget_ms=budgets[i])
            if len(spec_idx) == 1:
                i = spec_idx[0]
                reports[i] = self.step(sessions[i], budget_ms=budgets[i])
                spec_idx = []
            if not spec_idx:
                return reports  # type: ignore[return-value]

            # ---- draft: one tree per session, one batch-level span --
            trees: dict = {}
            anchors: dict = {}
            kv_lens_map: dict = {}
            with tracer.span("draft") as sp:
                sp.set_attr("batch", len(spec_idx))
                gammas = {i: sessions[i].gamma_controller.next_gamma() for i in spec_idx}
                sp.set_attr("gamma", max(gammas.values()))
                for i in spec_idx:
                    session = sessions[i]
                    record = session.record
                    hybrid = session.hybrid
                    last = session.committed[-1]
                    last_pos = session.gen_base + len(session.committed) - 1
                    anchors[i] = (last, last_pos)
                    kv_lens: List[int] = []
                    kv_lens_map[i] = kv_lens
                    draft_ms = [0.0]

                    def charge(kv_len: int, record=record, kv_lens=kv_lens,
                               draft_ms=draft_ms) -> None:
                        """Price one draft-head expansion before it runs."""
                        step_ms = record.charge_sim(
                            self.cost_model.aasd_step(kv_len), "draft"
                        )
                        sp.add_sim_ms(step_ms)
                        draft_ms[0] += step_ms
                        kv_lens.append(kv_len)

                    tree: Optional[TreeDraft] = None
                    try:
                        tree = self.head.draft_tree(
                            last,
                            last_pos,
                            hybrid,
                            gamma=gammas[i],
                            max_branch=cfg.tree_max_branch,
                            max_nodes=cfg.tree_max_nodes,
                            entropy_scale=cfg.tree_entropy_scale,
                            disable_image_kv=cfg.disable_image_kv,
                            disable_text_kv=cfg.disable_text_kv,
                            request_id=session.request_id,
                            on_step=charge,
                        )
                        if cfg.guard_cache:
                            check_hybrid_cache(hybrid)
                    except Exception as exc:  # any head fault degrades, never aborts
                        if not cfg.fallback_on_fault:
                            raise
                        log_exception(logger, "draft_fault", exc,
                                      request_id=session.request_id,
                                      position=last_pos)
                        record.note_fault(f"draft fault at position {last_pos}: {exc}")
                        sp.set_attr("fault", str(exc))
                        hybrid.clear_draft()
                        tree = None
                        if record.n_draft_faults >= cfg.max_draft_faults:
                            self._disable_speculation(
                                session, f"{record.n_draft_faults} draft faults"
                            )
                    trees[i] = tree
                    if (
                        budgets[i] is not None
                        and tree is not None
                        and tree.n_nodes
                        and draft_ms[0] > budgets[i]
                    ):
                        sp.set_attr("expired", True)
                        hybrid.clear_draft()
                        reports[i] = StepReport(
                            kind="expired", feed_size=0,
                            draft_kv_lens=tuple(kv_lens), tree=True,
                        )
                sp.set_attr(
                    "n_draft",
                    sum(t.n_nodes for t in trees.values() if t is not None),
                )

            # ---- solo fallback for sessions with nothing drafted ----
            for i in spec_idx:
                if reports[i] is not None:
                    continue
                tree = trees[i]
                if tree is not None and tree.n_nodes:
                    continue
                session = sessions[i]
                last, last_pos = anchors[i]
                with tracer.span("fallback") as sp:
                    record = session.record
                    token, out = self._target_step(session, last, sp)
                    if session.speculating:
                        try:
                            self._append_committed_kv(
                                out, last, [], 1, last_pos, session.hybrid,
                                record, "fallback",
                            )
                            if cfg.guard_cache:
                                check_hybrid_cache(session.hybrid)
                        except Exception as exc:  # degrade to plain decode
                            if not cfg.fallback_on_fault:
                                raise
                            log_exception(logger, "context_maintenance_fault", exc,
                                          request_id=session.request_id,
                                          phase="fallback")
                            record.note_fault(f"context maintenance failed: {exc}")
                            sp.set_attr("fault", str(exc))
                            self._disable_speculation(session, "context maintenance failed")
                    session.committed.append(token)
                    reports[i] = StepReport(
                        kind="fallback", feed_size=1,
                        draft_kv_lens=tuple(kv_lens_map[i]), tree=True,
                    )

            # ---- packed tree verify: ONE fused target forward -------
            verify_idx = [i for i in spec_idx if reports[i] is None]
            if verify_idx:
                with tracer.span("verify") as sp:
                    sp.set_attr("batch", len(verify_idx))
                    sp.set_attr(
                        "n_draft", sum(trees[i].n_nodes for i in verify_idx)
                    )
                    feeds = [
                        np.asarray(
                            [anchors[i][0]] + list(trees[i].tokens), dtype=np.int64
                        )
                        for i in verify_idx
                    ]
                    caches = [sessions[i].target_cache for i in verify_idx]
                    outs = self.target.decode_batch(
                        feeds,
                        caches,
                        update_cache=False,
                        position_rows=[
                            trees[i].feed_positions(anchors[i][1]) for i in verify_idx
                        ],
                        extra_blocked_rows=[
                            tree_extra_blocked(
                                trees[i].parents, sessions[i].target_cache.seq_len
                            )
                            for i in verify_idx
                        ],
                    )
                    n_accepted_total = 0
                    for i, out in zip(verify_idx, outs):
                        session = sessions[i]
                        record = session.record
                        tree = trees[i]
                        last, last_pos = anchors[i]
                        sp.add_sim_ms(record.charge_sim(
                            self.cost_model.tree_verify(1 + tree.n_nodes), "verify"
                        ))
                        record.count_target_forward()
                        reports[i] = self._commit_tree_outcome(
                            session, tree, out, last, last_pos,
                            tuple(kv_lens_map[i]), sp,
                        )
                        n_accepted_total += reports[i].n_accepted
                    sp.set_attr("n_accepted", n_accepted_total)
        return reports  # type: ignore[return-value]

    def _note_packed_draft_fault(self, state: _PackedDraftState, exc: Exception, sp) -> None:
        """Apply the solo draft-fault handling to one packed session.

        The caller logs the exception (handlers own their logging so the
        except-discipline lint can see it); this helper only mutates
        session state the way the solo draft-fault path would.
        """
        session = state.session
        session.record.note_fault(f"draft fault at position {state.pos}: {exc}")
        sp.set_attr("fault", str(exc))
        # The draft segment may be poisoned; the context store is
        # target-provided and still trusted.
        session.hybrid.clear_draft()
        state.tokens = []
        state.probs = []
        state.faulted = True
        if session.record.n_draft_faults >= self.config.max_draft_faults:
            self._disable_speculation(
                session, f"{session.record.n_draft_faults} draft faults"
            )

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
            # keep the per-block gap between phase spans sub-microsecond.
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
