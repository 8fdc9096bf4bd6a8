"""The AASD speculating module (draft head).

A single-block transformer that shares the target's embedding geometry and
generates draft tokens by attending over the *target model's last-layer KV
cache* (vision slice compressed by the :class:`KVProjector`) plus its own KV
for tokens drafted in the current block.  Trained with Target-Draft
Attention so the training-time attention pattern matches inference exactly.

Parameter budget: one attention block + one SwiGLU + tied embedding head —
roughly 1/15 of the sim-7b target, mirroring the paper's lightweight module
versus the 112M independent drafts.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..decoding.cost_model import CostModel
from ..decoding.speculative import Drafter
from ..decoding.tree import DraftWalk, TreeDraft
from ..errors import ConfigError, DecodingError, ShapeError
from ..models.llama import MiniLlama
from ..nn import functional as F
from ..nn.attention import (
    MultiHeadAttention,
    attend_data,
    causal_mask,
    merge_heads,
    split_heads,
)
from ..nn.kernels import (
    block_tail_data, operand, project_qkv_data, rmsnorm_data, rope_tables_data,
)
from ..nn.layers import Embedding, Linear
from ..nn.module import Module
from ..nn.normalization import RMSNorm
from ..nn.rope import RotaryEmbedding, apply_rope
from ..nn.tensor import Tensor, concat, is_grad_enabled, matmul_data
from ..nn.transformer import SwiGLU
from ..robustness.guards import check_hybrid_cache, ensure_finite
from ..utils.rng import derive
from .hybrid_cache import SEGMENT_TEXT, SEGMENT_VISION, HybridKVCache
from .kv_projector import KVProjector
from .td_attention import target_draft_attention

__all__ = ["DraftHeadConfig", "AASDDraftHead"]


@dataclass(frozen=True)
class DraftHeadConfig:
    """Shape and ablation switches of the speculating module."""

    vocab_size: int
    dim: int                 # must equal the target backbone dim
    n_heads: int             # must equal the target backbone heads
    mlp_hidden: int = 192
    n_vision_tokens: int = 36
    k_compressed: int = 8
    use_kv_projector: bool = True   # Table 2 ablation switch
    use_target_kv: bool = True      # Figure 3 ablation switch
    rope_base: float = 10000.0

    def __post_init__(self) -> None:
        if self.dim % self.n_heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by n_heads {self.n_heads}")
        if (self.dim // self.n_heads) % 2 != 0:
            raise ConfigError("head_dim must be even for RoPE")
        if self.use_kv_projector and not 0 < self.k_compressed <= self.n_vision_tokens:
            raise ConfigError(
                f"k_compressed must be in (0, {self.n_vision_tokens}], got {self.k_compressed}"
            )

    @property
    def head_dim(self) -> int:
        """Per-head attention width (``dim / n_heads``)."""
        return self.dim // self.n_heads

    @classmethod
    def for_target(cls, target_llama_config, n_vision_tokens: int, **overrides) -> "DraftHeadConfig":
        """Derive a head config matching a target backbone's KV geometry."""
        return cls(
            vocab_size=target_llama_config.vocab_size,
            dim=target_llama_config.dim,
            n_heads=target_llama_config.n_heads,
            n_vision_tokens=n_vision_tokens,
            rope_base=target_llama_config.rope_base,
            **overrides,
        )


class AASDDraftHead(Module, Drafter):
    """One hybrid-attention transformer block + tied LM head.

    The KV-reusing :class:`~repro.decoding.speculative.Drafter`: a
    request's draft state is its :class:`HybridKVCache`, opened from the
    target's prefill and extended by each verify forward's own last-layer
    KV.  The Figure 3 (``use_target_kv=False``: the head encodes its own
    context) and Figure 4 (:meth:`ablate_kv`) variants sit behind the seam.
    """

    name = "ours"
    #: A step attends any root path of the draft segment (``ancestor_rows``).
    supports_tree = True
    #: Figure 4 ablation: context segments hidden from every draft step
    #: (set on a weight-sharing view by :meth:`ablate_kv`).
    disable_image_kv = False
    disable_text_kv = False

    def __init__(self, config: DraftHeadConfig, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        gen = rng if rng is not None else derive(0, "draft-head-init")
        self.config = config
        self.embed = Embedding(config.vocab_size, config.dim, rng=gen)
        self.rope = RotaryEmbedding(config.head_dim, base=config.rope_base)
        self.attn_norm = RMSNorm(config.dim)
        self.wq = Linear(config.dim, config.dim, bias=False, rng=gen)
        self.wk = Linear(config.dim, config.dim, bias=False, rng=gen)
        self.wv = Linear(config.dim, config.dim, bias=False, rng=gen)
        self.wo = Linear(config.dim, config.dim, bias=False, rng=gen)
        self.mlp_norm = RMSNorm(config.dim)
        self.mlp = SwiGLU(config.dim, config.mlp_hidden, rng=gen)
        self.out_norm = RMSNorm(config.dim)
        self.projector: Optional[KVProjector] = (
            KVProjector(config.n_vision_tokens, config.k_compressed, rng=gen)
            if (config.use_kv_projector and config.use_target_kv)
            else None
        )

    # ------------------------------------------------------------------
    def init_from_target(self, target_llama: MiniLlama) -> None:
        """Copy the target's embedding table (shared token geometry)."""
        if target_llama.embed.weight.data.shape != self.embed.weight.data.shape:
            raise ShapeError("target embedding shape does not match draft head config")
        self.embed.weight.data = target_llama.embed.weight.data.copy()

    def lm_head(self, hidden: Tensor) -> Tensor:
        """Project hidden states to vocab logits (tied to the embedding)."""
        return hidden @ self.embed.weight.swapaxes(0, 1)

    def qkv(self, x: Tensor, positions: np.ndarray) -> Tuple[Tensor, Tensor, Tensor]:
        """Project normed activations to RoPE'd per-head q/k/v."""
        q = split_heads(self.wq(x), self.config.n_heads)
        k = split_heads(self.wk(x), self.config.n_heads)
        v = split_heads(self.wv(x), self.config.n_heads)
        cos, sin = self.rope.tables(np.asarray(positions, dtype=np.int64))
        return apply_rope(q, cos, sin), apply_rope(k, cos, sin), v

    def compress_vision(self, k_vision, v_vision) -> Tuple[Tensor, Tensor]:
        """Apply the KV Projector (or pass raw vision KV through)."""
        if self.projector is not None:
            return self.projector(k_vision, v_vision)
        return Tensor(np.asarray(k_vision)), Tensor(np.asarray(v_vision))

    # ------------------------------------------------------------------
    # Training forward (Target-Draft Attention)
    # ------------------------------------------------------------------
    def forward_train(
        self,
        text_ids: np.ndarray,
        target_k_text: Optional[np.ndarray],
        target_v_text: Optional[np.ndarray],
        k_vision: Optional[np.ndarray],
        v_vision: Optional[np.ndarray],
        s: int = 1,
        position_offset: int = 0,
    ) -> Tensor:
        """Teacher-forced pass returning next-token logits ``(B, T, vocab)``.

        ``target_k_text``/``target_v_text`` are the target's last-layer text
        KV (constants); ``k_vision``/``v_vision`` the last-layer vision KV
        fed to the projector.  With ``use_target_kv=False`` both are ignored
        and the head trains as a plain causal self-attention block.
        """
        text_ids = np.asarray(text_ids, dtype=np.int64)
        if text_ids.ndim == 1:
            text_ids = text_ids[None, :]
        b, t = text_ids.shape
        positions = position_offset + np.arange(t, dtype=np.int64)

        x = self.embed(text_ids)
        h = self.attn_norm(x)
        q, k, v = self.qkv(h, positions)

        if self.config.use_target_kv:
            if target_k_text is None or target_v_text is None:
                raise ShapeError("use_target_kv=True requires target text KV")
            k_static = v_static = None
            if k_vision is not None:
                k_static, v_static = self.compress_vision(k_vision, v_vision)
            attn = target_draft_attention(
                q,
                Tensor(np.asarray(target_k_text)),
                Tensor(np.asarray(target_v_text)),
                k,
                v,
                s=s,
                k_static=k_static,
                v_static=v_static,
            )
        else:
            blocked = causal_mask(positions, positions)
            attn = MultiHeadAttention.attend(q, k, v, blocked=blocked)

        x = x + self.wo(merge_heads(attn))
        x = x + self.mlp(self.mlp_norm(x))
        return self.lm_head(self.out_norm(x))

    # ------------------------------------------------------------------
    # Inference: the drafter seam (state = the request's HybridKVCache)
    # ------------------------------------------------------------------
    def ablate_kv(self, disable_image_kv: bool = False,
                  disable_text_kv: bool = False) -> "AASDDraftHead":
        """A view of this head (same weights) drafting without a context segment."""
        view = copy.copy(self)
        view.disable_image_kv = disable_image_kv
        view.disable_text_kv = disable_text_kv
        return view

    def check_target(self, target) -> None:
        """The projector is sized for one vision-token count: the target's."""
        if self.config.use_target_kv and self.config.n_vision_tokens != target.n_vision_tokens:
            raise DecodingError(
                f"draft head expects {self.config.n_vision_tokens} vision tokens, "
                f"target produces {target.n_vision_tokens}"
            )

    def open(self, sample, prompt_ids: np.ndarray, target_cache) -> HybridKVCache:
        """The request's draft context: the target's KV, or (Figure 3) the head's own."""
        del sample
        hybrid = HybridKVCache(self.config.n_heads, self.config.head_dim)
        if self.config.use_target_kv:
            self.build_context(target_cache, hybrid)
        else:
            positions = target_cache.segments.n_vision + np.arange(
                len(prompt_ids), dtype=np.int64)
            k_own, v_own = self.self_encode(prompt_ids, positions)
            hybrid.append_context(k_own, v_own, positions, SEGMENT_TEXT)
        return hybrid

    def prefill_ms(self, cost: CostModel, n_requests: int = 1) -> float:
        """One projector application per request (or the head's own prompt encode)."""
        if not self.config.use_target_kv:
            return n_requests * cost.draft_prefill()
        return n_requests * cost.projector() if self.projector is not None else 0.0

    def step_ms(self, cost: CostModel, kv_lens: Sequence[int]) -> float:
        """One batched head forward; a single row is :meth:`CostModel.aasd_step`."""
        return cost.batched_aasd_step(kv_lens)

    def rollback(self, hybrid: HybridKVCache) -> None:
        """Drop the draft segment (a pointer decrement)."""
        hybrid.clear_draft()

    def absorb(self, hybrid: HybridKVCache, out, tokens: Sequence[int],
               positions: np.ndarray, cost: CostModel,
               rows: Optional[np.ndarray] = None) -> float:
        """Move the verified tokens' KV into the context store.

        A free by-product of verification: the forward's last-layer KV,
        trimmed to the accepted prefix (or gathered along the accepted
        root path ``rows``).  Without target KV the head re-encodes them.
        """
        hybrid.clear_draft()
        if self.config.use_target_kv:
            k_new, v_new = out.last_layer_kv
            keep = slice(len(tokens)) if rows is None else rows
            hybrid.append_context(
                k_new.data[:, :, keep, :], v_new.data[:, :, keep, :], positions, SEGMENT_TEXT
            )
            return 0.0
        k_own, v_own = self.self_encode(np.asarray(tokens, dtype=np.int64), positions)
        hybrid.append_context(k_own, v_own, positions, SEGMENT_TEXT)
        return cost.draft_sync(len(tokens))

    def check(self, hybrid: HybridKVCache) -> None:
        """Structural and numeric invariants of the hybrid cache."""
        check_hybrid_cache(hybrid)

    def build_context(self, target_cache, hybrid: HybridKVCache) -> None:
        """Populate the hybrid cache from the target's last-layer KV.

        Vision KV is compressed by the projector (positions ``0..k-1``,
        which is safe because every text query position exceeds them);
        text KV keeps its true absolute positions.
        """
        if not self.config.use_target_kv:
            raise ShapeError("build_context is only valid when use_target_kv=True")
        k_last, v_last = target_cache.last_layer()
        n_vis = target_cache.segments.n_vision
        k_vis = k_last[:, :, :n_vis, :]
        v_vis = v_last[:, :, :n_vis, :]
        k_cmp, v_cmp = self.compress_vision(k_vis, v_vis)
        hybrid.append_context(
            k_cmp.data,
            v_cmp.data,
            np.arange(k_cmp.shape[2], dtype=np.int64),
            SEGMENT_VISION,
        )
        hybrid.append_context(
            k_last[:, :, n_vis:, :],
            v_last[:, :, n_vis:, :],
            target_cache.positions[n_vis:],
            SEGMENT_TEXT,
        )

    def self_encode(self, token_ids: np.ndarray, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Compute the head's own K/V for tokens (no attention needed).

        Because the head is a single block, its keys/values depend only on
        each token's embedding — so priming a self-context (the
        ``use_target_kv=False`` ablation) is one parallel projection.
        Inference only: it runs the raw kernels whatever the grad mode,
        bitwise what :meth:`qkv` over the normed embeddings computes.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64).reshape(1, -1)
        h = rmsnorm_data(self.embed.lookup_data(token_ids), self.attn_norm)
        rope = rope_tables_data(self.rope, np.asarray(positions, dtype=np.int64))
        _, k, v = project_qkv_data(self, self.config.n_heads, h, rope)
        return k, v

    def step(
        self,
        token_id: int,
        position: int,
        hybrid: HybridKVCache,
        request_id: Optional[str] = None,
        ancestor_rows: Optional[Tuple[int, ...]] = None,
    ) -> np.ndarray:
        """One draft forward: returns next-token logits ``(vocab,)``.

        Appends the token's own K/V as the hybrid cache's next draft row
        (the query attends to it, matching T-D Attention's ``j = i``
        rule), so DFS-preorder expansion keeps draft-row order equal to
        node order.  ``position`` must lie past every attended key
        position, as it does wherever the engine drafts.  Of the draft
        segment only ``ancestor_rows`` (a tree node's root path: distinct
        rows in increasing order, so the whole segment exactly when it is
        as long) are attended — sibling branches are excluded by
        *selection* rather than masking, which also keeps same-position
        sibling keys out of the causal rule's reach; ``None`` (a chain
        step) attends the whole segment.  ``request_id`` identifies the
        requesting session; the head itself ignores it, but wrappers
        (fault injectors, per-request telemetry) key their behavior on it.

        With gradients off this is the one-row case of
        :meth:`_infer_rows`; the ``Module`` ops below are what it must
        equal bit for bit (``tests/nn/test_inference_forward.py``).
        """
        del request_id
        if not is_grad_enabled():
            return self._infer_rows(
                [token_id], [position], [hybrid], ancestor_rows=[ancestor_rows]
            )[0]
        positions = np.asarray([position], dtype=np.int64)
        x = self.embed(np.asarray([[token_id]], dtype=np.int64))
        h = self.attn_norm(x)
        q, k, v = self.qkv(h, positions)

        ctx_k, ctx_v, key_pos, key_blocked = hybrid.gather(
            disable_image_kv=self.disable_image_kv, disable_text_kv=self.disable_text_kv
        )
        if ancestor_rows is not None:
            index = np.concatenate([
                np.arange(hybrid.context_len, dtype=np.int64),
                hybrid.context_len + np.asarray(ancestor_rows, dtype=np.int64),
            ])
            ctx_k, ctx_v = ctx_k[:, :, index, :], ctx_v[:, :, index, :]
            key_pos, key_blocked = key_pos[index], key_blocked[index]
        k_all = concat([Tensor(ctx_k), k], axis=2)
        v_all = concat([Tensor(ctx_v), v], axis=2)
        all_pos = np.concatenate([key_pos, positions])
        blocked = causal_mask(positions, all_pos)
        blocked = blocked | np.concatenate([key_blocked, [False]])[None, :]

        attn = MultiHeadAttention.attend(q, k_all, v_all, blocked=blocked)
        x = x + self.wo(merge_heads(attn))
        x = x + self.mlp(self.mlp_norm(x))
        logits = self.lm_head(self.out_norm(x))

        hybrid.append_draft(k.data, v.data, positions)
        return logits.data[0, -1]

    def draft_tree(self, token_id: int, position: int, hybrid: HybridKVCache, *,
                   gamma: int, max_branch: int = 2, max_nodes: int = 12,
                   entropy_scale: float = 1.0, request_id: Optional[str] = None) -> TreeDraft:
        """One session's greedy tree alone: the engine's lockstep :class:`DraftWalk`, one :meth:`step` each."""
        walk = DraftWalk(token_id, gamma, max_branch=max_branch, max_nodes=max_nodes,
                         entropy_scale=entropy_scale)
        while walk.pending is not None:
            token, depth, ancestors = walk.pending
            logits = self.step(token, position + depth, hybrid, request_id, ancestors)
            walk.expand(ensure_finite(logits, "draft logits"))
        return walk.draft

    def step_packed(
        self,
        token_ids: Sequence[int],
        positions: Sequence[int],
        hybrids: Sequence[HybridKVCache],
        request_ids: Optional[Sequence[Optional[str]]] = None,
        ancestor_rows: Optional[Sequence[Optional[Tuple[int, ...]]]] = None,
    ) -> List[np.ndarray]:
        """One *lockstep* draft step for B sessions; per-session logits.

        B calls of :meth:`step` as one :meth:`_infer_rows` pass: appends
        each session's fresh draft K/V to its own hybrid cache exactly as
        :meth:`step` does and returns one ``(vocab,)`` logits row per
        session, in input order, bitwise what B solo steps return.
        ``ancestor_rows[i]`` is row ``i``'s :meth:`step` argument, so rows
        of different sessions' trees share the call.  Inference only — it
        runs the raw kernels whatever the grad mode.  ``request_ids`` is
        ignored here; wrappers key per-request behavior on it, and may
        return an ``Exception`` in a row's slot, which the engine treats
        as that row's draft fault (raising instead faults every row of
        the call).
        """
        del request_ids
        if not (len(token_ids) == len(positions) == len(hybrids)):
            raise ShapeError(
                f"step_packed arity mismatch: {len(token_ids)} tokens, "
                f"{len(positions)} positions, {len(hybrids)} caches"
            )
        return self._infer_rows(token_ids, positions, hybrids, ancestor_rows)

    def _infer_rows(
        self,
        token_ids: Sequence[int],
        positions: Sequence[int],
        hybrids: Sequence[HybridKVCache],
        ancestor_rows: Optional[Sequence[Optional[Tuple[int, ...]]]] = None,
    ) -> List[np.ndarray]:
        """The one no-grad draft step: B sessions, one token each.

        The batch runs as a ``(B, 1, D)`` array through
        :mod:`repro.nn.kernels`: the embedding gather, norms, q/k/v/o
        projections, RoPE, MLP and LM head each execute as **one** numpy
        call instead of B.  numpy evaluates a ``(B, 1, K) @ (K, N)``
        matmul by looping the batch axis, so every slice takes the
        single-row gemv kernel whatever B is — the M = 1 side of the
        packing-stability contract in :mod:`repro.nn.ragged` — and the
        ufuncs replay the ``Module`` layers' op order, so each row is
        bitwise what :meth:`step` computes with gradients on.  Attention
        runs per session over ``(context | chosen draft rows | own key)``
        at exactly the solo shapes.  ``ancestor_rows[i]``, when given,
        restricts session ``i``'s draft segment to those rows (the
        :meth:`step` rule); ``None`` attends the whole segment.

        When no ablation flag is set the attention mask is skipped
        outright: during draft steps every attended key position is
        strictly below the query position (compressed vision keys sit at
        ``0..k-1``, committed-text keys below the last committed
        position, draft keys at earlier draft positions), so the causal +
        segment mask is all-``False`` — and ``masked_fill`` with an
        all-``False`` mask is a bitwise identity.

        Appends each session's own K/V as its next draft row and returns
        one ``(vocab,)`` logits row per session.  Builds no ``Tensor``.
        """
        b = len(hybrids)
        pos = np.asarray(positions, dtype=np.int64)
        ids = np.asarray(token_ids, dtype=np.int64).reshape(b, 1)
        disable_image_kv, disable_text_kv = self.disable_image_kv, self.disable_text_kv
        ablated = disable_image_kv or disable_text_kv

        xd = self.embed.weight.data[ids]
        h = rmsnorm_data(xd, self.attn_norm)
        cos, sin = rope_tables_data(self.rope, pos)
        qd, kd, vd = project_qkv_data(
            self, self.config.n_heads, h,
            (cos[:, None, None, :], sin[:, None, None, :]),
        )
        outs = []
        for i, hybrid in enumerate(hybrids):
            ctx_k, ctx_v, key_pos, key_blocked = hybrid.gather(
                disable_image_kv=disable_image_kv, disable_text_kv=disable_text_kv
            )
            rows = None if ancestor_rows is None else ancestor_rows[i]
            if rows is not None and len(rows) != hybrid.draft_len:
                # repro: allow[hotpath] -- O(context) int index selecting a tree node's root path
                index = np.concatenate([
                    np.arange(hybrid.context_len, dtype=np.int64),
                    hybrid.context_len + np.asarray(rows, dtype=np.int64),
                ])
                ctx_k, ctx_v = ctx_k[:, :, index, :], ctx_v[:, :, index, :]
                key_pos, key_blocked = key_pos[index], key_blocked[index]
            blocked = None
            if ablated:
                # repro: allow[hotpath] -- O(context) mask bookkeeping on the ablation path only
                all_pos = np.concatenate([key_pos, pos[i : i + 1]])
                # repro: allow[hotpath] -- O(context) bool mask row on the ablation path only
                blocked = causal_mask(pos[i : i + 1], all_pos) | np.concatenate(
                    [key_blocked, [False]]
                )[None, :]
            outs.append(
                attend_data(
                    qd[i : i + 1],
                    # repro: allow[hotpath] -- (context | own key): the own key stays float64 beside the float32 cache, as in the Module path
                    np.concatenate([ctx_k, kd[i : i + 1]], axis=2),
                    # repro: allow[hotpath] -- (context | own value), same reason
                    np.concatenate([ctx_v, vd[i : i + 1]], axis=2),
                    blocked,
                )
            )
        # repro: allow[hotpath] -- reassembles B per-row outputs into one batch tensor, O(batch) per step
        attn_d = np.concatenate(outs, axis=0) if b > 1 else outs[0]
        xd = block_tail_data(xd, attn_d, self.wo, self.mlp_norm, self.mlp)
        normed = rmsnorm_data(xd, self.out_norm)
        logits_d = matmul_data(normed, operand(self.embed.weight, transpose=True))
        for i, hybrid in enumerate(hybrids):
            hybrid.append_draft(kd[i : i + 1], vd[i : i + 1], pos[i : i + 1])
        return [logits_d[i, -1] for i in range(b)]
