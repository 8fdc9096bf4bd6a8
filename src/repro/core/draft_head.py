"""The AASD speculating module (draft head).

A single-block transformer that shares the target's embedding geometry and
generates draft tokens by attending over the *target model's last-layer KV
cache* plus its own KV for tokens drafted in the current block.  The cache
is read in place, never copied: the vision slice is compressed once by the
:class:`KVProjector`, the text rows are the target cache's own
(:class:`HybridKVCache`).  A step scores each block separately and takes
one softmax over them — the inference form of T-D Attention's
``Q'Kᵀ`` / ``Q'K'ᵀ`` split (paper Eq. 12-13).  Trained with Target-Draft
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
from ..nn.attention import (
    MultiHeadAttention,
    attend_blocks_data,
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
from ..nn.tensor import Tensor, matmul_data
from ..nn.transformer import SwiGLU
from ..robustness.guards import check_hybrid_cache, ensure_finite
from ..utils.rng import derive
from .hybrid_cache import Block, HybridKVCache
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
    request's draft state is its :class:`HybridKVCache`, which reads the
    target's last-layer KV in place — each verify's commit extends it at
    no cost of its own.  The Figure 3 (``use_target_kv=False``: the head
    encodes its own context) and Figure 4 (:meth:`ablate_kv`) variants
    sit behind the seam.
    """

    name = "ours"
    #: A step attends any root path of the draft lane (``ancestor_rows``).
    supports_tree = True
    #: One lockstep step is one batched head forward over the hybrid KV.
    step_phase = "head"
    #: Figure 4 ablation: context blocks left out of every draft step
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
        if target_llama.embed.weight.shape != self.embed.weight.shape:
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
        """Apply the KV Projector (or pass a copy of the raw vision KV through)."""
        if self.projector is not None:
            return self.projector(k_vision, v_vision)
        return Tensor(np.array(k_vision)), Tensor(np.array(v_vision))

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
        """A view of this head (same weights) drafting without a context block."""
        view = copy.copy(self)
        view.disable_image_kv = disable_image_kv
        view.disable_text_kv = disable_text_kv
        return view

    def check_target(self, target) -> None:
        """The head attends the target's KV: its geometry and vision-token count must match."""
        cfg, llama = self.config, target.llama.config
        if (cfg.dim, cfg.n_heads) != (llama.dim, llama.n_heads):
            raise DecodingError(
                f"draft head KV geometry (dim {cfg.dim}, {cfg.n_heads} heads) does not "
                f"match the target's (dim {llama.dim}, {llama.n_heads} heads)"
            )
        if cfg.use_target_kv and cfg.n_vision_tokens != target.n_vision_tokens:
            raise DecodingError(
                f"draft head expects {self.config.n_vision_tokens} vision tokens, "
                f"target produces {target.n_vision_tokens}"
            )

    def open(self, sample, prompt_ids: np.ndarray, target_cache) -> HybridKVCache:
        """The request's draft context: the target's KV, or (Figure 3) the head's own."""
        del sample
        if self.config.use_target_kv:
            return self.build_context(target_cache)
        hybrid = HybridKVCache(self.config.n_heads, self.config.head_dim)
        positions = target_cache.segments.n_vision + np.arange(len(prompt_ids), dtype=np.int64)
        hybrid.append_context(*self.self_encode(prompt_ids, positions))
        return hybrid

    @property
    def prefill_phase(self) -> Optional[str]:
        """One projector application per request (or the head's own prompt encode)."""
        if not self.config.use_target_kv:
            return "draft_prefill"
        return "projector" if self.projector is not None else None

    def rollback(self, hybrid: HybridKVCache) -> None:
        """Drop the draft lane (a pointer decrement)."""
        hybrid.clear_draft()

    def absorb(self, hybrid: HybridKVCache, tokens: Sequence[int],
               positions: np.ndarray, cost: CostModel) -> float:
        """Drop the draft lane; the verified tokens are already context.

        With target KV the verify's commit wrote them into the cache the
        store reads, so this is free.  Without it the head re-encodes them.
        """
        hybrid.clear_draft()
        if self.config.use_target_kv:
            return 0.0
        hybrid.append_context(*self.self_encode(np.asarray(tokens, dtype=np.int64), positions))
        return cost.price("sync", (len(tokens),))

    def check(self, hybrid: HybridKVCache) -> None:
        """Structural and numeric invariants of the hybrid cache."""
        check_hybrid_cache(hybrid)

    def build_context(self, target_cache) -> HybridKVCache:
        """The request's hybrid cache over the target's last-layer KV.

        The projector compresses the vision rows once, into the store's
        vision block; the text rows are the target cache's own, read in
        place from row ``n_vision`` on.
        """
        if not self.config.use_target_kv:
            raise ShapeError("build_context is only valid when use_target_kv=True")
        k_last, v_last = target_cache.last_layer()
        n_vis = target_cache.segments.n_vision
        k_cmp, v_cmp = self.compress_vision(k_last[:, :, :n_vis, :], v_last[:, :, :n_vis, :])
        return HybridKVCache(self.config.n_heads, self.config.head_dim, source=target_cache,
                             first_row=n_vis, vision=(k_cmp.data, v_cmp.data))

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

        Attends the hybrid cache's blocks (:meth:`_attended`) and the
        token's own K/V (T-D Attention's ``j = i`` rule), then appends that
        K/V as the next draft-lane row, so DFS-preorder expansion keeps
        draft-row order equal to node order.  ``position`` must lie past
        every attended key position, as it does wherever the engine
        drafts: no key is masked.  Of the draft lane only
        ``ancestor_rows`` (a tree node's root path: distinct rows in
        increasing order, so the whole lane exactly when it is as long)
        are attended — sibling branches are excluded by *selection*;
        ``None`` (a chain step) attends the whole lane.  ``request_id``
        identifies the requesting session; the head itself ignores it,
        but wrappers (fault injectors, per-request telemetry) key their
        behavior on it.

        Inference only: the one-row case of :meth:`_infer_rows` whatever
        the grad mode, bitwise the same row of :meth:`step_packed`.
        """
        del request_id
        return self._infer_rows(
            [token_id], [position], [hybrid], ancestor_rows=[ancestor_rows]
        )[0]

    def _attended(self, hybrid: HybridKVCache,
                  rows: Optional[Tuple[int, ...]]) -> List[Block]:
        """The cache blocks one step attends before its own key.

        :meth:`HybridKVCache.gather` under this head's ablation flags,
        its draft lane cut to ``rows`` (``None``: all of it) and left out
        when empty.
        """
        *blocks, (k, v) = hybrid.gather(self.disable_image_kv, self.disable_text_kv)
        if rows is not None and len(rows) != k.shape[2]:
            index = np.asarray(rows, dtype=np.int64)
            k, v = k[:, :, index, :], v[:, :, index, :]
        if k.shape[2]:
            blocks.append((k, v))
        return blocks

    def draft_tree(self, token_id: int, position: int, hybrid: HybridKVCache, *,
                   gamma: int, eos: Optional[int] = None, max_branch: int = 2,
                   max_nodes: int = 12, entropy_scale: float = 1.0,
                   request_id: Optional[str] = None) -> TreeDraft:
        """One session's greedy tree alone: the engine's lockstep :class:`DraftWalk`, one :meth:`step` each.

        ``eos`` ends the walk where it is drafted, as the engine's walk does.
        """
        walk = DraftWalk(token_id, gamma, eos=eos, max_branch=max_branch,
                         max_nodes=max_nodes, entropy_scale=entropy_scale)
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
        """The one inference draft step: B sessions, one token each.

        The batch runs as a ``(B, 1, D)`` array through
        :mod:`repro.nn.kernels`: the embedding gather, norms, q/k/v/o
        projections, RoPE, MLP and LM head each execute as **one** numpy
        call instead of B.  numpy evaluates a ``(B, 1, K) @ (K, N)``
        matmul by looping the batch axis, so every slice takes the
        single-row gemv kernel whatever B is — the M = 1 side of the
        packing-stability contract in :mod:`repro.nn.ragged` — and the
        ufuncs replay the ``Module`` layers' op order, so each row is
        bitwise what they compute (the spec in ``tests/nn/conftest.py``).
        Attention runs per session over its :meth:`_attended` blocks and
        its own key, each block scored where it lives and all of them
        under one softmax (:func:`~repro.nn.attention.attend_blocks_data`):
        no K or V is concatenated.  ``ancestor_rows[i]``, when given,
        restricts session ``i``'s draft lane to those rows (the
        :meth:`step` rule); ``None`` attends the whole lane.

        Appends each session's own K/V as its next draft row and returns
        one ``(vocab,)`` logits row per session.  Builds no ``Tensor``.
        """
        b = len(hybrids)
        pos = np.asarray(positions, dtype=np.int64)
        ids = np.asarray(token_ids, dtype=np.int64).reshape(b, 1)

        xd = self.embed.weight.data[ids]
        h = rmsnorm_data(xd, self.attn_norm)
        cos, sin = rope_tables_data(self.rope, pos)
        qd, kd, vd = project_qkv_data(
            self, self.config.n_heads, h,
            (cos[:, None, None, :], sin[:, None, None, :]),
        )
        outs = []
        for i, hybrid in enumerate(hybrids):
            rows = None if ancestor_rows is None else ancestor_rows[i]
            blocks = self._attended(hybrid, rows)
            blocks.append((kd[i : i + 1], vd[i : i + 1]))
            outs.append(attend_blocks_data(qd[i : i + 1], blocks))
        # repro: allow[hotpath] -- reassembles B per-row outputs into one batch tensor, O(batch) per step
        attn_d = np.concatenate(outs, axis=0) if b > 1 else outs[0]
        xd = block_tail_data(xd, attn_d, self.wo, self.mlp_norm, self.mlp)
        normed = rmsnorm_data(xd, self.out_norm)
        logits_d = matmul_data(normed, operand(self.embed.weight, transpose=True))
        for i, hybrid in enumerate(hybrids):
            hybrid.append_draft(kd[i : i + 1], vd[i : i + 1])
        return [logits_d[i, -1] for i in range(b)]
