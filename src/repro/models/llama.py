"""MiniLlama: a LLaMA-style decoder-only LM (RoPE, RMSNorm, SwiGLU).

Used in three roles: the LM backbone of the target MLLM, the standalone
language-only draft baseline (FT/DT-LLaMA), and the backbone of the tiny
LLaVA draft baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import ShapeError
from ..nn.attention import attend_data, causal_mask
from ..nn.kernels import (
    block_tail_data, operand, project_qkv_data, rmsnorm_data, rope_tables_data,
)
from ..nn.layers import Embedding
from ..nn.module import Module
from ..nn.normalization import RMSNorm
from ..nn.ragged import cu_seqlens, row_extents
from ..nn.rope import RotaryEmbedding
from ..nn.tensor import Tensor, is_grad_enabled, matmul_data
from ..nn.transformer import DecoderBlock
from .config import LlamaConfig
from .kv_cache import KVCache

__all__ = ["MiniLlama", "LlamaOutput"]


@dataclass
class LlamaOutput:
    """Forward-pass result for the new tokens only."""

    logits: Tensor              # (B, T, vocab)
    hidden: Tensor              # (B, T, dim) final-norm hidden states


class _RowOutput:
    """One row's view of an inference forward, materialised on access.

    Quacks like :class:`LlamaOutput`'s ``logits`` / ``hidden`` but builds
    each ``Tensor`` only when the field is read: the decode rounds consume
    just ``logits`` — a prefill only the last-position logits.  Slicing
    the raw array and wrapping it is the same view ``Tensor.__getitem__``
    would produce, so values are bitwise unchanged; a solo forward is the
    one row ``0:T``.  The row's logits come already cut to it (the LM head
    runs per row).  No fresh K/V is kept: the caches hold every row the
    forward wrote, and the draft head reads the target's in place.
    """

    __slots__ = ("_logits_d", "_normed_d", "_start", "_end")

    def __init__(self, logits_d, normed_d, start: int, end: int) -> None:
        self._logits_d = logits_d
        self._normed_d = normed_d
        self._start = start
        self._end = end

    @property
    def logits(self) -> Tensor:
        return Tensor(self._logits_d)

    @property
    def hidden(self) -> Tensor:
        return Tensor(self._normed_d[:, self._start:self._end, :])

    @property
    def last_logits_data(self) -> np.ndarray:
        """``logits.data[:, -1, :]``, read without building the ``Tensor``."""
        return self._logits_d[:, -1, :]


class MiniLlama(Module):
    """Decoder-only causal LM with a tied embedding/LM head."""

    def __init__(self, config: LlamaConfig, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        self.config = config
        self.embed = Embedding(config.vocab_size, config.dim, rng=gen)
        self.rope = RotaryEmbedding(config.head_dim, base=config.rope_base)
        self.blocks = [
            DecoderBlock(config.dim, config.n_heads, config.mlp_hidden, rope=self.rope, rng=gen)
            for _ in range(config.n_layers)
        ]
        self.norm = RMSNorm(config.dim)

    # ------------------------------------------------------------------
    def embed_tokens(self, token_ids: np.ndarray) -> Tensor:
        """``(B, T)`` int ids -> ``(B, T, dim)`` embeddings."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        return self.embed(token_ids)

    def lm_head(self, hidden: Tensor) -> Tensor:
        """Tied head: hidden states -> vocabulary logits."""
        return hidden @ self.embed.weight.swapaxes(0, 1)

    # ------------------------------------------------------------------
    def forward_embeds(
        self,
        x: Tensor,
        positions: np.ndarray,
        cache: Optional[KVCache] = None,
    ) -> LlamaOutput:
        """Run the decoder stack over pre-computed embeddings.

        A call given a ``cache`` is inference: the fresh KV is appended to
        it and the new tokens attend to its context plus themselves.  It
        runs as one row of :meth:`_infer_rows` (whatever the batch width
        B) whatever the grad mode, as does any call with gradients off,
        and the result wraps its arrays lazily.  Only a cacheless call
        with gradients on runs the ``Module`` layers and records a graph:
        the dense, causal training forward.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if x.ndim != 3:
            raise ShapeError(f"expected (B, T, D) embeddings, got {x.shape}")
        if positions.shape[0] != x.shape[1]:
            raise ShapeError(
                f"positions length {positions.shape[0]} != sequence length {x.shape[1]}"
            )
        if cache is not None or not is_grad_enabled():
            return self._infer_rows(x.data, [positions], [cache], None)[0]
        hidden = x
        for block in self.blocks:
            hidden = block(hidden, positions)
        normed = self.norm(hidden)
        return LlamaOutput(logits=self.lm_head(normed), hidden=normed)

    def forward(
        self,
        token_ids: np.ndarray,
        cache: Optional[KVCache] = None,
    ) -> LlamaOutput:
        """Decoder forward over token ids (see :meth:`forward_embeds`).

        The tokens continue at ``cache.next_position()`` (0 without a
        cache).
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        start = cache.next_position() if cache is not None else 0
        positions = np.arange(start, start + token_ids.shape[1], dtype=np.int64)
        return self.forward_embeds(self.embed_tokens(token_ids), positions, cache=cache)

    # ------------------------------------------------------------------
    # The inference forward (docs/kernels.md).  A cache or gradients off
    # => raw kernels, one row or many: forward_embeds hands its single row
    # (of any batch width) and forward_packed_embeds its cu-seqlen-packed
    # rows to the same layer loop below.

    def _infer_rows(
        self,
        x: np.ndarray,
        pos_rows: List[np.ndarray],
        caches: List[Optional[KVCache]],
        extra_blocked_rows: Optional[List[Optional[np.ndarray]]],
    ) -> List[_RowOutput]:
        """The one inference decoder pass over ``len(pos_rows)`` rows.

        ``x`` is ``(B, sum_tokens, D)`` raw embeddings; row ``i`` owns the
        tokens at ``cu[i]:cu[i+1]`` along axis 1, appends its fresh K/V to
        ``caches[i]`` (when given) and attends to that cache's rows —
        its context plus itself — never across rows.  Every row-wise op
        (norms, q/k/v/o projections, RoPE, MLP) runs once over all rows
        through :mod:`repro.nn.kernels` — the same ufuncs in the same
        order as the ``Module`` layers, so each row is bitwise what they
        compute over the same cache (the spec in ``tests/nn/conftest.py``)
        — and attention and the LM head run per row at exactly the solo
        shapes.  A lone row therefore *is* the solo
        forward (GEMM shapes included, down to the M = 1 gemv), which is
        why packing needs every row of a multi-row call to hold >= 2
        tokens (the packing-stability contract in :mod:`repro.nn.ragged`)
        and a one-row call needs nothing.  Builds no ``Tensor``; outputs
        are wrapped lazily by :class:`_RowOutput`.

        Each fresh K/V row of a cached row has one copy, the cache's.
        """
        extents = row_extents(cu_seqlens([p.shape[0] for p in pos_rows]))
        # repro: allow[hotpath] -- packs O(feed) position rows once per forward
        positions = np.concatenate(pos_rows)
        use_cache = [c is not None and c.seq_len > 0 for c in caches]

        # Masks and rotary tables depend on positions only, never on
        # layer values — build them once and reuse across the stack.
        blocked: List[np.ndarray] = []
        for i, pos in enumerate(pos_rows):
            if use_cache[i]:
                # repro: allow[hotpath] -- O(context) int position vector, built once per row per forward
                all_pos = np.concatenate(
                    [np.asarray(caches[i].positions, dtype=np.int64), pos]
                )
            else:
                all_pos = pos
            mask = causal_mask(pos, all_pos)
            if extra_blocked_rows is not None and extra_blocked_rows[i] is not None:
                mask = mask | np.asarray(extra_blocked_rows[i], dtype=bool)
            blocked.append(mask)
        rope = rope_tables_data(self.rope, positions)

        hidden = x
        for layer_idx, block in enumerate(self.blocks):
            qd, kd, vd = project_qkv_data(
                block.attn, block.attn.n_heads,
                rmsnorm_data(hidden, block.attn_norm),
                rope,
            )
            outs: List[np.ndarray] = []
            for i, (start, end) in enumerate(extents):
                k_all = kd[:, :, start:end, :]
                v_all = vd[:, :, start:end, :]
                if caches[i] is not None:
                    # append first: the cache's own view is then (context |
                    # fresh), the keys a concat would build, without the copy
                    caches[i].append(layer_idx, k_all, v_all)
                    k_all, v_all = caches[i].layer(layer_idx)
                outs.append(
                    attend_data(qd[:, :, start:end, :], k_all, v_all, blocked[i])
                )
            if len(outs) > 1:
                # segment writes into one preallocated packed buffer:
                # same values np.concatenate would copy, minus its
                # temporary-list machinery (this runs per layer)
                attn_out = np.empty_like(qd)
                for (start, end), seg in zip(extents, outs):
                    attn_out[:, :, start:end, :] = seg
            else:
                attn_out = outs[0]
            hidden = block_tail_data(
                hidden, attn_out, block.attn.wo, block.mlp_norm, block.mlp
            )
        for cache, pos in zip(caches, pos_rows):
            if cache is not None:
                cache.extend_positions(pos)
        normed = rmsnorm_data(hidden, self.norm)
        head = operand(self.embed.weight, transpose=True)
        # the tied head runs at each row's solo shape: its vocabulary-wide
        # product is not row-stable once rows are stacked (docs/kernels.md §2)
        return [
            _RowOutput(matmul_data(normed[:, start:end, :], head), normed, start, end)
            for start, end in extents
        ]

    def forward_packed_embeds(
        self,
        x: Tensor,
        position_rows: List[np.ndarray],
        caches: List[Optional[KVCache]],
        extra_blocked_rows: Optional[List[Optional[np.ndarray]]] = None,
    ) -> List[LlamaOutput]:
        """Fused decoder pass over a cu-seqlen-packed ragged batch.

        Inference only: runs :meth:`_infer_rows` whatever the grad mode
        and records no autograd graph (training batches are dense and go
        through :meth:`forward_embeds`).

        Parameters
        ----------
        x:
            Packed embeddings ``(1, sum_tokens, D)``; request ``i`` owns
            the rows at offsets ``cu[i]:cu[i+1]`` where ``cu`` is the
            cumulative sum of ``len(position_rows[i])``.
        position_rows:
            Per-request absolute positions of the new tokens.
        caches:
            Per-request KV caches (entries may be ``None`` for cacheless
            requests); request ``i``'s fresh KV is appended to
            ``caches[i]`` and its queries attend to that cache's context
            plus its own new tokens — never across requests.
        extra_blocked_rows:
            Optional per-request extra masks (each broadcastable to
            ``(T_i, Tk_i_total)``, or ``None``), OR'd with that request's
            causal mask — the tree-verification hook (sibling branches
            may share positions and must not see each other).

        Returns one :class:`LlamaOutput`-shaped result per request whose
        ``logits`` / ``hidden`` are zero-copy slices of the packed results,
        bitwise identical to that request's solo forward and wrapped
        lazily (:class:`_RowOutput`).
        """
        if len(position_rows) != len(caches):
            raise ShapeError(
                f"{len(position_rows)} position rows vs {len(caches)} caches"
            )
        if x.ndim != 3:
            raise ShapeError(f"expected (1, sum_tokens, D) embeddings, got {x.shape}")
        pos_rows = [np.asarray(p, dtype=np.int64) for p in position_rows]
        total = sum(p.shape[0] for p in pos_rows)
        if x.shape[1] != total:
            raise ShapeError(
                f"packed length {x.shape[1]} != sum of row lengths {total}"
            )
        if extra_blocked_rows is not None and len(extra_blocked_rows) != len(caches):
            raise ShapeError(
                f"{len(extra_blocked_rows)} extra-mask rows vs {len(caches)} caches"
            )
        return self._infer_rows(
            x.data, pos_rows, caches, extra_blocked_rows
        )

    def forward_packed(
        self,
        token_rows: List[np.ndarray],
        caches: List[Optional[KVCache]],
        position_rows: Optional[List[np.ndarray]] = None,
        extra_blocked_rows: Optional[List[Optional[np.ndarray]]] = None,
    ) -> List[LlamaOutput]:
        """Packed ragged-batch forward over per-request token-id rows.

        Each ``token_rows[i]`` is request ``i``'s new token ids (1-D or
        ``(1, T_i)``); positions continue from ``caches[i].next_position()``
        exactly as in :meth:`forward`, unless explicit ``position_rows``
        are given (every verify passes its feed's: a tree's branches
        carry non-monotone per-branch positions).  ``extra_blocked_rows``
        optionally adds per-request masks on top of causality.  Every
        row's fresh KV is appended to its cache, rejected tree branches
        included; the caller commits what it keeps
        (:meth:`KVCache.keep_rows`).  The embedding gather and all
        row-wise ops run fused over the packed batch; see
        :meth:`forward_packed_embeds`.
        """
        if len(token_rows) != len(caches):
            raise ShapeError(f"{len(token_rows)} token rows vs {len(caches)} caches")
        if position_rows is not None and len(position_rows) != len(caches):
            raise ShapeError(
                f"{len(position_rows)} position rows vs {len(caches)} caches"
            )
        rows2d = []
        pos_rows = []
        for i, (ids, cache) in enumerate(zip(token_rows, caches)):
            ids = np.asarray(ids, dtype=np.int64)
            if ids.ndim == 1:
                ids = ids[None, :]
            rows2d.append(ids)
            if position_rows is not None:
                pos = np.asarray(position_rows[i], dtype=np.int64)
                if pos.shape[0] != ids.shape[1]:
                    raise ShapeError(
                        f"request {i}: {pos.shape[0]} positions for "
                        f"{ids.shape[1]} tokens"
                    )
            else:
                start = cache.next_position() if cache is not None else 0
                pos = np.arange(start, start + ids.shape[1], dtype=np.int64)
            pos_rows.append(pos)
        # repro: allow[hotpath] -- packs O(feed) token ids once per packed forward
        packed_ids = np.concatenate(rows2d, axis=1)
        return self.forward_packed_embeds(
            self.embed_tokens(packed_ids), pos_rows, caches,
            extra_blocked_rows=extra_blocked_rows,
        )

    def new_cache(self) -> KVCache:
        return KVCache(self.config.n_layers)
