"""MiniLlava: vision encoder + connector + MiniLlama backbone.

The input layout matches LLaVA: ``[vision tokens][bos][text tokens...]``,
with vision tokens occupying positions ``0 .. n_vision-1``.  The KV cache
records the modality segment boundaries so AASD can compress the vision
slice and the ablations can mask segments.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PrefillGroupError, ShapeError
from ..nn.tensor import Tensor, concat
from .config import LlavaConfig
from .connector import Connector
from .kv_cache import KVCache
from .llama import LlamaOutput, MiniLlama
from .vision import VisionEncoder

__all__ = ["MiniLlava", "PREFILL_ROWS"]

#: Most ``[vision][text]`` rows one forward of :meth:`MiniLlava.prefill_batch`
#: runs: the token budget that bounds a prefill's activations whatever the
#: admission's size (Sarathi-Serve's per-forward budget, over whole requests).
PREFILL_ROWS = 256


def _row_groups(rows: Sequence[int]) -> List[range]:
    """Consecutive groups of requests whose rows sum to at most :data:`PREFILL_ROWS`.

    A request longer than the budget is a group of its own.
    """
    groups: List[range] = []
    start, total = 0, 0
    for i, n in enumerate(rows):
        if i > start and total + n > PREFILL_ROWS:
            groups.append(range(start, i))
            start, total = i, 0
        total += n
    if rows:
        groups.append(range(start, len(rows)))
    return groups


class MiniLlava:
    """The target MLLM (and, at tiny scale, the LLaVA draft baseline).

    Not a Module subclass itself; it owns three modules and exposes a
    combined parameter list, which keeps the state-dict layout explicit.
    """

    def __init__(self, config: LlavaConfig, rng: Optional[np.random.Generator] = None) -> None:
        gen = rng if rng is not None else np.random.default_rng()
        self.config = config
        self.vision = VisionEncoder(config.vision, rng=gen)
        self.connector = Connector(
            config.vision.dim, config.llama.dim, hidden=config.connector_hidden, rng=gen
        )
        self.llama = MiniLlama(config.llama, rng=gen)

    # ------------------------------------------------------------------
    # Parameter plumbing
    # ------------------------------------------------------------------
    def named_parameters(self):
        yield from self.vision.named_parameters(prefix="vision.")
        yield from self.connector.named_parameters(prefix="connector.")
        yield from self.llama.named_parameters(prefix="llama.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def state_dict(self):
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state, strict: bool = True) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            if name in state:
                value = np.asarray(state[name])
                if value.shape != param.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: {value.shape} vs {param.shape}"
                    )
                param.data = value.astype(param.dtype, copy=True)

    def train(self, mode: bool = True) -> "MiniLlava":
        self.vision.train(mode)
        self.connector.train(mode)
        self.llama.train(mode)
        return self

    def eval(self) -> "MiniLlava":
        return self.train(False)

    # ------------------------------------------------------------------
    # Forward paths
    # ------------------------------------------------------------------
    @property
    def n_vision_tokens(self) -> int:
        return self.config.n_vision_tokens

    def encode_image(self, images: np.ndarray) -> Tensor:
        """Images -> vision embeddings in LM space ``(B, n_vision, dim)``."""
        return self.connector(self.vision(images))

    def build_input_embeds(self, images: np.ndarray, text_ids: np.ndarray) -> Tensor:
        """Concatenate vision embeddings and text token embeddings."""
        vis = self.encode_image(images)
        txt = self.llama.embed_tokens(text_ids)
        if vis.shape[0] != txt.shape[0]:
            raise ShapeError(
                f"batch mismatch: {vis.shape[0]} images vs {txt.shape[0]} text rows"
            )
        return concat([vis, txt], axis=1)

    def prefill(self, images: np.ndarray, text_ids: np.ndarray) -> Tuple[KVCache, np.ndarray]:
        """Process image + prompt; returns the primed cache and last logits.

        ``text_ids``: ``(B, Tp)`` or ``(Tp,)`` prompt ids (bos included by
        the caller).  Returns ``(cache, logits_last)`` where ``logits_last``
        is the ``(B, vocab)`` distribution for the first generated token.
        """
        text_ids = np.asarray(text_ids, dtype=np.int64)
        if text_ids.ndim == 1:
            text_ids = text_ids[None, :]
        x = self.build_input_embeds(images, text_ids)
        cache = self.llama.new_cache()
        total = x.shape[1]
        out = self.llama.forward_embeds(x, np.arange(total, dtype=np.int64), cache=cache)
        cache.set_segments(self.n_vision_tokens, text_ids.shape[1])
        return cache, out.logits.data[:, -1, :]

    def decode(self, token_ids: np.ndarray, cache: KVCache) -> LlamaOutput:
        """Decode new tokens against the cache (AR and fallback steps).

        The tokens continue at ``cache.next_position()`` and their fresh
        KV is appended to ``cache``.
        """
        return self.llama.forward(token_ids, cache=cache)

    # ------------------------------------------------------------------
    # Packed ragged-batch paths (docs/kernels.md)
    # ------------------------------------------------------------------
    def prefill_batch(
        self,
        images: Sequence[np.ndarray],
        text_rows: Sequence[np.ndarray],
    ) -> Tuple[List[KVCache], List[np.ndarray]]:
        """Prefill B requests as packed forwards; per-request results.

        ``images`` is the image batch — a stacked ``(B, ...)`` array or a
        sequence of per-request images — and ``text_rows[i]`` request
        ``i``'s prompt ids (ragged lengths allowed).  The requests run in
        consecutive groups of whole requests whose ``[vision][text]``
        rows sum to at most :data:`PREFILL_ROWS` (a longer request is a
        group of its own), which bounds a forward's activations.  Per
        group, the vision tower and connector run over its images (numpy
        loops the batch axis per image, so each image's embedding is
        bitwise equal to its solo encode), then the LM prefill runs as
        one cu-seqlen-packed forward over the group's rows; rows are
        M-independent (``docs/kernels.md`` §2), so the grouping changes
        no bit.  Returns per-request primed caches (segments set as in
        :meth:`prefill`) and the ``(1, vocab)`` last-position logits, in
        input order, bitwise identical to B solo prefills.  If a group
        raises, the others still run: one group re-raises its exception,
        several raise :class:`~repro.errors.PrefillGroupError`.
        Inference only: every stage runs its raw ``_infer_rows`` pass
        whatever the grad mode, and no ``Tensor`` is built.
        """
        if len(images) != len(text_rows):
            raise ShapeError(
                f"batch mismatch: {len(images)} images vs {len(text_rows)} text rows"
            )
        rows2d = [np.atleast_2d(np.asarray(ids, dtype=np.int64)) for ids in text_rows]
        outcomes = []
        for group in _row_groups([self.n_vision_tokens + ids.shape[1] for ids in rows2d]):
            try:
                outcome = self._prefill_group(
                    images[group.start:group.stop], rows2d[group.start:group.stop])
            # repro: allow[except-discipline] -- kept for the raise below: the other groups still run
            except Exception as exc:
                outcome = exc
            outcomes.append((group, outcome))
        failed = [outcome for _, outcome in outcomes if isinstance(outcome, Exception)]
        if failed:
            if len(outcomes) == 1:
                raise failed[0]
            raise PrefillGroupError(outcomes) from failed[0]
        return ([cache for _, (caches, _) in outcomes for cache in caches],
                [row for _, (_, logit_rows) in outcomes for row in logit_rows])

    def _prefill_group(
        self, images: Sequence[np.ndarray], rows2d: Sequence[np.ndarray],
    ) -> Tuple[List[KVCache], List[np.ndarray]]:
        """One group of :meth:`prefill_batch`: one vision pass, one packed LM forward."""
        if not isinstance(images, np.ndarray):
            # repro: allow[hotpath] -- prefill runs once per request, not per decode step
            images = np.stack([np.asarray(img) for img in images])
        vis = self.connector._infer_rows(self.vision._infer_rows(images))
        pieces: List[np.ndarray] = []
        position_rows: List[np.ndarray] = []
        caches: List[KVCache] = []
        for i, text_ids in enumerate(rows2d):
            pieces.append(vis[i : i + 1])
            pieces.append(self.llama.embed.lookup_data(text_ids))
            total = self.n_vision_tokens + text_ids.shape[1]
            position_rows.append(np.arange(total, dtype=np.int64))
            caches.append(self.llama.new_cache())
        outs = self.llama._infer_rows(
            # repro: allow[hotpath] -- packs the prefill rows once per request, not per decode step
            np.concatenate(pieces, axis=1), position_rows, caches, None
        )
        for cache, text_ids in zip(caches, rows2d):
            cache.set_segments(self.n_vision_tokens, text_ids.shape[1])
        return caches, [out.last_logits_data for out in outs]

    def decode_batch(
        self,
        token_rows: Sequence[np.ndarray],
        caches: Sequence[KVCache],
        position_rows: Optional[Sequence[np.ndarray]] = None,
        extra_blocked_rows: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> List[LlamaOutput]:
        """Batched :meth:`decode`: one packed forward over B feed rows.

        Used by the engine's packed verification round.  With two or
        more rows, every row must hold >= 2 tokens for the
        packing-stability contract to apply (verify feeds are
        ``1 + n_nodes >= 2`` tokens by construction); a single row runs
        exactly the solo :meth:`decode` kernels and may be any length.
        Every row's fresh KV is appended to its cache.  ``position_rows``
        (default: continue each cache) and ``extra_blocked_rows`` carry
        per-request feed positions — a tree's branches share positions —
        and ancestor masks, ``None`` for a chain.
        """
        return self.llama.forward_packed(
            list(token_rows), list(caches),
            position_rows=list(position_rows) if position_rows is not None else None,
            extra_blocked_rows=(
                list(extra_blocked_rows) if extra_blocked_rows is not None else None
            ),
        )

    def forward_train(self, images: np.ndarray, text_ids: np.ndarray,
                      cache: Optional[KVCache] = None) -> LlamaOutput:
        """Full teacher-forced pass for training and KV harvest.

        The returned logits/hidden cover vision + text positions; use
        :meth:`text_slice` to index the text part.  Given a fresh
        ``cache`` the pass writes every layer's K/V into it — how a
        no-grad caller harvests the KV, which an inference output does
        not keep.
        """
        x = self.build_input_embeds(images, text_ids)
        return self.llama.forward_embeds(
            x, np.arange(x.shape[1], dtype=np.int64), cache=cache
        )

    def text_slice(self, tensor: Tensor) -> Tensor:
        """Slice positions belonging to text out of a full-sequence tensor."""
        return tensor[:, self.n_vision_tokens :, ...]
