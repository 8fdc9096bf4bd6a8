"""The executable spec of the inference kernels, on the ``Module`` layers' own pieces.

A call given a cache runs the raw kernels (``_infer_rows``) whatever the
grad mode (``docs/kernels.md`` §5), so the cached decoder forward and the
draft step the kernels must equal bit for bit are written here with
``Tensor`` ops, recording a graph: ``attn_norm``, ``project_qkv``,
:meth:`MultiHeadAttention.attend`, ``wo``, the MLP and :func:`attend_blocks`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Sequence, Tuple
from unittest.mock import patch

import numpy as np
import pytest

from repro.core.draft_head import AASDDraftHead
from repro.models.llama import LlamaOutput, MiniLlama
from repro.nn import functional as F
from repro.nn.attention import MultiHeadAttention, causal_mask, merge_heads
from repro.nn.tensor import Tensor, concat, no_grad


def attend_blocks(q: Tensor, blocks: Sequence[Tuple[Tensor, Tensor]]) -> Tensor:
    """:func:`repro.nn.attention.attend_blocks_data` on ``Tensor`` ops, in the same order."""
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = concat([q @ k.swapaxes(-1, -2) for k, _ in blocks], axis=-1) * scale
    weights = F.softmax(scores, axis=-1)
    out, start = None, 0
    for _, v in blocks:
        end = start + v.shape[2]
        part = weights[..., start:end] @ v
        out = part if out is None else out + part
        start = end
    return out


def forward_embeds(llama: MiniLlama, x: Tensor, positions: np.ndarray,
                   cache=None, extra_blocked: Optional[np.ndarray] = None) -> LlamaOutput:
    """``llama.forward_embeds`` over a cache, on ``Module`` pieces.

    Each layer attends the cache's keys joined with the fresh ones (a
    concatenation, where the kernels append and read the cache's view),
    then appends the fresh K/V; ``extra_blocked`` is OR'd with the causal
    mask, as a tree verify's ancestor mask is.
    """
    positions = np.asarray(positions, dtype=np.int64)
    past = cache is not None and cache.seq_len > 0
    keys = np.concatenate([cache.positions, positions]) if past else positions
    blocked = causal_mask(positions, keys)
    if extra_blocked is not None:
        blocked = blocked | np.asarray(extra_blocked, dtype=bool)
    hidden = x
    for layer, block in enumerate(llama.blocks):
        q, k, v = block.attn.project_qkv(block.attn_norm(hidden), positions)
        k_all, v_all = k, v
        if past:
            k_past, v_past = cache.layer(layer)
            k_all = concat([Tensor(np.asarray(k_past)), k], axis=2)
            v_all = concat([Tensor(np.asarray(v_past)), v], axis=2)
        attn = MultiHeadAttention.attend(q, k_all, v_all, blocked=blocked)
        hidden = hidden + block.attn.wo(merge_heads(attn))
        hidden = hidden + block.mlp(block.mlp_norm(hidden))
        if cache is not None:
            cache.append(layer, k.data, v.data)
    if cache is not None:
        cache.extend_positions(positions)
    normed = llama.norm(hidden)
    return LlamaOutput(logits=llama.lm_head(normed), hidden=normed)


def forward_packed_embeds(llama: MiniLlama, x: Tensor, position_rows, caches,
                          extra_blocked_rows=None):
    """``llama.forward_packed_embeds``: each packed row is its solo :func:`forward_embeds`."""
    outs, start = [], 0
    for i, (positions, cache) in enumerate(zip(position_rows, caches)):
        end = start + len(positions)
        outs.append(forward_embeds(
            llama, x[:, start:end, :], positions, cache,
            None if extra_blocked_rows is None else extra_blocked_rows[i],
        ))
        start = end
    return outs


def step(head: AASDDraftHead, token_id: int, position: int, hybrid,
         request_id=None, ancestor_rows=None) -> Tensor:
    """``head.step`` on ``Module`` pieces; returns the ``(1, 1, vocab)`` logits ``Tensor``."""
    del request_id
    x = head.embed(np.asarray([[token_id]], dtype=np.int64))
    q, k, v = head.qkv(head.attn_norm(x), np.asarray([position], dtype=np.int64))
    blocks = [(Tensor(kb), Tensor(vb)) for kb, vb in head._attended(hybrid, ancestor_rows)]
    attn = attend_blocks(q, [*blocks, (k, v)])
    x = x + head.wo(merge_heads(attn))
    x = x + head.mlp(head.mlp_norm(x))
    hybrid.append_draft(k.data, v.data)
    return head.lm_head(head.out_norm(x))


class Spec:
    """Runs code with the functions above in place of the inference entry points."""

    @contextmanager
    def recording(self):
        """``MiniLlama.forward_embeds`` / ``forward_packed_embeds`` and
        ``AASDDraftHead.step`` run as the spec; yields the logits
        ``Tensor`` of every spec call."""
        graphs = []

        def embeds(llama, *args, **kwargs):
            out = forward_embeds(llama, *args, **kwargs)
            graphs.append(out.logits)
            return out

        def packed(llama, *args, **kwargs):
            outs = forward_packed_embeds(llama, *args, **kwargs)
            graphs.extend(out.logits for out in outs)
            return outs

        def draft(head, *args, **kwargs):
            graphs.append(step(head, *args, **kwargs))
            return graphs[-1].data[0, -1]

        with patch.object(MiniLlama, "forward_embeds", embeds), \
                patch.object(MiniLlama, "forward_packed_embeds", packed), \
                patch.object(AASDDraftHead, "step", draft):
            yield graphs

    def both(self, build):
        """``build()`` under the spec, then with gradients off (the kernels).

        The spec side must make a spec call, and every one must record a graph.
        """
        with self.recording() as graphs:
            made = build()
        assert graphs and all(logits.requires_grad for logits in graphs)
        with no_grad():
            fast = build()
        return made, fast


@pytest.fixture(scope="session")
def spec() -> Spec:
    """:class:`Spec`, the test-side cached forward and draft step."""
    return Spec()
