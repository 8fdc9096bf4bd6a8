"""Ragged (variable-length) batch packing: the cu-seqlen kernel layout.

A batch of B requests with lengths ``L_0..L_{B-1}`` is packed into one
``(1, sum(L_i), d)`` tensor plus an offsets vector ``cu`` (*cumulative
sequence lengths*, the flash-attention / vLLM idiom): request ``i`` owns
rows ``cu[i]:cu[i+1]``.  Every *row-wise* op of a transformer stack —
embedding gather, RMSNorm, the q/k/v/o projections, RoPE, the MLP — then
runs as **one** fused call over all rows instead of B per-request Python
dispatches.  Attention needs per-request structure, because request
``i``'s queries may attend to request ``i``'s keys alone: the packed
forward attends per request over that request's own cache views
(``caches[i].layer()``) at exactly the solo shapes.
So does the vocabulary-wide LM head, whose rows are not stable under
stacking (below).

Packing-stability contract
--------------------------
Packing is used by decode paths whose outputs must be **bitwise**
identical to the sequential per-request path (greedy speculative
decoding is lossless, and the serving tests assert token identity).
That works because of two empirical properties of the BLAS this repo
runs on, pinned by ``tests/nn/test_ragged.py::TestPackingStability``:

* **M >= 2 rows are stable under packing**: row ``r`` of
  ``(M, K) @ (K, N)`` is bitwise independent of ``M`` for every
  ``M >= 2`` at the layer widths — the kernel reduces over K identically
  per row, so stacking more rows on top never changes an existing row.
  Not at the LM head's vocabulary width (N = 84 on the smoke zoo), where
  rows change once 125 or more are stacked: it runs per request.
* **M == 1 is different**: a single-row matmul takes the gemv kernel,
  whose K-reduction order differs from the gemm kernel's once K is large
  enough (observed at K >= 64 in float32).  A lone row therefore may NOT
  be packed into a taller matrix.  Instead, B single-token requests are
  run *lockstep* as ``np.matmul((B, 1, K), (K, N))`` — numpy loops the
  batch axis, so each slice still takes the gemv kernel (bitwise equal
  to the solo call) while Python pays one dispatch instead of B.

Consequently: the verify/prefill paths (every row >= 2 tokens)
concatenate their rows into one cu-seqlen packed feed indexed by
:func:`cu_seqlens`, and the draft path (1 token per request per step)
uses lockstep ``(B, 1, d)`` batching.  Layout details and a worked
example live in ``docs/kernels.md``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["cu_seqlens", "row_extents", "tree_blocked"]


def cu_seqlens(lengths: Sequence[int]) -> np.ndarray:
    """Cumulative sequence-length offsets ``[0, L0, L0+L1, ...]``.

    The returned int64 vector has ``len(lengths) + 1`` entries; segment
    ``i`` of a packed tensor is ``packed[cu[i]:cu[i+1]]`` along the
    packed axis.
    """
    cu = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(np.asarray(lengths, dtype=np.int64), out=cu[1:])
    return cu


def row_extents(cu: np.ndarray) -> List[Tuple[int, int]]:
    """``(start, end)`` pairs per segment of a cu-seqlen offsets vector."""
    return [(int(cu[i]), int(cu[i + 1])) for i in range(len(cu) - 1)]


def tree_blocked(parents: Sequence[int]) -> np.ndarray:
    """Feed-local tree-attention mask; ``True`` marks blocked pairs.

    A speculation tree is serialized depth-first into a token list plus a
    parent-pointer array: ``parents[i]`` is the node index of node ``i``'s
    parent, with ``-1`` meaning a child of the *anchor* (the last committed
    token, fed as row 0 of the verification feed).  DFS serialization
    guarantees ``parents[i] < i``, so one forward pass over the parent
    pointers computes the full ancestor closure.

    The returned ``(n+1, n+1)`` boolean matrix covers the feed rows
    ``[anchor, node_0, .., node_{n-1}]``: row ``r`` may attend exactly to
    itself, the anchor, and its root-path ancestors — every sibling branch
    is blocked.  Committed-context keys are handled by the caller (they
    precede the anchor, so the plain causal rule already admits them; see
    :func:`repro.decoding.tree.tree_extra_blocked`).

    For a linear chain (``parents == [-1, 0, 1, ...]``) every earlier feed
    row is an ancestor, so the mask degenerates to the strict upper
    triangle — exactly the causal mask of a linear verify feed, which is
    what makes branch-factor-1 tree verification bitwise identical to the
    linear speculative path.
    """
    n = len(parents)
    allow = np.eye(n + 1, dtype=bool)
    allow[:, 0] = True
    for i, parent in enumerate(parents):
        p = int(parent)
        if not -1 <= p < i:
            raise ValueError(
                f"node {i} has parent {p}; DFS serialization requires -1 <= parent < node"
            )
        allow[i + 1] |= allow[p + 1]
    return ~allow
