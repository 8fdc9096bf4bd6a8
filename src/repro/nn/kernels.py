"""Raw-ndarray inference kernels that bitwise-mirror the autograd layers.

Gradients off => raw kernels, one row or many: every no-grad forward of
``MiniLlama`` and ``AASDDraftHead`` — solo or packed (``docs/kernels.md``)
— runs on these helpers, and promises **bitwise** identity with what the
``Module`` layers compute when a graph is recorded.  So they replay the
*exact* numpy op sequence of their :mod:`repro.nn` counterparts — same
ufuncs, same order, same scalar-promotion behaviour (python scalars are
wrapped with ``np.asarray`` exactly where ``as_tensor`` would wrap them) —
minus the per-op graph-node allocations.  GEMMs go through
:func:`repro.nn.tensor.matmul_data` so the wall-clock profiler keeps
attributing them to the ``gemm`` bucket, and stay one product per weight:
fusing q|k|v or gate|up along N changes bits on this BLAS
(``docs/kernels.md`` §2).

Only inference may call these: they take and return plain ``np.ndarray``
and build no autograd graph.  Training code must keep using the layer
``Module`` objects.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import matmul_data

__all__ = [
    "linear_data",
    "rmsnorm_data",
    "sigmoid_data",
    "silu_data",
    "swiglu_data",
    "split_heads_data",
    "merge_heads_data",
    "rope_data",
    "project_qkv_data",
    "block_tail_data",
]


def linear_data(
    x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None
) -> np.ndarray:
    """``x @ W^T (+ b)`` with ``weight`` in the ``(out, in)`` layout of
    :class:`repro.nn.layers.Linear`."""
    out = matmul_data(x, weight.swapaxes(-1, -2))
    if bias is not None:
        out = out + bias
    return out


def rmsnorm_data(x: np.ndarray, weight: np.ndarray, eps: float) -> np.ndarray:
    """:class:`repro.nn.normalization.RMSNorm` on raw arrays.

    Mirrors ``x / sqrt(mean(x*x) + eps) * weight`` where the mean is
    computed as ``sum * (1/n)`` — the decomposition ``Tensor.mean`` uses —
    so the reduction order (and hence every bit) matches the layer.  The
    final scale runs in place on the quotient (same product, one fewer
    ``(sum_tokens, D)`` temporary).
    """
    ms = (x * x).sum(axis=-1, keepdims=True) * np.asarray(1.0 / x.shape[-1])
    out = x / np.sqrt(ms + np.asarray(eps))
    out *= weight
    return out


def sigmoid_data(x: np.ndarray) -> np.ndarray:
    """Logistic function, the ``1/(1 + exp(-x))`` form ``Tensor.sigmoid`` uses.

    Runs in place on the ``-x`` copy: ``t += 1.0`` and ``1/t`` produce the
    exact bits of ``1.0 + exp(-x)`` and ``1.0 / (...)`` (IEEE addition is
    commutative) with three fewer full-size temporaries.
    """
    t = np.negative(x)
    np.exp(t, out=t)
    t += 1.0
    np.divide(1.0, t, out=t)
    return t


def silu_data(x: np.ndarray) -> np.ndarray:
    """SiLU / swish: ``x * sigmoid(x)``, multiplied in place on the sigmoid."""
    s = sigmoid_data(x)
    np.multiply(x, s, out=s)
    return s


def swiglu_data(
    x: np.ndarray, gate_w: np.ndarray, up_w: np.ndarray, down_w: np.ndarray
) -> np.ndarray:
    """:class:`repro.nn.transformer.SwiGLU` MLP: ``down(silu(gate(x)) * up(x))``."""
    gated = silu_data(linear_data(x, gate_w))
    gated *= linear_data(x, up_w)
    return linear_data(gated, down_w)


def split_heads_data(x: np.ndarray, n_heads: int) -> np.ndarray:
    """``(B, T, D) -> (B, H, T, D/H)`` (zero-copy view chain)."""
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def merge_heads_data(x: np.ndarray) -> np.ndarray:
    """``(B, H, T, Dh) -> (B, T, H*Dh)``."""
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def rope_data(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotary transform ``x*cos + rotate_half(x)*sin`` on raw arrays.

    ``cos``/``sin`` are the float32 tables from
    :meth:`repro.nn.rope.RotaryEmbedding.tables`; the float64 activations
    promote exactly as in the autograd path.
    """
    half = x.shape[-1] // 2
    x1 = x[..., :half]
    x2 = x[..., half:]
    out = x * cos
    # repro: allow[hotpath-reach] -- the rotate-half buffer IS the RoPE math; O(feed), freed immediately
    rot = np.concatenate([-x2, x1], axis=-1)
    rot *= sin
    out += rot
    return out


def project_qkv_data(
    proj, n_heads: int, x: np.ndarray,
    rope: Optional[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`MultiHeadAttention.project_qkv` on raw arrays.

    ``proj`` holds the ``wq`` / ``wk`` / ``wv`` ``Linear`` layers (a
    :class:`repro.nn.attention.MultiHeadAttention`, or the draft head);
    ``rope`` is the ``(cos, sin)`` pair already gathered at the rows'
    positions, or ``None`` for a layer without rotary embedding.  The
    tables depend on positions only, so the caller gathers them once per
    forward and every layer reuses them.  Returns per-head ``(q, k, v)``
    with RoPE applied to ``q`` and ``k``.
    """
    q = split_heads_data(linear_data(x, proj.wq.weight.data), n_heads)
    k = split_heads_data(linear_data(x, proj.wk.weight.data), n_heads)
    v = split_heads_data(linear_data(x, proj.wv.weight.data), n_heads)
    if rope is not None:
        q = rope_data(q, *rope)
        k = rope_data(k, *rope)
    return q, k, v


def block_tail_data(
    x: np.ndarray, attn_out: np.ndarray, wo, mlp_norm, mlp
) -> np.ndarray:
    """Everything a pre-norm block does after attention, on raw arrays.

    ``h = x + wo(merge_heads(attn_out))`` then ``h + mlp(mlp_norm(h))``,
    for the ``Linear`` / ``RMSNorm`` / ``SwiGLU`` modules passed in (the
    target's decoder blocks and the draft head hold them on different
    owners).  Both residuals accumulate in place into the fresh branch
    output — bitwise equal, IEEE addition is commutative.
    """
    h = linear_data(merge_heads_data(attn_out), wo.weight.data)
    h += x
    out = swiglu_data(
        rmsnorm_data(h, mlp_norm.weight.data, mlp_norm.eps),
        mlp.gate.weight.data, mlp.up.weight.data, mlp.down.weight.data,
    )
    out += h
    return out
