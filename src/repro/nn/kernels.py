"""Raw-ndarray inference kernels that bitwise-mirror the autograd layers.

Gradients off => raw kernels, one row or many: every no-grad forward of
``MiniLlama``, ``AASDDraftHead``, the vision tower, the connector and the
KV projector — solo or packed (``docs/kernels.md``) — runs on these
helpers, and promises **bitwise** identity with what the ``Module``
layers compute when a graph is recorded.  So they replay the *exact*
numpy op sequence of their :mod:`repro.nn` counterparts — same ufuncs,
same order, same scalar-promotion behaviour (python scalars are wrapped
with ``np.asarray`` exactly where ``as_tensor`` would wrap them) — minus
the per-op graph-node allocations.  GEMMs go through
:func:`repro.nn.tensor.matmul_data` so the wall-clock profiler keeps
attributing them to the ``gemm`` bucket, and stay one product per weight:
fusing q|k|v or gate|up along N changes bits on this BLAS
(``docs/kernels.md`` §2).

Operands: the zoo stores float32 weights while every inference
activation past the first norm is float64, so numpy would cast each
weight into a fresh float64 buffer on every product.  :func:`operand`
is the one accessor the kernels read weights and scales through; while
an engine pins a model (:func:`pin_operands`) it returns that buffer
built once — the C-contiguous float64 array numpy's mixed-dtype
``matmul`` builds per call, so every product keeps its bits
(``tests/nn/test_operands.py``).

Only inference may call these: they take and return plain ``np.ndarray``
and build no autograd graph.  Training code must keep using the layer
``Module`` objects.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from .module import STORED
from .rope import RotaryEmbedding
from .tensor import matmul_data

__all__ = [
    "operand",
    "operand_nbytes",
    "pin_operands",
    "linear_data",
    "rmsnorm_data",
    "layernorm_data",
    "gelu_data",
    "sigmoid_data",
    "silu_data",
    "swiglu_data",
    "split_heads_data",
    "merge_heads_data",
    "rope_tables_data",
    "rope_data",
    "project_qkv_data",
    "block_tail_data",
]


class _Pin:
    """A pinned parameter's state: how many holders it has, and its operand.

    Once a float32 weight's operand is built it is the weight's one
    stored copy: the parameter drops its float32 array (its ``STORED``
    slot reads ``None``) and :meth:`rebuild` restores it exactly on the
    first raw read of ``param.data`` (an embedding lookup, the patch
    embed, ``state_dict``, an optimizer).  A rebuilt array is ``frozen``
    — read-only — until release, so an in-place write raises instead of
    leaving the operand stale.  ``shape`` and ``dtype`` describe the
    dropped array, so reading them rebuilds nothing.
    """

    __slots__ = ("count", "array", "transpose", "shape", "dtype", "frozen")

    def __init__(self) -> None:
        self.count = 0
        self.array: Optional[np.ndarray] = None
        self.transpose = False
        self.shape: Tuple[int, ...] = ()
        self.dtype = None
        self.frozen: Optional[np.ndarray] = None

    def prepare(self, param, transpose: bool) -> np.ndarray:
        """Build ``param``'s operand; it becomes the stored copy of a cast weight."""
        data = STORED.__get__(param)
        view = data.swapaxes(-1, -2) if transpose else data
        if data.dtype == np.float64:
            # a float64 parameter is read as stored: there is nothing to cast
            self.array = view
            return view
        array = np.ascontiguousarray(view, dtype=np.float64)
        self.array, self.transpose = array, transpose
        self.shape, self.dtype = data.shape, data.dtype
        STORED.__set__(param, None)
        if not self.count and STORED.__get__(param) is None:
            # the last holder released meanwhile (a collected engine's
            # finalizer can run inside any allocation here): keep the array
            STORED.__set__(param, data)
            self.array = None
        return array

    def restored(self) -> np.ndarray:
        """The dropped array, bit for bit: float64 holds every float32 exactly."""
        array = self.array.swapaxes(-1, -2) if self.transpose else self.array
        return np.ascontiguousarray(array, dtype=self.dtype)

    def rebuild(self, param) -> np.ndarray:
        """``param.data`` after its array was dropped: rebuilt, read-only until release."""
        data = self.restored()
        stored = STORED.__get__(param)
        if stored is not None:
            return stored           # a release inside the allocation restored it
        data.flags.writeable = False
        self.frozen = data
        STORED.__set__(param, data)
        return data

    def forget(self) -> None:
        """Drop the operand: the parameter's array is being replaced."""
        if self.frozen is not None:
            self.frozen.flags.writeable = True
        self.array = self.frozen = None

    def release(self, param) -> None:
        """Hand ``param`` back a writeable float32 array and drop the operand."""
        if STORED.__get__(param) is None:
            STORED.__set__(param, self.restored())
        self.forget()


def operand(param, transpose: bool = False) -> np.ndarray:
    """The array a no-grad forward reads for ``param``: the one accessor.

    ``transpose`` reads a weight stored ``(out, in)`` as ``(in, out)``
    (a ``Linear`` weight, a tied LM head); a parameter is always read in
    the same layout.  While ``param`` is pinned this is a float64 array
    built once per parameter array — for a float32 weight, the
    C-contiguous copy numpy's mixed-dtype ``matmul`` (or ufunc) would
    otherwise build on every call, so products and scales keep their
    bits — and that copy is then the weight's stored one (``_Pin``).
    Unpinned, it is the stored array itself and numpy casts per call, as
    the ``Module`` path does.
    """
    pin: Optional[_Pin] = param.pin
    if pin is None:
        data = param.data
        return data.swapaxes(-1, -2) if transpose else data
    if pin.array is not None:
        return pin.array
    return pin.prepare(param, transpose)


def pin_operands(params: Iterable) -> Callable[[], None]:
    """Pin ``params``' operands until the returned ``release`` is called.

    Pins count: operands are built on first read and live until the last
    holder releases, when they are dropped and every weight holds a
    writeable float32 array again, bit-identical to the one pinned.
    :class:`repro.core.engine.AASDEngine` pins its target and drafter at
    construction and releases when it is collected.
    """
    held = list({id(p): p for p in params}.values())
    for p in held:
        if p.pin is None:
            p.pin = _Pin()
        p.pin.count += 1

    def release() -> None:
        for p in held:
            p.pin.count -= 1
            if not p.pin.count:
                p.pin.release(p)
                p.pin = None

    return release


def operand_nbytes(params: Iterable) -> int:
    """Bytes the built operands of ``params`` hold beyond the stored arrays.

    A float32 weight's operand is its stored copy once built, so it
    counts only while the float32 array is held too (rebuilt by a raw
    read, as a tied embedding's lookup does); a float64 parameter is read
    as stored.  A parameter that is not pinned, or whose operand was not
    read yet, counts zero.  Nothing is rebuilt to answer.
    """
    total = 0
    for p in {id(p): p for p in params}.values():
        pin: Optional[_Pin] = p.pin
        if pin is None or pin.array is None:
            continue
        stored = STORED.__get__(p)
        if stored is not None and not np.may_share_memory(pin.array, stored):
            total += pin.array.nbytes
    return total


def linear_data(x: np.ndarray, layer) -> np.ndarray:
    """:class:`repro.nn.layers.Linear` on raw arrays: ``x @ W^T (+ b)``.

    ``x`` is float64, as every inference activation past the first norm
    is; the weight and bias are read through :func:`operand`.
    """
    out = matmul_data(x, operand(layer.weight, transpose=True))
    if layer.bias is not None:
        out += operand(layer.bias)
    return out


def rmsnorm_data(x: np.ndarray, norm) -> np.ndarray:
    """:class:`repro.nn.normalization.RMSNorm` on raw arrays.

    Mirrors ``x / sqrt(mean(x*x) + eps) * weight`` where the mean is
    computed as ``sum * (1/n)`` — the decomposition ``Tensor.mean`` uses —
    so the reduction order (and hence every bit) matches the layer.  The
    final scale runs in place on the quotient (same product, one fewer
    ``(sum_tokens, D)`` temporary).
    """
    ms = (x * x).sum(axis=-1, keepdims=True) * np.asarray(1.0 / x.shape[-1])
    out = x / np.sqrt(ms + np.asarray(norm.eps))
    out *= operand(norm.weight)
    return out


def layernorm_data(x: np.ndarray, norm) -> np.ndarray:
    """:class:`repro.nn.normalization.LayerNorm` on raw arrays.

    Both means are ``sum * (1/n)`` as in ``Tensor.mean``; ``x - mean`` is
    the bits of the layer's ``x + (mean * -1.0)`` (negation is exact).
    The quotient, scale and shift run in place on the fresh centred copy.
    """
    inv_n = np.asarray(1.0 / x.shape[-1])
    out = x - x.sum(axis=-1, keepdims=True) * inv_n
    var = (out * out).sum(axis=-1, keepdims=True) * inv_n
    out /= np.sqrt(var + np.asarray(norm.eps))
    out *= operand(norm.weight)
    out += operand(norm.bias)
    return out


_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def gelu_data(x: np.ndarray) -> np.ndarray:
    """:func:`repro.nn.functional.gelu` (tanh form) on float64 raw arrays.

    ``x * 0.5 * (tanh((x + x*x*x * c) * sqrt(2/pi)) + 1)`` in the layer's
    order, accumulating in place on two fresh temporaries.
    """
    t = x * x
    t *= x
    t *= np.asarray(0.044715)
    t += x
    t *= np.asarray(_SQRT_2_OVER_PI)
    np.tanh(t, out=t)
    t += np.asarray(1.0)
    out = x * np.asarray(0.5)
    out *= t
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


def swiglu_data(x: np.ndarray, mlp) -> np.ndarray:
    """:class:`repro.nn.transformer.SwiGLU` MLP: ``down(silu(gate(x)) * up(x))``."""
    gated = silu_data(linear_data(x, mlp.gate))
    gated *= linear_data(x, mlp.up)
    return linear_data(gated, mlp.down)


def split_heads_data(x: np.ndarray, n_heads: int) -> np.ndarray:
    """``(B, T, D) -> (B, H, T, D/H)`` (zero-copy view chain)."""
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def merge_heads_data(x: np.ndarray) -> np.ndarray:
    """``(B, H, T, Dh) -> (B, T, H*Dh)``."""
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def rope_tables_data(rope: RotaryEmbedding,
                     positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``rope.tables(positions)`` cast to float64 once per forward.

    :meth:`repro.nn.rope.RotaryEmbedding.tables` stores float32; every
    q/k it rotates is float64, so the layers' products cast the pair on
    each use.  Casting is exact, so the rotated bits are unchanged.
    """
    cos, sin = rope.tables(positions)
    return cos.astype(np.float64), sin.astype(np.float64)


def rope_data(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotary transform ``x*cos + rotate_half(x)*sin`` on raw arrays.

    ``cos``/``sin`` are the tables from :func:`rope_tables_data`,
    gathered at the rows' positions.
    """
    half = x.shape[-1] // 2
    x1 = x[..., :half]
    x2 = x[..., half:]
    out = x * cos
    # repro: allow[hotpath] -- the rotate-half buffer IS the RoPE math; O(feed), freed immediately
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
    ``rope`` is the :func:`rope_tables_data` pair already gathered at the
    rows' positions, or ``None`` for a layer without rotary embedding.
    The tables depend on positions only, so the caller gathers them once
    per forward and every layer reuses them.  Returns per-head ``(q, k, v)``
    with RoPE applied to ``q`` and ``k``.
    """
    q = split_heads_data(linear_data(x, proj.wq), n_heads)
    k = split_heads_data(linear_data(x, proj.wk), n_heads)
    v = split_heads_data(linear_data(x, proj.wv), n_heads)
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
    h = linear_data(merge_heads_data(attn_out), wo)
    h += x
    out = swiglu_data(rmsnorm_data(h, mlp_norm), mlp)
    out += h
    return out
