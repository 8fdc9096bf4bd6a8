"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the ``repro`` NN substrate: a small,
explicit autodiff engine in the style of PyTorch's eager mode.  A
:class:`Tensor` wraps a ``numpy.ndarray`` together with an optional gradient
and a backward closure; calling :meth:`Tensor.backward` runs reverse-mode
differentiation over the recorded graph.

Design notes
------------
* Broadcasting follows numpy semantics everywhere.  Gradients flowing into a
  broadcast operand are reduced back to the operand's shape by
  :func:`unbroadcast`.
* The graph is built eagerly.  Each op attaches a ``_backward`` closure to its
  output; :meth:`Tensor.backward` topologically sorts the graph and invokes
  the closures in reverse order.
* Only ops used by the AASD reproduction are implemented, but each is a
  general-purpose primitive (matmul with batch dims, reductions with axes,
  slicing, concatenation, gather, ...).
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs.profile import OP_GEMM, OP_GEMM_CAST, PROFILER as _PROFILER

__all__ = [
    "Tensor",
    "as_tensor",
    "matmul_data",
    "no_grad",
    "is_grad_enabled",
    "unbroadcast",
    "concat",
    "stack",
    "where",
]

Scalar = Union[int, float]
TensorLike = Union["Tensor", np.ndarray, Scalar, Sequence]

_DEFAULT_DTYPE = np.float32


class _GradMode:
    """Process-wide switch for gradient recording (see :func:`no_grad`)."""

    enabled: bool = True


class no_grad:
    """Context manager that disables graph construction.

    Inside a ``with no_grad():`` block all ops produce detached tensors.
    Used by inference paths (generation, speculative decoding) where graph
    bookkeeping would only waste memory.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _GradMode.enabled
        _GradMode.enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        _GradMode.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether ops currently record the autodiff graph."""
    return _GradMode.enabled


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting.

    Sums over leading axes that were added by broadcasting and over axes
    whose original extent was 1.
    """
    if grad.shape == shape:
        return grad
    # Sum out prepended broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def matmul_data(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.matmul`` with the repo's GEMM attribution hook.

    Every GEMM in the repo flows through here (``Tensor.__matmul__``
    delegates, and the inference kernels — e.g.
    :func:`repro.nn.attention.attend_data` — call it directly), so this
    one hook gives complete compute attribution.  A
    product of two dtypes is booked as ``gemm_cast``: numpy copies the
    narrower operand into a fresh buffer first, the per-call cost the
    inference operands (:mod:`repro.nn.kernels`) exist to remove.  One
    flag check when profiling is off; timing only (no RNG, no copies)
    when on.
    """
    if _PROFILER.enabled:
        begin = time.perf_counter()
        product = np.matmul(a, b)
        _PROFILER.record(
            OP_GEMM if a.dtype == b.dtype else OP_GEMM_CAST,
            1000.0 * (time.perf_counter() - begin),
            flops=2.0 * product.size * a.shape[-1],
        )
        return product
    return np.matmul(a, b)


class Tensor:
    """A numpy array with reverse-mode autodiff support."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(
        self,
        data: TensorLike,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind in "fc" and arr.dtype != np.float64:
            arr = arr.astype(_DEFAULT_DTYPE, copy=False)
        elif arr.dtype.kind in "iub":
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward = None
        self._prev: Tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=_DEFAULT_DTYPE), requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=_DEFAULT_DTYPE), requires_grad)

    @staticmethod
    def full(shape: Sequence[int], value: Scalar, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.full(shape, value, dtype=_DEFAULT_DTYPE), requires_grad)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut off from the graph."""
        return Tensor(self.data)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), self.requires_grad)

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    def _make_child(self, data: np.ndarray, parents: Tuple["Tensor", ...]) -> "Tensor":
        out = Tensor(data)
        if _GradMode.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._prev = tuple(p for p in parents if p.requires_grad)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None else grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient; defaults to ones (scalar outputs only need
            the default).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar output")
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=self.data.dtype).reshape(self.data.shape)

        topo: list = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic primitives
    # ------------------------------------------------------------------
    def __add__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)
        out = self._make_child(self.data + other.data, (self, other))
        if out.requires_grad:
            def _backward(grad: np.ndarray, a=self, b=other) -> None:
                if a.requires_grad:
                    a._accumulate(grad)
                if b.requires_grad:
                    b._accumulate(grad)
            out._backward = _backward
        return out

    __radd__ = __add__

    def __mul__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)
        out = self._make_child(self.data * other.data, (self, other))
        if out.requires_grad:
            def _backward(grad: np.ndarray, a=self, b=other) -> None:
                if a.requires_grad:
                    a._accumulate(grad * b.data)
                if b.requires_grad:
                    b._accumulate(grad * a.data)
            out._backward = _backward
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: TensorLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)
        out = self._make_child(self.data / other.data, (self, other))
        if out.requires_grad:
            def _backward(grad: np.ndarray, a=self, b=other) -> None:
                if a.requires_grad:
                    a._accumulate(grad / b.data)
                if b.requires_grad:
                    b._accumulate(-grad * a.data / (b.data * b.data))
            out._backward = _backward
        return out

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: Scalar) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")
        out = self._make_child(self.data ** exponent, (self,))
        if out.requires_grad:
            def _backward(grad: np.ndarray, a=self, p=exponent) -> None:
                a._accumulate(grad * p * (a.data ** (p - 1)))
            out._backward = _backward
        return out

    def __matmul__(self, other: TensorLike) -> "Tensor":
        other = as_tensor(other)
        product = matmul_data(self.data, other.data)
        out = self._make_child(product, (self, other))
        if out.requires_grad:
            def _backward(grad: np.ndarray, a=self, b=other) -> None:
                if a.requires_grad:
                    if b.data.ndim == 1:
                        a._accumulate(np.outer(grad, b.data) if a.data.ndim > 1 else grad * b.data)
                    else:
                        ga = np.matmul(grad, np.swapaxes(b.data, -1, -2))
                        a._accumulate(ga)
                if b.requires_grad:
                    if a.data.ndim == 1:
                        gb = np.outer(a.data, grad) if b.data.ndim > 1 else grad * a.data
                        b._accumulate(gb)
                    else:
                        gb = np.matmul(np.swapaxes(a.data, -1, -2), grad)
                        b._accumulate(gb)
            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        out = self._make_child(data, (self,))
        if out.requires_grad:
            def _backward(grad: np.ndarray, a=self, y=data) -> None:
                a._accumulate(grad * y)
            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = self._make_child(np.log(self.data), (self,))
        if out.requires_grad:
            def _backward(grad: np.ndarray, a=self) -> None:
                a._accumulate(grad / a.data)
            out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)
        out = self._make_child(data, (self,))
        if out.requires_grad:
            def _backward(grad: np.ndarray, a=self, y=data) -> None:
                a._accumulate(grad / (2.0 * y))
            out._backward = _backward
        return out

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        out = self._make_child(data, (self,))
        if out.requires_grad:
            def _backward(grad: np.ndarray, a=self, y=data) -> None:
                a._accumulate(grad * (1.0 - y * y))
            out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))
        out = self._make_child(data, (self,))
        if out.requires_grad:
            def _backward(grad: np.ndarray, a=self, y=data) -> None:
                a._accumulate(grad * y * (1.0 - y))
            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self._make_child(self.data * mask, (self,))
        if out.requires_grad:
            def _backward(grad: np.ndarray, a=self, m=mask) -> None:
                a._accumulate(grad * m)
            out._backward = _backward
        return out

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out = self._make_child(np.abs(self.data), (self,))
        if out.requires_grad:
            def _backward(grad: np.ndarray, a=self, s=sign) -> None:
                a._accumulate(grad * s)
            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out = self._make_child(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            def _backward(grad: np.ndarray, a=self, ax=axis, kd=keepdims) -> None:
                g = grad
                if ax is not None and not kd:
                    axes = (ax,) if isinstance(ax, int) else tuple(ax)
                    for axis_idx in sorted(a2 % a.data.ndim for a2 in axes):
                        g = np.expand_dims(g, axis_idx)
                a._accumulate(np.broadcast_to(g, a.data.shape))
            out._backward = _backward
        return out

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make_child(data, (self,))
        if out.requires_grad:
            def _backward(grad: np.ndarray, a=self, ax=axis, kd=keepdims, y=data) -> None:
                g = grad
                yk = y
                if ax is not None and not kd:
                    g = np.expand_dims(g, ax)
                    yk = np.expand_dims(y, ax)
                mask = (a.data == yk)
                # Split gradient among ties to keep gradcheck exact.
                counts = mask.sum(axis=ax, keepdims=True) if ax is not None else mask.sum()
                a._accumulate(g * mask / counts)
            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make_child(self.data.reshape(shape), (self,))
        if out.requires_grad:
            def _backward(grad: np.ndarray, a=self) -> None:
                a._accumulate(grad.reshape(a.data.shape))
            out._backward = _backward
        return out

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = self._make_child(self.data.transpose(axes), (self,))
        if out.requires_grad:
            inverse = tuple(np.argsort(axes))
            def _backward(grad: np.ndarray, a=self, inv=inverse) -> None:
                a._accumulate(grad.transpose(inv))
            out._backward = _backward
        return out

    def swapaxes(self, a: int, b: int) -> "Tensor":
        out = self._make_child(np.swapaxes(self.data, a, b), (self,))
        if out.requires_grad:
            def _backward(grad: np.ndarray, t=self, i=a, j=b) -> None:
                t._accumulate(np.swapaxes(grad, i, j))
            out._backward = _backward
        return out

    def __getitem__(self, index) -> "Tensor":
        out = self._make_child(self.data[index], (self,))
        if out.requires_grad:
            def _backward(grad: np.ndarray, a=self, idx=index) -> None:
                full = np.zeros_like(a.data)
                np.add.at(full, idx, grad)
                a._accumulate(full)
            out._backward = _backward
        return out

    def take_along_axis(self, indices: np.ndarray, axis: int) -> "Tensor":
        """Differentiable gather along ``axis`` (``np.take_along_axis``)."""
        indices = np.asarray(indices)
        out = self._make_child(np.take_along_axis(self.data, indices, axis=axis), (self,))
        if out.requires_grad:
            def _backward(grad: np.ndarray, a=self, idx=indices, ax=axis) -> None:
                full = np.zeros_like(a.data)
                # np.put_along_axis overwrites; accumulate by explicit loop-free add.
                _scatter_add_along_axis(full, idx, grad, ax)
                a._accumulate(full)
            out._backward = _backward
        return out

    def pad(self, pad_width: Sequence[Tuple[int, int]]) -> "Tensor":
        out = self._make_child(np.pad(self.data, pad_width), (self,))
        if out.requires_grad:
            slices = tuple(slice(lo, lo + s) for (lo, _), s in zip(pad_width, self.data.shape))
            def _backward(grad: np.ndarray, a=self, sl=slices) -> None:
                a._accumulate(grad[sl])
            out._backward = _backward
        return out

    def masked_fill(self, mask: np.ndarray, value: Scalar) -> "Tensor":
        """Return a tensor equal to ``self`` where ``mask`` is False and ``value`` elsewhere."""
        mask = np.asarray(mask, dtype=bool)
        data = np.where(mask, np.asarray(value, dtype=self.data.dtype), self.data)
        out = self._make_child(data, (self,))
        if out.requires_grad:
            def _backward(grad: np.ndarray, a=self, m=mask) -> None:
                a._accumulate(np.where(m, 0.0, grad))
            out._backward = _backward
        return out


def _scatter_add_along_axis(target: np.ndarray, indices: np.ndarray, values: np.ndarray, axis: int) -> None:
    """In-place scatter-add of ``values`` into ``target`` along ``axis``."""
    axis = axis % target.ndim
    grids = list(np.indices(indices.shape))
    grids[axis] = indices
    np.add.at(target, tuple(grids), values)


def as_tensor(value: TensorLike) -> Tensor:
    """Coerce ``value`` into a :class:`Tensor` (no copy for tensors)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    # repro: allow[hotpath] -- concat() is the allocation primitive itself; callers own the budget
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = Tensor(data)
    if _GradMode.enabled and any(t.requires_grad for t in tensors):
        out.requires_grad = True
        out._prev = tuple(t for t in tensors if t.requires_grad)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        def _backward(grad: np.ndarray, ts=tensors, offs=offsets, ax=axis) -> None:
            ax_norm = ax % grad.ndim
            for t, lo, hi in zip(ts, offs[:-1], offs[1:]):
                if t.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[ax_norm] = slice(lo, hi)
                    t._accumulate(grad[tuple(slicer)])
        out._backward = _backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    out = Tensor(data)
    if _GradMode.enabled and any(t.requires_grad for t in tensors):
        out.requires_grad = True
        out._prev = tuple(t for t in tensors if t.requires_grad)
        def _backward(grad: np.ndarray, ts=tensors, ax=axis) -> None:
            pieces = np.split(grad, len(ts), axis=ax)
            for t, piece in zip(ts, pieces):
                if t.requires_grad:
                    t._accumulate(np.squeeze(piece, axis=ax))
        out._backward = _backward
    return out


def where(condition: np.ndarray, a: TensorLike, b: TensorLike) -> Tensor:
    """Differentiable ``np.where`` over tensors ``a`` and ``b``."""
    condition = np.asarray(condition, dtype=bool)
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(np.where(condition, a.data, b.data))
    if _GradMode.enabled and (a.requires_grad or b.requires_grad):
        out.requires_grad = True
        out._prev = tuple(t for t in (a, b) if t.requires_grad)
        def _backward(grad: np.ndarray, c=condition, ta=a, tb=b) -> None:
            if ta.requires_grad:
                ta._accumulate(np.where(c, grad, 0.0))
            if tb.requires_grad:
                tb._accumulate(np.where(c, 0.0, grad))
        out._backward = _backward
    return out
