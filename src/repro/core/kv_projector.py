"""Vision KV Projector: sequence-dimension compression of the image KV.

Paper Eq. (3): ``K* = W_K K_I`` and ``V* = W_V V_I`` with
``W_K, W_V in R^{k x n}`` — learned projections over the *sequence*
dimension that squeeze the n vision-token KV pairs cached by the target
model into k compressed pairs (the paper uses k=64 for LLaVA's 576 vision
tokens, removing ~90% of the redundancy; we default to k=8 of 36 at
simulator scale).

The projection is shared across attention heads and across the K/V feature
dimension, exactly as the matrix form in the paper implies.  Weights are
initialised to block average-pooling plus noise, a good inductive bias for a
compressor.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigError, ShapeError
from ..nn.kernels import operand
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor, as_tensor, is_grad_enabled, matmul_data
from ..utils.rng import derive

__all__ = ["KVProjector"]


def _pooling_init(k: int, n: int, rng: np.random.Generator, noise: float = 0.02) -> np.ndarray:
    """Block average-pooling matrix with Gaussian perturbation."""
    weight = np.zeros((k, n), dtype=np.float32)
    edges = np.linspace(0, n, k + 1).astype(int)
    for row, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        hi = max(hi, lo + 1)
        weight[row, lo:hi] = 1.0 / (hi - lo)
    return weight + (rng.standard_normal((k, n)) * noise).astype(np.float32)


class KVProjector(Module):
    """Compress ``(B, H, n, Dh)`` vision KV into ``(B, H, k, Dh)``."""

    def __init__(
        self,
        n_vision_tokens: int,
        k_compressed: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if not 0 < k_compressed <= n_vision_tokens:
            raise ConfigError(
                f"k_compressed must be in (0, {n_vision_tokens}], got {k_compressed}"
            )
        gen = rng if rng is not None else derive(0, "kv-projector-init")
        self.n_vision_tokens = n_vision_tokens
        self.k_compressed = k_compressed
        self.w_k = Parameter(_pooling_init(k_compressed, n_vision_tokens, gen), name="w_k")
        self.w_v = Parameter(_pooling_init(k_compressed, n_vision_tokens, gen), name="w_v")

    @property
    def compression_ratio(self) -> float:
        """Fraction of vision KV entries removed (paper cites ~90%)."""
        return 1.0 - self.k_compressed / self.n_vision_tokens

    def forward(self, k_vision, v_vision) -> Tuple[Tensor, Tensor]:
        """Apply Eq. (3) to the vision slice of the target's last-layer KV.

        Accepts tensors or numpy arrays of shape ``(B, H, n, Dh)``.  With
        gradients off this wraps :meth:`_infer_rows`.
        """
        k_vision = as_tensor(k_vision)
        v_vision = as_tensor(v_vision)
        if not is_grad_enabled():
            k_cmp, v_cmp = self._infer_rows(k_vision.data, v_vision.data)
            return Tensor(k_cmp), Tensor(v_cmp)
        self._check(k_vision.shape)
        return self.w_k @ k_vision, self.w_v @ v_vision

    def _check(self, shape) -> None:
        if shape[2] != self.n_vision_tokens:
            raise ShapeError(
                f"expected {self.n_vision_tokens} vision tokens, got {shape[2]}"
            )

    def _infer_rows(self, k_vision: np.ndarray,
                    v_vision: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. (3) on raw arrays: the one no-grad projection (bitwise the layer's)."""
        self._check(k_vision.shape)
        return (matmul_data(operand(self.w_k), k_vision),
                matmul_data(operand(self.w_v), v_vision))
