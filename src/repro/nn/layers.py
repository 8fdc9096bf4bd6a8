"""Core layers: Linear, Embedding, Dropout, Sequential, MLP."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from . import functional as F
from . import initializers as init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["Linear", "Embedding", "Dropout", "Sequential", "MLP"]


class Linear(Module):
    """Affine map ``y = x W^T + b`` with weight shape ``(out, in)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(gen, (out_features, in_features)), name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.swapaxes(-1, -2)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


class Embedding(Module):
    """Token embedding table of shape ``(vocab, dim)``."""

    def __init__(self, num_embeddings: int, dim: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(init.normal(gen, (num_embeddings, dim)), name="weight")

    def _checked(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        return indices

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding(self.weight, self._checked(indices))

    def lookup_data(self, indices: np.ndarray) -> np.ndarray:
        """The table rows at ``indices`` as a raw array (what ``forward`` wraps)."""
        return self.weight.data[self._checked(indices)]

    def __repr__(self) -> str:
        return f"Embedding(num={self.num_embeddings}, dim={self.dim})"


class Dropout(Module):
    """Inverted dropout layer (identity in eval mode)."""

    def __init__(self, p: float = 0.0, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self._rng)


class Sequential(Module):
    """Run modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.items: List[Module] = list(modules)

    def forward(self, x):
        for m in self.items:
            x = m(x)
        return x

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i: int) -> Module:
        return self.items[i]


class MLP(Module):
    """Simple feed-forward network with a configurable activation."""

    def __init__(
        self,
        sizes: Sequence[int],
        activation: Callable[[Tensor], Tensor] = F.gelu,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        gen = rng if rng is not None else np.random.default_rng()
        self.layers = [
            Linear(sizes[i], sizes[i + 1], bias=bias, rng=gen) for i in range(len(sizes) - 1)
        ]
        self.activation = activation

    def forward(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = self.activation(x)
        return x
