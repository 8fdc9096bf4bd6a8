"""Vision-language connector: maps visual features into text embedding space.

LLaVA uses a two-layer MLP projector between the CLIP encoder and the LLM;
this is the same module at simulator scale.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import functional as F
from ..nn.kernels import gelu_data, linear_data
from ..nn.layers import Linear
from ..nn.module import Module
from ..nn.tensor import Tensor, is_grad_enabled

__all__ = ["Connector"]


class Connector(Module):
    """Two-layer GELU MLP from vision dim to LM dim."""

    def __init__(
        self,
        vision_dim: int,
        llm_dim: int,
        hidden: int = 128,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        self.fc1 = Linear(vision_dim, hidden, rng=gen)
        self.fc2 = Linear(hidden, llm_dim, rng=gen)

    def forward(self, visual_features: Tensor) -> Tensor:
        """Project features; with gradients off this wraps :meth:`_infer_rows`."""
        if not is_grad_enabled():
            return Tensor(self._infer_rows(visual_features.data))
        return self.fc2(F.gelu(self.fc1(visual_features)))

    def _infer_rows(self, visual_features: np.ndarray) -> np.ndarray:
        """The one no-grad projection, on :mod:`repro.nn.kernels` (bitwise the layers)."""
        return linear_data(gelu_data(linear_data(visual_features, self.fc1)), self.fc2)
