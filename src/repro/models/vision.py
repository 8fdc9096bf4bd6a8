"""Patch-embedding vision encoder (CLIP-ViT stand-in)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ShapeError
from ..nn import functional as F
from ..nn import initializers as init
from ..nn.attention import attend_data
from ..nn.kernels import (
    gelu_data, layernorm_data, linear_data, merge_heads_data, split_heads_data,
)
from ..nn.layers import Linear
from ..nn.module import Module, Parameter
from ..nn.normalization import LayerNorm
from ..nn.tensor import Tensor, is_grad_enabled, matmul_data
from .config import VisionConfig

__all__ = ["VisionEncoder", "patchify"]


def patchify(images: np.ndarray, patch_size: int) -> np.ndarray:
    """``(B, H, W, 3) -> (B, n_patches, patch_size*patch_size*3)``."""
    images = np.asarray(images, dtype=np.float32)
    if images.ndim == 3:
        images = images[None]
    b, h, w, c = images.shape
    if h % patch_size or w % patch_size:
        raise ShapeError(f"image {h}x{w} not divisible by patch size {patch_size}")
    ph, pw = h // patch_size, w // patch_size
    x = images.reshape(b, ph, patch_size, pw, patch_size, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return x.reshape(b, ph * pw, patch_size * patch_size * c)


class _EncoderSelfAttention(Module):
    """Bidirectional (non-causal) multi-head self-attention."""

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.n_heads = n_heads
        self.wq = Linear(dim, dim, bias=False, rng=rng)
        self.wk = Linear(dim, dim, bias=False, rng=rng)
        self.wv = Linear(dim, dim, bias=False, rng=rng)
        self.wo = Linear(dim, dim, bias=False, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        b, t, d = x.shape
        dh = d // self.n_heads
        def heads(y: Tensor) -> Tensor:
            return y.reshape(b, t, self.n_heads, dh).transpose(0, 2, 1, 3)
        q, k, v = heads(self.wq(x)), heads(self.wk(x)), heads(self.wv(x))
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(dh))
        out = F.softmax(scores, axis=-1) @ v
        out = out.transpose(0, 2, 1, 3).reshape(b, t, d)
        return self.wo(out)


class _EncoderBlock(Module):
    """Pre-norm ViT encoder block with a GELU MLP."""

    def __init__(self, dim: int, n_heads: int, mlp_hidden: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.attn_norm = LayerNorm(dim)
        self.attn = _EncoderSelfAttention(dim, n_heads, rng)
        self.mlp_norm = LayerNorm(dim)
        self.fc1 = Linear(dim, mlp_hidden, rng=rng)
        self.fc2 = Linear(mlp_hidden, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.attn_norm(x))
        return x + self.fc2(F.gelu(self.fc1(self.mlp_norm(x))))


class VisionEncoder(Module):
    """Images -> sequence of visual feature vectors ``(B, n_patches, dim)``."""

    def __init__(self, config: VisionConfig, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        self.config = config
        self.patch_embed = Linear(config.patch_dim, config.dim, rng=gen)
        self.pos_embed = Parameter(
            init.normal(gen, (config.n_patches, config.dim)), name="pos_embed"
        )
        self.blocks = [
            _EncoderBlock(config.dim, config.n_heads, config.mlp_hidden, gen)
            for _ in range(config.n_layers)
        ]
        self.out_norm = LayerNorm(config.dim)

    def _patches(self, images: np.ndarray) -> np.ndarray:
        patches = patchify(images, self.config.patch_size)
        if patches.shape[1] != self.config.n_patches:
            raise ShapeError(
                f"expected {self.config.n_patches} patches, got {patches.shape[1]}"
            )
        return patches

    def forward(self, images: np.ndarray) -> Tensor:
        """Encode ``images``; with gradients off this wraps :meth:`_infer_rows`."""
        if not is_grad_enabled():
            return Tensor(self._infer_rows(images))
        x = self.patch_embed(Tensor(self._patches(images))) + self.pos_embed
        for block in self.blocks:
            x = block(x)
        return self.out_norm(x)

    def _infer_rows(self, images: np.ndarray) -> np.ndarray:
        """The one no-grad encoder pass, on :mod:`repro.nn.kernels`.

        Replays the ``Module`` path op for op (``tests/nn/test_inference_forward.py``
        pins it bitwise); each image of the batch is a row of numpy's
        batched products, so its features equal its solo encode.  The
        patch embedding is the one float32 x float32 product of the
        forward — nothing is cast there, so it reads the stored weight.
        """
        embed = self.patch_embed
        x = matmul_data(self._patches(images), embed.weight.data.swapaxes(-1, -2))
        x += embed.bias.data
        x += self.pos_embed.data
        for block in self.blocks:
            attn = block.attn
            h = layernorm_data(x, block.attn_norm)
            q, k, v = (split_heads_data(linear_data(h, w), attn.n_heads)
                       for w in (attn.wq, attn.wk, attn.wv))
            h = linear_data(merge_heads_data(attend_data(q, k, v)), attn.wo)
            h += x
            x = linear_data(gelu_data(linear_data(layernorm_data(h, block.mlp_norm),
                                                  block.fc1)), block.fc2)
            x += h
        return layernorm_data(x, self.out_norm)
