"""Plain autoregressive generation helpers (uninstrumented).

The instrumented decoders used for benchmarking live in
:mod:`repro.decoding`; the functions here are the minimal greedy loop used
for distillation data generation, the model zoo's sanity checks and the
examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..nn.tensor import no_grad
from .llava import MiniLlava

__all__ = ["GenerationLimits", "greedy_generate"]


@dataclass(frozen=True)
class GenerationLimits:
    """Stopping rules for generation."""

    max_new_tokens: int = 64
    eos_id: Optional[int] = None


def greedy_generate(
    model: MiniLlava,
    image: np.ndarray,
    prompt_ids: np.ndarray,
    limits: GenerationLimits,
) -> List[int]:
    """Greedy autoregressive generation for a single sample."""
    with no_grad():
        cache, logits = model.prefill(image[None] if image.ndim == 3 else image, prompt_ids)
        generated: List[int] = []
        token = int(np.argmax(logits[0]))
        for _ in range(limits.max_new_tokens):
            generated.append(token)
            if limits.eos_id is not None and token == limits.eos_id:
                break
            out = model.decode(np.asarray([[token]]), cache)
            token = int(np.argmax(out.logits.data[0, -1]))
    return generated
