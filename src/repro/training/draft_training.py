"""Aligned training of the AASD speculating module (paper Sec. 3.3).

Each step: run the frozen target teacher-forced over a batch, harvest its
last-layer KV (split into vision and text slices) and its output logits,
then train the draft head through Target-Draft Attention with a randomly
sampled draft depth ``s in 1..gamma_train`` — covering every attention
pattern the head will face at inference.  The loss is response-region cross
entropy plus a KL term against the target distribution; gradients reach the
head *and* the KV projector jointly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.draft_head import AASDDraftHead
from ..data.dataloader import IGNORE_INDEX, collate_multimodal
from ..data.tasks import MultimodalSample
from ..errors import TrainingError
from ..models.llava import MiniLlava
from ..nn.tensor import Tensor, no_grad
from ..tokenizer import WordTokenizer
from ..utils.rng import derive
from .losses import masked_cross_entropy, masked_kl_divergence, response_mask
from .trainer import TrainConfig, TrainResult, run_training

__all__ = ["DraftTrainConfig", "train_draft_head"]


@dataclass(frozen=True)
class DraftTrainConfig(TrainConfig):
    """TrainConfig plus the AASD-specific knobs."""

    gamma_train: int = 5    # draft depths sampled uniformly from 1..gamma_train
    kl_weight: float = 0.5  # weight of the distillation KL term

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.gamma_train < 1:
            raise TrainingError(f"gamma_train must be >= 1, got {self.gamma_train}")
        if self.kl_weight < 0:
            raise TrainingError(f"kl_weight must be >= 0, got {self.kl_weight}")


def train_draft_head(
    head: AASDDraftHead,
    target: MiniLlava,
    tokenizer: WordTokenizer,
    samples: Sequence[MultimodalSample],
    config: DraftTrainConfig,
) -> TrainResult:
    """Train ``head`` (and its projector) against a frozen ``target``."""
    if not samples:
        raise TrainingError("no training samples provided")
    rng = derive(config.seed, "draft-head")
    n_vis = target.n_vision_tokens
    target.eval()

    def loss_fn(step: int, gen: np.random.Generator) -> Tensor:
        idx = gen.integers(0, len(samples), size=min(config.batch_size, len(samples)))
        batch = collate_multimodal([samples[int(i)] for i in idx], tokenizer)

        with no_grad():
            cache = target.llama.new_cache()
            out = target.forward_train(batch.images, batch.text_ids, cache)
        k_full, v_full = cache.last_layer()
        teacher_logits = out.logits.data[:, n_vis:, :]

        if head.config.use_target_kv:
            k_vis, v_vis = k_full[:, :, :n_vis, :], v_full[:, :, :n_vis, :]
            k_txt, v_txt = k_full[:, :, n_vis:, :], v_full[:, :, n_vis:, :]
        else:
            k_vis = v_vis = k_txt = v_txt = None

        s = int(gen.integers(1, config.gamma_train + 1))
        logits = head.forward_train(
            batch.text_ids, k_txt, v_txt, k_vis, v_vis, s=s, position_offset=n_vis
        )

        # Acceptance is agreement with the *target*, not with ground truth:
        # supervise on the teacher's own greedy predictions (its mistakes
        # included), restricted to the response region.
        teacher_argmax = teacher_logits.argmax(axis=-1)
        mask = response_mask(batch.labels)
        ce_labels = np.where(mask, teacher_argmax, IGNORE_INDEX)
        loss = masked_cross_entropy(logits, ce_labels)
        if config.kl_weight > 0:
            loss = loss + config.kl_weight * masked_kl_divergence(
                teacher_logits, logits, mask=mask
            )
        return loss

    return run_training(head.parameters(), loss_fn, config, rng)
