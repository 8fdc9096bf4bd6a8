"""Factories building every Table-1 row decoder from zoo artifacts.

Every row is the same :class:`~repro.core.engine.AASDEngine` round over a
different drafter: the KV-reusing head for ``Ours``, an independent draft
model for the FT/DT baselines.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.engine import AASDEngine, AASDEngineConfig
from ..decoding.cost_model import CostModel
from ..decoding.sampling import SamplerConfig
from ..decoding.speculative import Drafter, LlamaTextDraft, LlavaDraft
from ..errors import ConfigError
from ..zoo import ModelZoo
from .paper_reference import TABLE1_ROWS

__all__ = ["build_row_decoder", "build_aasd_engine", "TABLE1_ROWS"]


def _engine(zoo: ModelZoo, target_name: str, head: Drafter, cost_model: CostModel,
            config: AASDEngineConfig, sampler_config: Optional[SamplerConfig],
            seed: int) -> AASDEngine:
    """The one round over ``head``, on the zoo's target and tokenizer."""
    return AASDEngine(
        zoo.target(target_name), head, zoo.tokenizer(), cost_model, config,
        sampler_config=sampler_config, rng=np.random.default_rng(seed),
    )


def build_aasd_engine(
    zoo: ModelZoo,
    target_name: str,
    gamma: int,
    cost_model: CostModel,
    max_new_tokens: int = 48,
    use_kv_projector: bool = True,
    use_target_kv: bool = True,
    disable_image_kv: bool = False,
    disable_text_kv: bool = False,
    sampler_config: Optional[SamplerConfig] = None,
    seed: int = 0,
    config: Optional[AASDEngineConfig] = None,
) -> AASDEngine:
    """Assemble an engine over the AASD head (possibly an ablation variant).

    ``config`` replaces the assembled :class:`AASDEngineConfig` wholesale
    (tree-speculation benchmarks need the tree knobs); when given,
    ``gamma`` / ``max_new_tokens`` are ignored in its favor.
    """
    head = zoo.aasd_head(
        target_name, use_kv_projector=use_kv_projector, use_target_kv=use_target_kv
    )
    if disable_image_kv or disable_text_kv:
        head = head.ablate_kv(disable_image_kv, disable_text_kv)
    return _engine(
        zoo, target_name, head, cost_model,
        config or AASDEngineConfig(gamma=gamma, max_new_tokens=max_new_tokens),
        sampler_config, seed,
    )


def build_row_decoder(
    row: str,
    zoo: ModelZoo,
    target_name: str,
    gamma: int,
    cost_model: CostModel,
    max_new_tokens: int = 48,
    sampler_config: Optional[SamplerConfig] = None,
    seed: int = 0,
) -> AASDEngine:
    """Build the engine for one Table-1 row label."""
    if row not in TABLE1_ROWS:
        raise ConfigError(f"unknown Table 1 row {row!r}; choose from {TABLE1_ROWS}")
    if row == "Ours":
        return build_aasd_engine(
            zoo, target_name, gamma, cost_model,
            max_new_tokens=max_new_tokens, sampler_config=sampler_config, seed=seed,
        )
    variant = "ft" if row.startswith("FT") else "dt"
    if row.endswith("LLaMA"):
        head = LlamaTextDraft(zoo.text_draft(variant, target_name), label=row.lower())
    else:
        head = LlavaDraft(zoo.llava_draft(variant, target_name), label=row.lower())
    return _engine(
        zoo, target_name, head, cost_model,
        AASDEngineConfig(gamma=gamma, max_new_tokens=max_new_tokens),
        sampler_config, seed,
    )
