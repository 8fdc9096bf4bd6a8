"""Decoding framework: AR baseline, speculative decoding, metrics, costs."""

from .autoregressive import AutoregressiveDecoder
from .base import Decoder, encode_prompt
from .cost_model import PROFILES, CostModel, CostProfile, get_profile
from .metrics import BlockRecord, DecodeRecord, SpeedupReport, aggregate_metrics
from .sampling import Sampler, SamplerConfig, logits_to_probs
from .speculative import Drafter, LlamaTextDraft, LlavaDraft
from .tree import TreeDraft, VerifyOutcome, speculative_verify, tree_extra_blocked

__all__ = [
    "Decoder",
    "encode_prompt",
    "AutoregressiveDecoder",
    "Drafter",
    "LlamaTextDraft",
    "LlavaDraft",
    "CostModel",
    "CostProfile",
    "get_profile",
    "PROFILES",
    "BlockRecord",
    "DecodeRecord",
    "SpeedupReport",
    "aggregate_metrics",
    "Sampler",
    "SamplerConfig",
    "VerifyOutcome",
    "logits_to_probs",
    "speculative_verify",
    "TreeDraft",
    "tree_extra_blocked",
]
