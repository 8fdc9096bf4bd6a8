"""AASD core: KV projector, T-D attention, speculating module, engine."""

from .draft_head import AASDDraftHead, DraftHeadConfig
from .engine import AASDEngine, AASDEngineConfig, DecodeSession, StepReport
from .hybrid_cache import HybridKVCache
from .kv_projector import KVProjector
from .td_attention import (
    naive_target_draft_attention,
    target_draft_attention,
    td_attention_masks,
)

__all__ = [
    "KVProjector",
    "td_attention_masks",
    "target_draft_attention",
    "naive_target_draft_attention",
    "HybridKVCache",
    "AASDDraftHead",
    "DraftHeadConfig",
    "AASDEngine",
    "AASDEngineConfig",
    "DecodeSession",
    "StepReport",
]
