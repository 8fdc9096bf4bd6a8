"""Model family: configs, KV cache, MiniLlama LM, MiniLlava MLLM."""

from .config import LlamaConfig, LlavaConfig, MODEL_REGISTRY, VisionConfig, get_config
from .connector import Connector
from .generation import GenerationLimits, greedy_generate
from .kv_cache import KVCache, Segments
from .llama import LlamaOutput, MiniLlama
from .llava import MiniLlava
from .vision import VisionEncoder, patchify

__all__ = [
    "LlamaConfig",
    "VisionConfig",
    "LlavaConfig",
    "get_config",
    "MODEL_REGISTRY",
    "KVCache",
    "Segments",
    "MiniLlama",
    "LlamaOutput",
    "MiniLlava",
    "VisionEncoder",
    "patchify",
    "Connector",
    "GenerationLimits",
    "greedy_generate",
]
