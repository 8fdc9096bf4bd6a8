"""Decoder interface shared by the AR baseline and the speculative engine."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence

import numpy as np

from ..data.tasks import MultimodalSample
from ..tokenizer import WordTokenizer
from .metrics import DecodeRecord

__all__ = ["Decoder", "encode_prompt", "commit_block"]


def encode_prompt(tokenizer: WordTokenizer, sample: MultimodalSample) -> np.ndarray:
    """Canonical prompt encoding: ``[bos, prompt tokens...]``."""
    return np.asarray(
        [tokenizer.vocab.bos_id] + tokenizer.encode(sample.prompt), dtype=np.int64
    )


def commit_block(committed: List[int], accepted: Sequence[int], next_token: int,
                 eos_id: int, max_new_tokens: int) -> int:
    """Emit a verified block into ``committed``, in place; return how many tokens it kept.

    The one eos/cap rule of every speculative loop: the output is cut at
    the first eos (inclusive) or at ``max_new_tokens``, whichever comes
    first — so a block that crosses the token budget never emits past it,
    even when it holds an eos further on.
    """
    before = len(committed)
    committed.extend(accepted)
    committed.append(next_token)
    cut = max_new_tokens
    if eos_id in committed:
        cut = min(cut, committed.index(eos_id) + 1)
    del committed[cut:]
    return len(committed) - before


class Decoder(ABC):
    """Generates a response for one multimodal sample, with instrumentation."""

    @abstractmethod
    def decode(self, sample: MultimodalSample) -> DecodeRecord:
        """Run one full generation and return the measured record."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Short label used in tables ('autoregressive', 'ours', ...)."""
