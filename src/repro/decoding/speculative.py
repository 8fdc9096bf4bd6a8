"""The drafter seam, and the independent drafts of the paper's Table 1.

Speculative decoding has one loop in this repository —
:meth:`repro.core.engine.AASDEngine.step_batch`: draft, verify, commit — and
one place where the rows of Table 1 differ: *who drafts*.  :class:`Drafter`
names what the round needs from that module.  It is implemented exactly
twice: the KV-reusing :class:`~repro.core.draft_head.AASDDraftHead`, and
here the conventional pipeline the paper compares against — a separate
small model (language-only LLaMA, or a tiny LLaVA) drafting from its own
KV cache.  Which one an engine runs is decided by the object passed as its
``head``, and by nothing else.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..data.tasks import MultimodalSample
from ..models.kv_cache import KVCache
from ..models.llama import MiniLlama
from ..models.llava import MiniLlava
from ..utils.arena import ArenaStats
from .cost_model import CostModel

__all__ = ["Drafter", "LlamaTextDraft", "LlavaDraft"]


class Drafter(ABC):
    """What one decode round needs from a speculating module.

    A drafter is shared by every request of an engine and keeps nothing
    per request: :meth:`open` returns the request's *draft state*, the
    engine keeps it on the session and hands it back to every later call.
    A state's format is its drafter's business; the engine reads only
    ``state.seq_len`` (keys the next step attends before its own) and, if
    present, ``state.arena_stats()``.

    A drafter names the cost-model phases its calls are priced as
    (:meth:`~repro.decoding.cost_model.CostModel.price`); the engine
    charges them, so it never knows which cost family a drafter bills.
    """

    #: Table label of an engine running this drafter (``ours``, ``sd(ft-llama)``).
    name: str = "draft"
    #: Whether a step accepts strict-subset ``ancestor_rows`` (else rounds
    #: draft chains, whose every step attends the whole block).
    supports_tree: bool = False
    #: Cost-model phase of one :meth:`step_packed` call.
    step_phase: str = "draft"
    #: Cost-model phase of one :meth:`open`, beyond the target prefill
    #: (``None``: opening costs nothing more).
    prefill_phase: Optional[str] = None

    def check_target(self, target: MiniLlava) -> None:
        """Raise :class:`~repro.errors.DecodingError` if ``target`` cannot be served."""

    def parameters(self) -> list:
        """The weights this drafter's forwards read (an engine pins their operands)."""
        return []

    @abstractmethod
    def open(self, sample: MultimodalSample, prompt_ids: np.ndarray, target_cache):
        """Open one request's draft state from its finished target prefill."""

    @abstractmethod
    def step_packed(self, token_ids: Sequence[int], positions: Sequence[int],
                    states: Sequence, request_ids: Optional[Sequence] = None,
                    ancestor_rows: Optional[Sequence] = None) -> list:
        """One lockstep draft step over B states; next-token logits per state.

        Bitwise what B one-state calls return.  ``ancestor_rows[i]`` are
        the block's earlier steps row ``i`` attends (step ``e`` wrote row
        ``e``): a tree node's root path, the whole block for a chain.  A
        row's slot may hold an ``Exception`` instead — that row's draft
        fault; raising faults every row of the call.
        """

    @abstractmethod
    def rollback(self, state) -> None:
        """Drop the speculated, unverified block from ``state``."""

    @abstractmethod
    def absorb(self, state, tokens: Sequence[int], positions: np.ndarray,
               cost: CostModel) -> float:
        """Extend ``state`` over a verified block; returns the simulated ms it cost.

        The ms are the :meth:`CostModel.price` of the forwards this runs
        (``0.0`` when it runs none).

        ``tokens`` are the block's anchor and accepted drafts (the anchor
        alone for a fallback step), now committed, at absolute
        ``positions``; the target cache already holds their rows.
        Whatever else the block speculated is dropped.
        """

    def check(self, state) -> None:
        """Raise :class:`~repro.errors.GuardViolation` if ``state`` broke an invariant."""


@dataclass
class _LMDraftState:
    """An independent draft's own KV cache and its committed-prefix mark.

    Between rounds the cache covers every committed token except the
    newest, which the next block's first step feeds.
    """

    cache: KVCache
    kept: int   #: cache rows covering committed tokens

    @property
    def seq_len(self) -> int:
        """Keys the next draft step attends before its own."""
        return self.cache.seq_len

    def arena_stats(self) -> ArenaStats:
        """Copy/growth accounting of the draft's cache."""
        return self.cache.arena_stats()

    def footprint(self) -> Tuple[int, int]:
        """``(reserved, live)`` bytes of the draft's cache."""
        return self.cache.footprint()


class _CachedLMDraft(Drafter):
    """A separate causal LM drafting from its own cache, one row at a time.

    Rows of a lockstep step run one by one, so a packed round equals the
    sequential one by construction, and the ``draft`` phase prices each
    extra row as one more solo step.
    """

    step_phase = "draft"
    prefill_phase = "draft_prefill"

    def __init__(self, label: str) -> None:
        self.name = f"sd({label})"

    @abstractmethod
    def _prime(self, sample: MultimodalSample, prompt_ids: np.ndarray) -> KVCache:
        """A fresh cache covering the sample's context."""

    @abstractmethod
    def _forward(self, token: int, cache: KVCache) -> np.ndarray:
        """Advance ``cache`` by one token; return next-token logits."""

    def open(self, sample: MultimodalSample, prompt_ids: np.ndarray,
             target_cache) -> _LMDraftState:
        """Encode the context with the draft's own model; the target's cache is unused."""
        del target_cache
        cache = self._prime(sample, prompt_ids)
        return _LMDraftState(cache, cache.seq_len)

    def parameters(self) -> list:
        """The draft model's weights."""
        return self.model.parameters()

    def step(self, token_id: int, position: int, state: _LMDraftState,
             request_id: Optional[str] = None,
             ancestor_rows: Optional[Sequence[int]] = None) -> np.ndarray:
        """One chain draft step for one request (fault-injecting wrappers hook this)."""
        del position, request_id, ancestor_rows   # the cache carries its own positions
        return self._forward(token_id, state.cache)

    def step_packed(self, token_ids: Sequence[int], positions: Sequence[int],
                    states: Sequence[_LMDraftState],
                    request_ids: Optional[Sequence] = None,
                    ancestor_rows: Optional[Sequence] = None) -> List[np.ndarray]:
        """:meth:`step`, row by row."""
        del request_ids, ancestor_rows
        return [self.step(t, p, s) for t, p, s in zip(token_ids, positions, states)]

    def rollback(self, state: _LMDraftState) -> None:
        """Truncate the cache back to the committed prefix."""
        state.cache.truncate(state.kept)

    def absorb(self, state: _LMDraftState, tokens: Sequence[int],
               positions: np.ndarray, cost: CostModel) -> float:
        """Keep the block's verified rows; feed the token the cache still lacks.

        Drafting ``n`` tokens cached ``[anchor, d1 .. d_{n-1}]``, so only a
        fully accepted block (or a fallback step, which drafted nothing)
        is one token short: that forward is charged as one draft step.
        """
        del positions   # the cache carries its own positions
        cache = state.cache
        have = min(cache.seq_len - state.kept, len(tokens))
        cache.truncate(state.kept + have)
        ms = 0.0
        for token in tokens[have:]:
            self._forward(token, cache)
            ms += cost.price("draft", (1,))
        state.kept = cache.seq_len
        return ms


class LlamaTextDraft(_CachedLMDraft):
    """Language-only draft: never sees the image (Gagrani et al. style)."""

    def __init__(self, model: MiniLlama, label: str = "llama-draft") -> None:
        super().__init__(label)
        self.model = model

    def _prime(self, sample: MultimodalSample, prompt_ids: np.ndarray) -> KVCache:
        cache = self.model.new_cache()
        self.model.forward(prompt_ids[None], cache=cache)
        return cache

    def _forward(self, token: int, cache: KVCache) -> np.ndarray:
        return self.model.forward(np.asarray([[token]]), cache=cache).logits.data[0, -1]


class LlavaDraft(_CachedLMDraft):
    """Tiny multimodal draft with its own vision tower."""

    def __init__(self, model: MiniLlava, label: str = "llava-draft") -> None:
        super().__init__(label)
        self.model = model

    def _prime(self, sample: MultimodalSample, prompt_ids: np.ndarray) -> KVCache:
        cache, _ = self.model.prefill(sample.image[None], prompt_ids[None])
        return cache

    def _forward(self, token: int, cache: KVCache) -> np.ndarray:
        return self.model.decode(np.asarray([[token]]), cache).logits.data[0, -1]
