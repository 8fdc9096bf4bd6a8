"""Generic draft-then-verify speculative decoding with independent drafts.

This is the conventional SD pipeline the paper compares against: a separate
small model (language-only LLaMA or a tiny LLaVA) proposes gamma tokens, the
target verifies them in one parallel forward, and both models keep their own
KV caches in sync.  The AASD engine in :mod:`repro.core.engine` replaces the
independent draft with the KV-reusing speculating module.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

import numpy as np

from ..data.tasks import MultimodalSample
from ..errors import DecodingError
from ..models.llama import MiniLlama
from ..models.llava import MiniLlava
from ..nn.tensor import no_grad
from ..obs.tracing import Tracer, get_tracer
from ..tokenizer import WordTokenizer
from ..utils.rng import derive
from ..utils.timing import WallTimer
from .adaptive import FixedGamma, GammaController
from .base import Decoder, commit_block, encode_prompt
from .cost_model import CostModel
from .metrics import BlockRecord, DecodeRecord
from .sampling import Sampler, SamplerConfig, logits_to_probs, speculative_verify

__all__ = ["IndependentDraft", "LlamaTextDraft", "LlavaDraft", "SpeculativeDecoder"]


class IndependentDraft(ABC):
    """A separate small model proposing draft tokens with its own cache.

    Invariant maintained by the decoder: after :meth:`begin` or
    :meth:`commit`, the draft's cache covers every committed token *except
    the most recent one*, which is always fed at the start of the next
    :meth:`propose` call.
    """

    name: str = "draft"

    @abstractmethod
    def begin(self, sample: MultimodalSample, prompt_ids: np.ndarray) -> None:
        """Prime the draft's own context for a new sample."""

    @abstractmethod
    def propose(
        self, last_token: int, gamma: int, sampler: Sampler
    ) -> Tuple[List[int], np.ndarray]:
        """Draft ``gamma`` tokens; returns (tokens, per-token probs)."""

    @abstractmethod
    def commit(self, n_accepted: int, gamma: int, draft_tokens: List[int]) -> bool:
        """Reconcile the cache after verification.

        Returns True when the draft had to run one extra forward (all
        tokens accepted, so the cache was missing the last drafted token).
        """


class _CachedLMDraft(IndependentDraft):
    """Shared cache logic for drafts backed by a causal-LM cache."""

    def __init__(self) -> None:
        self._cache = None
        self._block_start = 0

    @abstractmethod
    def _prime_cache(self, sample: MultimodalSample, prompt_ids: np.ndarray) -> None:
        """Build ``self._cache`` covering the sample context."""

    @abstractmethod
    def _forward_token(self, token: int) -> np.ndarray:
        """Advance the cache by one token; return next-token logits."""

    def begin(self, sample: MultimodalSample, prompt_ids: np.ndarray) -> None:
        self._prime_cache(sample, prompt_ids)
        self._block_start = self._cache.seq_len

    def propose(
        self, last_token: int, gamma: int, sampler: Sampler
    ) -> Tuple[List[int], np.ndarray]:
        if gamma <= 0:
            raise DecodingError(f"gamma must be positive, got {gamma}")
        self._block_start = self._cache.seq_len
        tokens: List[int] = []
        probs: List[np.ndarray] = []
        token = last_token
        for _ in range(gamma):
            logits = self._forward_token(token)
            probs.append(logits_to_probs(logits, sampler.config))
            token = sampler.sample(logits)
            tokens.append(token)
        return tokens, np.stack(probs)

    def commit(self, n_accepted: int, gamma: int, draft_tokens: List[int]) -> bool:
        # During propose the cache grew by gamma entries, covering
        # [last_committed, d1 .. d_{gamma-1}] — d_gamma was sampled but
        # never fed.
        if n_accepted == gamma:
            # Everything kept; feed d_gamma so the cache covers the full
            # committed prefix before the next block.
            self._forward_token(draft_tokens[-1])
            return True
        # Partial acceptance: keep [last] + the accepted prefix only.
        self._cache.truncate(self._block_start + 1 + n_accepted)
        return False


class LlamaTextDraft(_CachedLMDraft):
    """Language-only draft: never sees the image (Gagrani et al. style)."""

    def __init__(self, model: MiniLlama, label: str = "llama-draft") -> None:
        super().__init__()
        self.model = model
        self.name = label

    def _prime_cache(self, sample: MultimodalSample, prompt_ids: np.ndarray) -> None:
        self._cache = self.model.new_cache()
        self.model.forward(prompt_ids[None], cache=self._cache)

    def _forward_token(self, token: int) -> np.ndarray:
        out = self.model.forward(np.asarray([[token]]), cache=self._cache)
        return out.logits.data[0, -1]


class LlavaDraft(_CachedLMDraft):
    """Tiny multimodal draft with its own vision tower."""

    def __init__(self, model: MiniLlava, label: str = "llava-draft") -> None:
        super().__init__()
        self.model = model
        self.name = label

    def _prime_cache(self, sample: MultimodalSample, prompt_ids: np.ndarray) -> None:
        self._cache, _ = self.model.prefill(sample.image[None], prompt_ids[None])

    def _forward_token(self, token: int) -> np.ndarray:
        out = self.model.decode(np.asarray([[token]]), self._cache)
        return out.logits.data[0, -1]


class SpeculativeDecoder(Decoder):
    """Draft-then-verify decoding with an independent draft model."""

    def __init__(
        self,
        target: MiniLlava,
        draft: IndependentDraft,
        tokenizer: WordTokenizer,
        cost_model: CostModel,
        gamma: int = 3,
        max_new_tokens: int = 64,
        sampler_config: Optional[SamplerConfig] = None,
        rng: Optional[np.random.Generator] = None,
        gamma_controller: Optional[GammaController] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._tracer = tracer
        if gamma <= 0:
            raise DecodingError(f"gamma must be positive, got {gamma}")
        self.target = target
        self.draft = draft
        self.tokenizer = tokenizer
        self.cost_model = cost_model
        self.gamma = gamma
        self.gamma_controller = gamma_controller or FixedGamma(gamma)
        self.max_new_tokens = max_new_tokens
        sampler_config = sampler_config or SamplerConfig()
        self.rng = rng if rng is not None else derive(sampler_config.seed, "speculative")
        self.sampler = Sampler(sampler_config, rng=self.rng)

    @property
    def name(self) -> str:
        return f"sd({self.draft.name})"

    @property
    def tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None else get_tracer()

    def decode(self, sample: MultimodalSample) -> DecodeRecord:
        tracer = self.tracer
        record = DecodeRecord()
        prompt_ids = encode_prompt(self.tokenizer, sample)
        eos = self.tokenizer.vocab.eos_id

        with WallTimer() as timer, no_grad(), tracer.span(
            "decode", decoder=self.name, n_prompt_tokens=len(prompt_ids)
        ) as root:
            with tracer.span("prefill") as sp:
                target_cache, last_logits = self.target.prefill(
                    sample.image[None], prompt_ids[None]
                )
                sp.add_sim_ms(record.charge_sim(self.cost_model.target_prefill(), "prefill"))
                record.count_target_forward()
                self.draft.begin(sample, prompt_ids)
                sp.add_sim_ms(record.charge_sim(self.cost_model.draft_prefill(), "prefill"))

                committed: List[int] = [self.sampler.sample(last_logits[0])]
                self.gamma_controller.reset()

            while committed[-1] != eos and len(committed) < self.max_new_tokens:
                last = committed[-1]
                with tracer.span("draft") as sp:
                    gamma = self.gamma_controller.next_gamma()
                    sp.set_attr("gamma", gamma)
                    sp.set_attr("n_draft", gamma)
                    draft_tokens, draft_probs = self.draft.propose(last, gamma, self.sampler)
                    sp.add_sim_ms(record.charge_sim(
                        gamma * self.cost_model.draft_step(), "draft"
                    ))

                # Verify: one parallel target forward over [last, d1..dγ].
                with tracer.span("verify", n_draft=gamma) as sp:
                    verify_start = target_cache.seq_len
                    feed = np.asarray([[last] + draft_tokens], dtype=np.int64)
                    out = self.target.decode(feed, target_cache)
                    sp.add_sim_ms(record.charge_sim(
                        self.cost_model.target_verify(gamma + 1), "verify"
                    ))
                    record.count_target_forward()

                    outcome = speculative_verify(
                        draft_tokens,
                        draft_probs,
                        out.logits.data[0],
                        self.sampler.config,
                        self.rng,
                    )
                    record.add_block(
                        BlockRecord(
                            n_draft=gamma,
                            n_accepted=outcome.n_accepted,
                            n_emitted=outcome.tokens_emitted,
                        )
                    )
                    sp.set_attr("n_accepted", outcome.n_accepted)
                    self.gamma_controller.update(outcome.n_accepted, gamma)

                    # Target cache keeps [last] + accepted drafts only.
                    target_cache.truncate(verify_start + 1 + outcome.n_accepted)
                    synced = self.draft.commit(outcome.n_accepted, gamma, draft_tokens)
                    if synced:
                        sp.add_sim_ms(record.charge_sim(self.cost_model.draft_step(), "verify"))

                    commit_block(committed, outcome.accepted, outcome.next_token,
                                 eos, self.max_new_tokens)

            root.set_attr("n_tokens", len(committed))
            root.add_sim_ms(record.sim_time_ms)

        record.token_ids = committed
        record.wall_time_s = timer.elapsed
        record.text = self.tokenizer.decode(committed)
        return record
