"""Autoregressive baseline decoder (the paper's 1.00x reference)."""

from __future__ import annotations

import weakref
from typing import Optional

import numpy as np

from ..data.tasks import MultimodalSample
from ..models.llava import MiniLlava
from ..nn.kernels import pin_operands
from ..nn.tensor import no_grad
from ..obs.tracing import Tracer, get_tracer
from ..tokenizer import WordTokenizer
from ..utils.timing import WallTimer
from .base import Decoder, encode_prompt
from .cost_model import CostModel
from .metrics import DecodeRecord
from .sampling import Sampler, SamplerConfig

__all__ = ["AutoregressiveDecoder"]


class AutoregressiveDecoder(Decoder):
    """Plain one-token-per-forward decoding of the target MLLM.

    Like :class:`~repro.core.engine.AASDEngine`, it pins the target's
    float64 operands while it lives (``docs/kernels.md`` §5): its
    forwards read them instead of casting every weight per product, and
    the target's weights are read-only meanwhile — replace ``param.data``
    to change one.
    """

    def __init__(
        self,
        target: MiniLlava,
        tokenizer: WordTokenizer,
        cost_model: CostModel,
        max_new_tokens: int = 64,
        sampler_config: Optional[SamplerConfig] = None,
        rng: Optional[np.random.Generator] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.target = target
        self.tokenizer = tokenizer
        self.cost_model = cost_model
        self.max_new_tokens = max_new_tokens
        self.sampler = Sampler(sampler_config or SamplerConfig(), rng=rng)
        self._tracer = tracer
        weakref.finalize(self, pin_operands(target.parameters()))

    @property
    def name(self) -> str:
        return "autoregressive"

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
                cache, last_logits = self.target.prefill(sample.image[None], prompt_ids[None])
                sp.add_sim_ms(record.charge_sim(self.cost_model.target_prefill(), "prefill"))
                record.n_target_forwards += 1

                token = self.sampler.sample(last_logits[0])
                record.token_ids.append(token)
            while token != eos and len(record.token_ids) < self.max_new_tokens:
                with tracer.span("ar_step") as sp:
                    out = self.target.decode(np.asarray([[token]]), cache)
                    sp.add_sim_ms(record.charge_sim(self.cost_model.target_step(), "ar_step"))
                    record.n_target_forwards += 1
                    token = self.sampler.sample(out.logits.data[0, -1])
                    record.token_ids.append(token)
            root.set_attr("n_tokens", record.n_tokens)
            root.add_sim_ms(record.sim_time_ms)

        record.wall_time_s = timer.elapsed
        record.text = self.tokenizer.decode(record.token_ids)
        return record
