"""Cost-accounting identities of the decoders.

The simulated-time metrics are only as good as the charging discipline, so
these tests recompute expected charges from the cost model and the recorded
block structure.
"""

import numpy as np
import pytest

from repro.core import AASDDraftHead, AASDEngine, AASDEngineConfig, DraftHeadConfig
from repro.data.tasks import make_dataset
from repro.decoding import (
    AutoregressiveDecoder,
    CostModel,
    LlamaTextDraft,
    get_profile,
)
from repro.eval.baselines import TABLE1_ROWS, build_row_decoder
from repro.models.config import LlamaConfig, LlavaConfig, VisionConfig
from repro.models.llama import MiniLlama
from repro.models.llava import MiniLlava


@pytest.fixture(scope="module")
def setup(tokenizer):
    gen = np.random.default_rng(0)
    vocab = tokenizer.vocab_size
    target = MiniLlava(
        LlavaConfig(
            llama=LlamaConfig(vocab_size=vocab, dim=16, n_layers=1, n_heads=2, mlp_hidden=24),
            vision=VisionConfig(image_size=48, patch_size=16, dim=8, n_layers=1, n_heads=2, mlp_hidden=16),
        ),
        rng=gen,
    )
    draft = MiniLlama(
        LlamaConfig(vocab_size=vocab, dim=16, n_layers=1, n_heads=2, mlp_hidden=24), rng=gen
    )
    head = AASDDraftHead(
        DraftHeadConfig(
            vocab_size=vocab, dim=16, n_heads=2, mlp_hidden=24,
            n_vision_tokens=9, k_compressed=3,
        ),
        rng=gen,
    )
    cm = CostModel(get_profile("sim-7b"))
    sample = make_dataset("coco-sim", 1, seed=4)[0]
    return dict(target=target, draft=draft, head=head, cm=cm,
                sample=sample, tokenizer=tokenizer)


class TestAutoregressiveAccounting:
    def test_exact_charge(self, setup):
        cm = setup["cm"]
        ar = AutoregressiveDecoder(
            setup["target"], setup["tokenizer"], cm, max_new_tokens=11
        )
        rec = ar.decode(setup["sample"])
        expected = cm.target_prefill() + (rec.n_tokens - 1) * cm.target_step()
        assert rec.sim_time_ms == pytest.approx(expected)
        assert rec.n_target_forwards == rec.n_tokens


def _sd(setup, gamma=3):
    """The engine's round over an independent draft (a Table 1 baseline row)."""
    return AASDEngine(
        setup["target"], LlamaTextDraft(setup["draft"]), setup["tokenizer"],
        setup["cm"], AASDEngineConfig(gamma=gamma, max_new_tokens=12),
    )


class TestSpeculativeAccounting:
    def test_forward_counts(self, setup):
        rec = _sd(setup).decode(setup["sample"])
        # One target forward per verify block plus the prefill.
        assert rec.n_target_forwards == len(rec.blocks) + 1

    def test_charge_decomposition(self, setup):
        cm = setup["cm"]
        gamma = 3
        rec = _sd(setup, gamma).decode(setup["sample"])
        n_full = sum(1 for b in rec.blocks if b.n_accepted == b.n_draft)
        draft_step = cm.price("draft", (1,))
        # each block drafts its own (budget-capped) depth and verifies 1 + that
        expected = (
            cm.target_prefill()
            + cm.price("draft_prefill", (1,))
            + sum(b.n_draft * draft_step + cm.price("verify", (b.n_draft + 1,))
                  for b in rec.blocks)
            + n_full * draft_step  # cache-sync forward on full acceptance
        )
        assert rec.sim_time_ms == pytest.approx(expected)


class TestTable1Rows:
    @pytest.mark.parametrize("row", TABLE1_ROWS)
    def test_every_row_stamps_time_to_first_token(self, smoke_zoo, row):
        # every Table 1 row is the engine's round, so every record carries
        # what only AASDEngine.decode used to stamp
        cm = CostModel(get_profile("sim-7b"))
        decoder = build_row_decoder(row, smoke_zoo, "sim-7b", 3, cm, max_new_tokens=6)
        rec = decoder.decode(smoke_zoo.eval_dataset("coco-sim", 1).samples[0])
        assert 0.0 < rec.ttft_wall_s <= rec.wall_time_s


class TestAASDAccounting:
    def test_forward_counts_and_bounds(self, setup):
        cm = setup["cm"]
        gamma = 3
        engine = AASDEngine(
            setup["target"], setup["head"], setup["tokenizer"], cm,
            AASDEngineConfig(gamma=gamma, max_new_tokens=12),
        )
        rec = engine.decode(setup["sample"])
        assert rec.n_target_forwards == len(rec.blocks) + 1

        assert all(1 <= b.n_draft <= gamma for b in rec.blocks)
        n_drafted = sum(b.n_draft for b in rec.blocks)
        fixed = (cm.target_prefill() + cm.price("projector", (1,))
                 + sum(cm.price("verify", (b.n_draft + 1,)) for b in rec.blocks))
        # Draft steps attend to a KV whose length grows within a generation;
        # bound it by the shortest and longest possible spans.
        min_step = cm.price("head", (1,), (0,))
        max_step = cm.price("head", (1,), (10_000,))
        assert fixed + n_drafted * min_step <= rec.sim_time_ms
        assert rec.sim_time_ms <= fixed + n_drafted * max_step

    def test_termination_contract(self, setup):
        engine = AASDEngine(
            setup["target"], setup["head"], setup["tokenizer"], setup["cm"],
            AASDEngineConfig(gamma=4, max_new_tokens=9),
        )
        rec = engine.decode(setup["sample"])
        eos = setup["tokenizer"].vocab.eos_id
        assert rec.token_ids[-1] == eos or rec.n_tokens == 9
        assert eos not in rec.token_ids[:-1]
