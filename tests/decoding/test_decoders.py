"""Decoder integration tests on small random models.

Losslessness of greedy speculative decoding holds for *any* target/draft
weights, so these tests use tiny untrained models and real datasets.
"""

import numpy as np
import pytest

from repro.core.draft_head import AASDDraftHead, DraftHeadConfig
from repro.core.engine import AASDEngine, AASDEngineConfig
from repro.data.tasks import make_dataset
from repro.decoding.autoregressive import AutoregressiveDecoder
from repro.decoding.base import commit_block, encode_prompt
from repro.decoding.cost_model import CostModel, get_profile
from repro.decoding.sampling import SamplerConfig
from repro.decoding.speculative import LlamaTextDraft, LlavaDraft
from repro.errors import DecodingError
from repro.models.config import LlamaConfig, LlavaConfig, VisionConfig
from repro.models.llama import MiniLlama
from repro.models.llava import MiniLlava


@pytest.fixture(scope="module")
def world(tokenizer):
    """Tiny random target + drafts + dataset, shared across this module."""
    rng = np.random.default_rng(0)
    vocab = tokenizer.vocab_size
    target = MiniLlava(
        LlavaConfig(
            llama=LlamaConfig(vocab_size=vocab, dim=24, n_layers=2, n_heads=2, mlp_hidden=48),
            vision=VisionConfig(image_size=48, patch_size=8, dim=16, n_layers=1, n_heads=2, mlp_hidden=32),
        ),
        rng=rng,
    )
    text_draft = MiniLlama(
        LlamaConfig(vocab_size=vocab, dim=16, n_layers=1, n_heads=2, mlp_hidden=32), rng=rng
    )
    llava_draft = MiniLlava(
        LlavaConfig(
            llama=LlamaConfig(vocab_size=vocab, dim=16, n_layers=1, n_heads=2, mlp_hidden=32),
            vision=VisionConfig(image_size=48, patch_size=16, dim=8, n_layers=1, n_heads=2, mlp_hidden=16),
        ),
        rng=rng,
    )
    head = AASDDraftHead(
        DraftHeadConfig(
            vocab_size=vocab, dim=24, n_heads=2, mlp_hidden=32,
            n_vision_tokens=36, k_compressed=8,
        ),
        rng=rng,
    )
    head.init_from_target(target.llama)
    dataset = make_dataset("coco-sim", 3, seed=11)
    cm = CostModel(get_profile("sim-7b"))
    return dict(
        target=target, text_draft=text_draft, llava_draft=llava_draft,
        head=head, dataset=dataset, cm=cm, tokenizer=tokenizer,
    )


class TestBaseHelpers:
    def test_encode_prompt_prepends_bos(self, world):
        ids = encode_prompt(world["tokenizer"], world["dataset"][0])
        assert ids[0] == world["tokenizer"].vocab.bos_id


class TestTokenBudget:
    """One eos/cap rule for every speculative loop (``commit_block``)."""

    @pytest.mark.parametrize("accepted,nxt,expected", [
        ([5, 6], 7, [1, 5, 6, 7]),          # fits: nothing cut
        ([5, 2, 6], 7, [1, 5, 2]),          # eos inside the budget: cut after it
        ([5, 6, 7, 8], 2, [1, 5, 6, 7, 8]),  # crosses the cap, eos past it: cap wins
        ([5, 6, 7], 2, [1, 5, 6, 7, 2]),    # eos lands exactly on the cap
    ])
    def test_cut_at_eos_or_cap_whichever_is_first(self, accepted, nxt, expected):
        committed = [1]
        commit_block(committed, accepted, nxt, eos_id=2, max_new_tokens=5)
        assert committed == expected

    def test_baseline_block_straddling_the_cap_stays_in_budget(self, smoke_zoo):
        # smoke DT-LLaMA, gamma 5, cap 4: the second verify block of this
        # sample crosses the cap and holds an eos further on; cutting at
        # eos before checking the cap emitted 6 tokens.
        from repro.eval.baselines import build_row_decoder

        cap = 4
        cm = CostModel(get_profile("sim-7b"))
        sample = smoke_zoo.eval_dataset("llava-bench-sim", 4).samples[3]
        decoder = build_row_decoder("DT-LLaMA", smoke_zoo, "sim-7b", 5, cm,
                                    max_new_tokens=cap)
        ar = AutoregressiveDecoder(smoke_zoo.target("sim-7b"), smoke_zoo.tokenizer(),
                                   cm, max_new_tokens=cap)
        tokens = decoder.decode(sample).token_ids
        assert len(tokens) <= cap
        assert tokens == ar.decode(sample).token_ids


class TestAutoregressive:
    def test_record_contents(self, world):
        ar = AutoregressiveDecoder(world["target"], world["tokenizer"], world["cm"], max_new_tokens=12)
        rec = ar.decode(world["dataset"][0])
        assert 1 <= rec.n_tokens <= 12
        assert rec.sim_time_ms > 0
        assert rec.n_target_forwards == rec.n_tokens  # prefill + N-1 steps
        assert rec.text == world["tokenizer"].decode(rec.token_ids)

    def test_deterministic(self, world):
        ar = AutoregressiveDecoder(world["target"], world["tokenizer"], world["cm"], max_new_tokens=10)
        a = ar.decode(world["dataset"][0])
        b = ar.decode(world["dataset"][0])
        assert a.token_ids == b.token_ids

    def test_name(self, world):
        ar = AutoregressiveDecoder(world["target"], world["tokenizer"], world["cm"])
        assert ar.name == "autoregressive"


def _sd(world, draft, gamma=3, max_new_tokens=16):
    """The engine's round over an independent draft (a Table 1 baseline row)."""
    return AASDEngine(
        world["target"], draft, world["tokenizer"], world["cm"],
        AASDEngineConfig(gamma=gamma, max_new_tokens=max_new_tokens),
    )


class TestSpeculativeLossless:
    @pytest.mark.parametrize("gamma", [1, 2, 3, 5])
    def test_text_draft_lossless(self, world, gamma):
        ar = AutoregressiveDecoder(world["target"], world["tokenizer"], world["cm"], max_new_tokens=16)
        sd = _sd(world, LlamaTextDraft(world["text_draft"]), gamma=gamma)
        for sample in world["dataset"]:
            assert sd.decode(sample).token_ids == ar.decode(sample).token_ids

    def test_llava_draft_lossless(self, world):
        ar = AutoregressiveDecoder(world["target"], world["tokenizer"], world["cm"], max_new_tokens=16)
        sd = _sd(world, LlavaDraft(world["llava_draft"]))
        for sample in world["dataset"]:
            assert sd.decode(sample).token_ids == ar.decode(sample).token_ids

    def test_blocks_recorded(self, world):
        sd = _sd(world, LlamaTextDraft(world["text_draft"]))
        rec = sd.decode(world["dataset"][0])
        assert rec.blocks
        # each block drafts gamma = 3, capped at the tokens its budget of 16
        # can still commit after the target's own token
        committed = 1   # the prefill's token
        for b in rec.blocks:
            assert b.n_draft == max(1, min(3, 16 - committed - 1))
            assert 0 <= b.n_accepted <= b.n_draft
            committed += b.n_emitted
        assert rec.blocks[0].n_draft == 3
        # Emitted tokens across blocks equal the generated count (first
        # token came from prefill; the last block may be trimmed by eos/cap).
        emitted = sum(b.n_emitted for b in rec.blocks)
        assert emitted >= rec.n_tokens - 1

    def test_gamma_validation(self, world):
        with pytest.raises(DecodingError):
            _sd(world, LlamaTextDraft(world["text_draft"]), gamma=0)

    def test_name_includes_draft(self, world):
        assert _sd(world, LlamaTextDraft(world["text_draft"], "ft-llama")).name == "sd(ft-llama)"
        assert _sd(world, world["head"]).name == "ours"


class TestAASDEngineLossless:
    @pytest.mark.parametrize("gamma", [1, 3, 5])
    def test_lossless(self, world, gamma):
        ar = AutoregressiveDecoder(world["target"], world["tokenizer"], world["cm"], max_new_tokens=16)
        engine = AASDEngine(
            world["target"], world["head"], world["tokenizer"], world["cm"],
            AASDEngineConfig(gamma=gamma, max_new_tokens=16),
        )
        for sample in world["dataset"]:
            assert engine.decode(sample).token_ids == ar.decode(sample).token_ids

    @pytest.mark.parametrize(
        "flags",
        [dict(disable_image_kv=True), dict(disable_text_kv=True),
         dict(disable_image_kv=True, disable_text_kv=True)],
    )
    def test_ablation_flags_still_lossless(self, world, flags):
        """Masking draft context hurts acceptance, never correctness."""
        ar = AutoregressiveDecoder(world["target"], world["tokenizer"], world["cm"], max_new_tokens=12)
        engine = AASDEngine(
            world["target"], world["head"].ablate_kv(**flags), world["tokenizer"],
            world["cm"], AASDEngineConfig(gamma=3, max_new_tokens=12),
        )
        sample = world["dataset"][0]
        assert engine.decode(sample).token_ids == ar.decode(sample).token_ids

    def test_no_target_kv_variant_runs(self, world):
        head = AASDDraftHead(
            DraftHeadConfig(
                vocab_size=world["tokenizer"].vocab_size, dim=24, n_heads=2,
                mlp_hidden=32, n_vision_tokens=36, k_compressed=8, use_target_kv=False,
            ),
            rng=np.random.default_rng(5),
        )
        ar = AutoregressiveDecoder(world["target"], world["tokenizer"], world["cm"], max_new_tokens=12)
        engine = AASDEngine(
            world["target"], head, world["tokenizer"], world["cm"],
            AASDEngineConfig(gamma=3, max_new_tokens=12),
        )
        sample = world["dataset"][0]
        assert engine.decode(sample).token_ids == ar.decode(sample).token_ids

    def test_vision_token_mismatch_rejected(self, world):
        head = AASDDraftHead(
            DraftHeadConfig(
                vocab_size=world["tokenizer"].vocab_size, dim=24, n_heads=2,
                mlp_hidden=32, n_vision_tokens=9, k_compressed=4,
            ),
            rng=np.random.default_rng(5),
        )
        with pytest.raises(DecodingError):
            AASDEngine(
                world["target"], head, world["tokenizer"], world["cm"],
                AASDEngineConfig(gamma=3),
            )

    def test_sampled_decoding_preserves_quality_contract(self, world):
        """With sampling, SD output need not equal the AR stream, but it
        must stay inside the vocabulary and respect the token cap."""
        engine = AASDEngine(
            world["target"], world["head"], world["tokenizer"], world["cm"],
            AASDEngineConfig(gamma=3, max_new_tokens=10),
            sampler_config=SamplerConfig(greedy=False, temperature=1.0),
            rng=np.random.default_rng(3),
        )
        rec = engine.decode(world["dataset"][0])
        assert 1 <= rec.n_tokens <= 10
        assert all(0 <= t < world["tokenizer"].vocab_size for t in rec.token_ids)

    def test_sim_time_accumulates(self, world):
        engine = AASDEngine(
            world["target"], world["head"], world["tokenizer"], world["cm"],
            AASDEngineConfig(gamma=3, max_new_tokens=12),
        )
        rec = engine.decode(world["dataset"][0])
        assert rec.sim_time_ms > world["cm"].target_prefill()
        assert rec.n_target_forwards >= 1
