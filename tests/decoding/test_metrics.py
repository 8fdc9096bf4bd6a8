"""Metric aggregation tests (omega, alpha, tau, delta)."""

import numpy as np
import pytest

from repro.core import AASDDraftHead, AASDEngine, AASDEngineConfig, DraftHeadConfig
from repro.data.tasks import make_dataset
from repro.decoding import AutoregressiveDecoder, CostModel, get_profile
from repro.decoding.metrics import BlockRecord, DecodeRecord, aggregate_metrics
from repro.errors import DecodingError
from repro.models.config import LlamaConfig, LlavaConfig, VisionConfig
from repro.models.llava import MiniLlava


def record(tokens, sim_ms, blocks=(), wall=0.0):
    rec = DecodeRecord(
        token_ids=list(range(tokens)),
        wall_time_s=wall,
        blocks=list(blocks),
    )
    rec.charge_sim(sim_ms)
    return rec


@pytest.fixture(scope="module")
def decoded(tokenizer):
    """Paired AASD / AR records of three samples on tiny random models."""
    gen = np.random.default_rng(0)
    vocab = tokenizer.vocab_size
    target = MiniLlava(
        LlavaConfig(
            llama=LlamaConfig(vocab_size=vocab, dim=16, n_layers=1, n_heads=2, mlp_hidden=24),
            vision=VisionConfig(image_size=48, patch_size=16, dim=8, n_layers=1,
                                n_heads=2, mlp_hidden=16),
        ),
        rng=gen,
    )
    head = AASDDraftHead(
        DraftHeadConfig(
            vocab_size=vocab, dim=16, n_heads=2, mlp_hidden=24,
            n_vision_tokens=9, k_compressed=3,
        ),
        rng=gen,
    )
    cm = CostModel(get_profile("sim-7b"))
    samples = make_dataset("coco-sim", 3, seed=4).samples
    engine = AASDEngine(target, head, tokenizer, cm,
                        AASDEngineConfig(gamma=3, max_new_tokens=10))
    ar = AutoregressiveDecoder(target, tokenizer, cm, max_new_tokens=10)
    return [engine.decode(s) for s in samples], [ar.decode(s) for s in samples]


class TestBlockRecord:
    def test_valid(self):
        b = BlockRecord(n_draft=3, n_accepted=2, n_emitted=3)
        assert b.n_accepted == 2

    def test_invalid_acceptance(self):
        with pytest.raises(DecodingError):
            BlockRecord(n_draft=3, n_accepted=4, n_emitted=5)
        with pytest.raises(DecodingError):
            BlockRecord(n_draft=3, n_accepted=-1, n_emitted=0)


class TestAggregate:
    def test_walltime_speedup(self):
        blocks = [BlockRecord(3, 3, 4)]
        sd = [record(8, sim_ms=100.0, blocks=blocks)]
        ar = [record(8, sim_ms=250.0)]
        report = aggregate_metrics(sd, ar)
        assert report.walltime_speedup == pytest.approx(2.5)

    def test_acceptance_rate_is_block_mean(self):
        blocks = [BlockRecord(4, 4, 5), BlockRecord(4, 0, 1)]
        sd = [record(6, 10.0, blocks)]
        ar = [record(6, 10.0)]
        report = aggregate_metrics(sd, ar)
        assert report.acceptance_rate == pytest.approx(0.5)

    def test_block_efficiency_mean_emitted(self):
        blocks = [BlockRecord(3, 3, 4), BlockRecord(3, 1, 2)]
        sd = [record(6, 10.0, blocks)]
        ar = [record(6, 10.0)]
        assert aggregate_metrics(sd, ar).block_efficiency == pytest.approx(3.0)

    def test_decoding_speed_tokens_per_second(self):
        blocks = [BlockRecord(3, 2, 3)]
        sd = [record(10, sim_ms=500.0, blocks=blocks)]
        ar = [record(10, sim_ms=1000.0)]
        report = aggregate_metrics(sd, ar)
        assert report.decoding_speed == pytest.approx(20.0)
        assert report.ar_decoding_speed == pytest.approx(10.0)

    def test_multiple_samples_pool_blocks(self):
        sd = [
            record(4, 50.0, [BlockRecord(2, 2, 3)]),
            record(4, 50.0, [BlockRecord(2, 0, 1)]),
        ]
        ar = [record(4, 100.0), record(4, 100.0)]
        report = aggregate_metrics(sd, ar)
        assert report.acceptance_rate == pytest.approx(0.5)
        assert report.n_samples == 2
        assert report.n_tokens_sd == 8

    def test_row_keys(self):
        sd = [record(4, 50.0, [BlockRecord(2, 1, 2)])]
        ar = [record(4, 100.0)]
        row = aggregate_metrics(sd, ar).row()
        assert set(row) == {"omega", "alpha", "tau", "delta"}

    def test_wall_speedup_nan_when_unmeasured(self):
        sd = [record(4, 50.0, [BlockRecord(2, 1, 2)])]
        ar = [record(4, 100.0)]
        report = aggregate_metrics(sd, ar)
        assert report.wall_speedup_raw != report.wall_speedup_raw  # NaN

    def test_mismatched_lengths_raise(self):
        with pytest.raises(DecodingError):
            aggregate_metrics([record(1, 1.0, [BlockRecord(1, 0, 1)])], [])

    def test_empty_raises(self):
        with pytest.raises(DecodingError):
            aggregate_metrics([], [])

    def test_no_blocks_raises(self):
        with pytest.raises(DecodingError):
            aggregate_metrics([record(1, 1.0)], [record(1, 1.0)])


class TestSimCategories:
    def test_sim_categories_cover_total(self, decoded):
        record = decoded[0][0]
        assert record.sim_by_category           # categorised charges exist
        assert sum(record.sim_by_category.values()) == pytest.approx(record.sim_time_ms)
        assert set(record.sim_by_category) <= {"prefill", "draft", "verify", "fallback"}

    def test_report_surfaces_categories(self, decoded):
        sd_records, ar_records = decoded
        report = aggregate_metrics(sd_records, ar_records)
        assert sum(report.sim_time_by_category.values()) == pytest.approx(
            sum(r.sim_time_ms for r in sd_records)
        )
        assert "draft" in report.sim_time_by_category
        assert "verify" in report.sim_time_by_category
