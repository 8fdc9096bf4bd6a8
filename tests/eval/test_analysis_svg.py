"""Tests for the analysis utilities and the SVG chart writer."""

import numpy as np
import pytest

from repro.decoding.metrics import BlockRecord, DecodeRecord
from repro.errors import DecodingError
from repro.eval.analysis import (
    acceptance_by_position,
    block_length_histogram,
    per_task_breakdown,
)
from repro.eval.svg import grouped_bar_chart, save_svg


def record_with_blocks(blocks):
    record = DecodeRecord(
        token_ids=[1] * 8,
        blocks=[BlockRecord(n, a, a + 1) for n, a in blocks],
    )
    record.charge_sim(10.0)
    return record


class TestAcceptanceByPosition:
    def test_monotone_non_increasing(self):
        records = [record_with_blocks([(3, 3), (3, 1), (3, 0), (3, 2)])]
        pa = acceptance_by_position(records)
        assert pa.gamma == 3
        assert all(a >= b for a, b in zip(pa.rates, pa.rates[1:]))

    def test_exact_values(self):
        records = [record_with_blocks([(2, 2), (2, 1), (2, 0), (2, 1)])]
        pa = acceptance_by_position(records)
        # position 0 accepted in 3/4 blocks; position 1 in 1/4.
        assert pa.rates[0] == pytest.approx(0.75)
        assert pa.rates[1] == pytest.approx(0.25)
        assert pa.counts.tolist() == [4, 4]

    def test_mixed_depths(self):
        records = [record_with_blocks([(2, 2), (4, 3)])]
        pa = acceptance_by_position(records)
        assert pa.gamma == 4
        assert pa.counts.tolist() == [2, 2, 1, 1]

    def test_empty_raises(self):
        with pytest.raises(DecodingError):
            acceptance_by_position([DecodeRecord()])


class TestBlockHistogram:
    def test_counts(self):
        records = [record_with_blocks([(3, 0), (3, 0), (3, 2)])]
        assert block_length_histogram(records) == {0: 2, 2: 1}


class TestPerTaskBreakdown:
    def test_groups_by_task(self, tokenizer):
        from repro.data.tasks import make_dataset
        from repro.decoding import AutoregressiveDecoder, CostModel, get_profile
        from repro.models.config import LlamaConfig, LlavaConfig, VisionConfig
        from repro.models.llava import MiniLlava
        from repro.core import AASDDraftHead, AASDEngine, AASDEngineConfig, DraftHeadConfig

        gen = np.random.default_rng(0)
        target = MiniLlava(
            LlavaConfig(
                llama=LlamaConfig(vocab_size=tokenizer.vocab_size, dim=16, n_layers=1, n_heads=2, mlp_hidden=24),
                vision=VisionConfig(image_size=48, patch_size=16, dim=8, n_layers=1, n_heads=2, mlp_hidden=16),
            ),
            rng=gen,
        )
        head = AASDDraftHead(
            DraftHeadConfig(
                vocab_size=tokenizer.vocab_size, dim=16, n_heads=2, mlp_hidden=24,
                n_vision_tokens=9, k_compressed=3,
            ),
            rng=gen,
        )
        cm = CostModel(get_profile("sim-7b"))
        engine = AASDEngine(target, head, tokenizer, cm, AASDEngineConfig(gamma=2, max_new_tokens=10))
        baseline = AutoregressiveDecoder(target, tokenizer, cm, max_new_tokens=10)
        samples = make_dataset("llava-bench-sim", 6, seed=3).samples
        out = per_task_breakdown(engine, baseline, samples)
        assert set(out) == {"conversation", "detail", "reasoning"}
        for row in out.values():
            assert set(row) == {"omega", "alpha", "tau", "delta"}


class TestSvg:
    def test_valid_structure(self):
        svg = grouped_bar_chart(
            "demo", ["g1", "g2"], {"a": [1.0, 2.0], "b": [0.5, 1.5]}, y_label="omega"
        )
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert svg.count("<rect") >= 5  # background + 4 bars + legend
        assert "demo" in svg

    def test_escapes_markup(self):
        svg = grouped_bar_chart("a < b & c", ["x"], {"s": [1.0]})
        assert "a &lt; b &amp; c" in svg

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            grouped_bar_chart("t", ["a", "b"], {"s": [1.0]})

    def test_save(self, tmp_path):
        svg = grouped_bar_chart("t", ["x"], {"s": [1.0]})
        path = save_svg(svg, tmp_path / "charts" / "t.svg")
        assert path.exists()
        assert path.read_text().startswith("<svg")

    def test_zero_values_ok(self):
        svg = grouped_bar_chart("t", ["x"], {"s": [0.0]})
        assert "<svg" in svg
