"""Profiler, quantiles, attribution, and flamegraph round-trip tests."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import AASDEngine, AASDEngineConfig
from repro.decoding import AutoregressiveDecoder
from repro.errors import ConfigError
from repro.nn.tensor import Tensor, matmul_data
from repro.obs.flamegraph import export_collapsed, fold_spans, read_collapsed
from repro.obs.metrics import exact_quantile
from repro.obs.profile import (
    PROFILER,
    _self_check_phase_sets,
    build_attribution,
    collect_latencies,
    disable_profiling,
    enable_profiling,
    render_attribution,
    summarize_latencies,
)
from repro.obs.tracing import Tracer
from repro.utils.arena import Arena


@pytest.fixture()
def profiler():
    """Profiling on for the test, fully reset afterwards."""
    PROFILER.reset()
    enable_profiling()
    yield PROFILER
    disable_profiling()
    PROFILER.tracer = None
    PROFILER.reset()


def _engine(world, tracer=None) -> AASDEngine:
    return AASDEngine(
        world["target"], world["head"], world["tokenizer"], world["cm"],
        AASDEngineConfig(gamma=3, max_new_tokens=16),
        rng=np.random.default_rng(7),
        tracer=tracer,
    )


# ---------------------------------------------------------------------------
# Quantiles
# ---------------------------------------------------------------------------
class TestQuantiles:
    def test_exact_quantile_matches_numpy(self):
        rng = np.random.default_rng(3)
        values = list(rng.lognormal(mean=1.0, sigma=2.0, size=257))
        for q in (0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert exact_quantile(values, q) == pytest.approx(
                float(np.percentile(values, 100 * q)), rel=1e-9
            )

    def test_exact_quantile_rejects_bad_input(self):
        with pytest.raises(ConfigError):
            exact_quantile([], 0.5)
        with pytest.raises(ConfigError):
            exact_quantile([1.0], 1.5)


# ---------------------------------------------------------------------------
# Op hooks
# ---------------------------------------------------------------------------
class TestHooks:
    def test_gemm_hook_counts_calls_and_flops(self, profiler):
        a = Tensor(np.ones((4, 8), dtype=np.float32))
        b = Tensor(np.ones((8, 5), dtype=np.float32))
        _ = a @ b
        stats = profiler.op("gemm")
        assert stats.calls == 1
        assert stats.flops == pytest.approx(2.0 * 4 * 5 * 8)
        assert stats.wall_ms > 0.0

    def test_mixed_dtype_product_is_booked_as_gemm_cast(self, profiler):
        x = np.ones((4, 8))                        # float64 activations
        w = np.ones((8, 5), dtype=np.float32)      # a float32 weight
        matmul_data(x, w)
        matmul_data(x, w.astype(np.float64))
        assert profiler.op("gemm_cast").calls == 1
        assert profiler.op("gemm").calls == 1

    def test_disabled_hook_records_nothing(self):
        PROFILER.reset()
        assert not PROFILER.enabled
        a = Tensor(np.ones((4, 8), dtype=np.float32))
        b = Tensor(np.ones((8, 5), dtype=np.float32))
        _ = a @ b
        assert PROFILER.snapshot() == {}

    def test_arena_hooks_count_bytes(self, profiler):
        arena = Arena((1, 2, 0, 4), axis=2, dtype=np.float32)
        block = np.ones((1, 2, 8, 4), dtype=np.float32)
        arena.append(block)
        arena.view()
        copy_stats = profiler.op("arena_copy")
        assert copy_stats.calls >= 1
        assert copy_stats.bytes >= block.nbytes
        assert profiler.op("arena_view").calls == 1
        arena.view()   # cached: no second view record
        assert profiler.op("arena_view").calls == 1

    def test_ops_stamp_innermost_span(self, world):
        tracer = Tracer(enabled=True)
        PROFILER.reset()
        enable_profiling(tracer)
        try:
            with tracer.span("decode"):
                with tracer.span("draft"):
                    a = Tensor(np.ones((4, 8), dtype=np.float32))
                    _ = a @ Tensor(np.ones((8, 5), dtype=np.float32))
        finally:
            disable_profiling()
            PROFILER.tracer = None
        draft = [s for s in tracer.spans if s.name == "draft"][0]
        assert draft.attrs["gemm_calls"] == 1
        assert draft.attrs["gemm_ms"] > 0.0
        decode = [s for s in tracer.spans if s.name == "decode"][0]
        assert "gemm_ms" not in decode.attrs   # innermost span only

    def test_disabled_hook_near_zero_overhead(self):
        # The disabled path must cost one flag check.  Enabled does
        # strictly more (two clock reads + locked accounting per op), so
        # disabled best-of time is bounded by the enabled best-of time.
        a = Tensor(np.ones((8, 8), dtype=np.float32))
        b = Tensor(np.ones((8, 8), dtype=np.float32))

        def best_of(runs: int = 9, iters: int = 200) -> float:
            best = float("inf")
            for _ in range(runs):
                t0 = time.perf_counter()
                for _ in range(iters):
                    _ = a @ b
                best = min(best, time.perf_counter() - t0)
            return best

        PROFILER.reset()
        disable_profiling()
        disabled = best_of()
        enable_profiling()
        try:
            enabled = best_of()
        finally:
            disable_profiling()
            PROFILER.reset()
        assert disabled <= enabled * 1.25


# ---------------------------------------------------------------------------
# Attribution
# ---------------------------------------------------------------------------
class TestAttribution:
    def test_decode_attribution_completeness(self, world):
        tracer = Tracer(enabled=True)
        PROFILER.reset()
        enable_profiling(tracer)
        try:
            engine = _engine(world, tracer=tracer)
            engine.decode(world["samples"][0])
        finally:
            disable_profiling()
            PROFILER.tracer = None
        spans = tracer.spans
        report = build_attribution(spans)
        assert report.has_ops
        assert report.total_ms > 0.0
        # Measured op time never exceeds the wall of the span it ran in.
        for phase in report.phases.values():
            assert phase.gemm_ms + phase.gemm_cast_ms + phase.arena_ms <= phase.wall_ms * 1.001
        # An engine's forwards read prepared operands: no product casts.
        assert PROFILER.op("gemm_cast").calls == 0
        assert report.buckets["gemm_cast"] == 0.0
        # Buckets + residual account for the whole trace, and the
        # unattributed residual respects the span-tiling guarantee.
        total = sum(report.buckets.values())
        assert total <= report.total_ms * 1.001
        assert report.residual_fraction < 0.10
        assert report.buckets["gemm"] > 0.0
        rendered = render_attribution(report)
        assert "python_overhead" in rendered and "residual" in rendered
        assert "gemm_cast" in rendered

    def test_autoregressive_decode_reads_prepared_operands(self, world):
        decoder = AutoregressiveDecoder(world["target"], world["tokenizer"], world["cm"],
                                        max_new_tokens=8)
        PROFILER.reset()
        enable_profiling()
        try:
            decoder.decode(world["samples"][0])
            gemms, casts = PROFILER.op("gemm").calls, PROFILER.op("gemm_cast").calls
        finally:
            disable_profiling()
            PROFILER.reset()
        assert gemms > 0 and casts == 0

    def test_profiling_is_invisible_to_decoding(self, world):
        baseline = _engine(world).decode(world["samples"][0])
        PROFILER.reset()
        enable_profiling()
        try:
            profiled = _engine(world).decode(world["samples"][0])
        finally:
            disable_profiling()
            PROFILER.reset()
        # Byte-identical output: profiling never touches RNG or data.
        assert profiled.token_ids == baseline.token_ids
        assert profiled.text == baseline.text

    def test_attribution_without_ops_flags_it(self):
        tracer = Tracer(enabled=True)
        with tracer.span("decode"):
            with tracer.span("draft"):
                pass
        report = build_attribution(tracer.spans)
        assert not report.has_ops
        assert "profiling enabled" in render_attribution(report)

    def test_phase_lists_in_sync_with_summarizer(self):
        _self_check_phase_sets()


# ---------------------------------------------------------------------------
# Latency helpers
# ---------------------------------------------------------------------------
class TestLatencyHelpers:
    def test_collect_and_summarize(self):
        tracer = Tracer(enabled=True)
        for i, e2e in enumerate((100.0, 200.0, 300.0)):
            with tracer.span("request_latency", request_id=f"r{i}",
                             ttft_ms=10.0 * (i + 1), tpot_ms=5.0, e2e_ms=e2e):
                pass
        latencies = collect_latencies(tracer.spans)
        assert sorted(latencies["e2e_ms"]) == [100.0, 200.0, 300.0]
        digest = summarize_latencies(latencies)
        assert digest["e2e_ms"]["count"] == 3
        assert digest["e2e_ms"]["p50"] == pytest.approx(200.0)
        assert digest["ttft_ms"]["p99"] == pytest.approx(
            float(np.percentile([10.0, 20.0, 30.0], 99))
        )

    def test_empty_trace(self):
        assert collect_latencies([]) == {}
        assert summarize_latencies({}) == {}


# ---------------------------------------------------------------------------
# Flamegraph
# ---------------------------------------------------------------------------
class TestFlamegraph:
    def _trace(self) -> Tracer:
        tracer = Tracer(enabled=True)
        for _ in range(3):
            with tracer.span("decode"):
                with tracer.span("draft"):
                    time.sleep(0.001)
                with tracer.span("verify"):
                    time.sleep(0.002)
        return tracer

    def test_roundtrip(self, tmp_path):
        tracer = self._trace()
        folded = fold_spans(tracer)
        path = export_collapsed(tracer, tmp_path / "fg.collapsed")
        assert read_collapsed(path) == folded
        assert "decode;draft" in folded and "decode;verify" in folded

    def test_self_time_sums_to_wall(self):
        tracer = self._trace()
        spans = tracer.spans
        folded = fold_spans(spans)
        total_us = sum(folded.values())
        root_us = sum(1e6 * s.duration_s for s in spans if s.parent_id is None)
        # Self times tile the roots exactly up to integer rounding.
        assert total_us == pytest.approx(root_us, abs=len(spans) + 1)

    def test_rejects_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.collapsed"
        bad.write_text("no trailing count here\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            read_collapsed(bad)

    def test_orphan_spans_root_their_stacks(self):
        tracer = self._trace()
        spans = [s for s in tracer.spans if s.name != "decode"]  # drop parents
        folded = fold_spans(spans)
        assert set(folded) == {"draft", "verify"}
