"""Request-level latency digests (TTFT / TPOT / E2E) on the server clock."""

from __future__ import annotations

import pytest

from repro.obs.summarize import render_summary, summarize_spans
from repro.obs.tracing import Tracer
from repro.serving import ContinuousBatchingScheduler, ServingConfig, serve_requests


def _serve(make_engine, samples, **config):
    engine = make_engine()
    scheduler = ContinuousBatchingScheduler(
        engine, ServingConfig(**config) if config else None
    )
    report = serve_requests(engine, samples, scheduler=scheduler)
    return report, scheduler


class TestLatencyDigests:
    def test_report_carries_all_three_digests(self, make_engine, world):
        report, scheduler = _serve(make_engine, world["samples"],
                                   max_batch_size=4)
        completed = report.count("completed")
        assert completed == len(world["samples"])
        for metric in ("ttft_ms", "tpot_ms", "e2e_ms"):
            digest = report.latency_ms[metric]
            assert digest["count"] == completed
            assert 0.0 < digest["p50"] <= digest["p95"] <= digest["p99"]
            assert digest["p50"] == pytest.approx(
                sorted(scheduler.latency_samples[metric])[completed // 2],
                rel=0.5,
            )
        # The first token lands well before the request retires.
        assert report.latency_ms["ttft_ms"]["p50"] < report.latency_ms["e2e_ms"]["p50"]

    def test_summary_exposes_percentile_keys(self, make_engine, world):
        report, _ = _serve(make_engine, world["samples"][:3])
        summary = report.summary()
        for key in ("ttft_ms_p50", "tpot_ms_p95", "e2e_ms_p99"):
            assert key in summary and summary[key] > 0.0

    def test_e2e_matches_result_timestamps(self, make_engine, world):
        report, scheduler = _serve(make_engine, world["samples"],
                                   max_batch_size=4)
        from_results = sorted(
            r.finished_ms - r.submitted_ms for r in report.results
        )
        assert from_results == pytest.approx(
            sorted(scheduler.latency_samples["e2e_ms"])
        )

    def test_single_request_identity(self, make_engine, world):
        # One request, so the three samples belong to the same request
        # and must satisfy e2e = ttft + tpot * (n_tokens - 1) exactly.
        report, scheduler = _serve(make_engine, world["samples"][:1])
        (result,) = report.results
        n_tokens = result.record.n_tokens
        assert n_tokens > 1
        ttft = scheduler.latency_samples["ttft_ms"][0]
        tpot = scheduler.latency_samples["tpot_ms"][0]
        e2e = scheduler.latency_samples["e2e_ms"][0]
        assert 0.0 < ttft <= e2e
        assert e2e == pytest.approx(ttft + tpot * (n_tokens - 1))


class TestLatencySpans:
    def test_request_latency_spans_exported(self, make_engine, world):
        tracer = Tracer(enabled=True)
        engine = make_engine(tracer=tracer)
        report = serve_requests(engine, world["samples"][:4],
                                ServingConfig(max_batch_size=2))
        spans = [s for s in tracer.spans if s.name == "request_latency"]
        assert len(spans) == len(report.results)
        assert {s.attrs["request_id"] for s in spans} == {
            r.request_id for r in report.results
        }
        for span in spans:
            assert span.attrs["e2e_ms"] > 0.0

    def test_summarize_renders_latency_section(self, make_engine, world):
        tracer = Tracer(enabled=True)
        engine = make_engine(tracer=tracer)
        serve_requests(engine, world["samples"][:4],
                       ServingConfig(max_batch_size=2))
        summary = summarize_spans(tracer.spans)
        assert summary.latency_ms["e2e_ms"]["count"] == 4
        rendered = render_summary(summary)
        assert "request latency" in rendered
        assert "p95" in rendered
        # request_latency bookkeeping spans stay out of the phase table.
        assert "request_latency" not in summary.phases


class TestWallClockTtft:
    def test_decode_record_stamps_ttft(self, make_engine, world):
        record = make_engine().decode(world["samples"][0])
        assert 0.0 < record.ttft_wall_s <= record.wall_time_s
