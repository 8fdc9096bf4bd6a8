"""End-to-end tracing of real decodes: coverage, overhead, summarize CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import AASDEngine, AASDEngineConfig
from repro.decoding import AutoregressiveDecoder
from repro.obs.__main__ import main as obs_main
from repro.obs.exporters import export_chrome, export_jsonl, read_chrome, read_jsonl
from repro.obs.summarize import render_summary, summarize_spans
from repro.obs.tracing import Tracer
from repro.training.trainer import TrainConfig, run_training
from repro.nn.tensor import Tensor


def _engine(world, tracer=None, seed=7, max_new_tokens=32):
    return AASDEngine(
        world["target"], world["head"], world["tokenizer"], world["cm"],
        AASDEngineConfig(gamma=3, max_new_tokens=max_new_tokens),
        rng=np.random.default_rng(seed),
        tracer=tracer,
    )


def _traced_decodes(world, runs=3):
    """``runs`` traced decodes of one sample, after an untraced warm-up.

    The warm-up keeps one-time costs out of the traced runs.  Preemption
    on a loaded host only ever opens gaps between phase spans, never
    closes one, so a tiling invariant is judged on the run with the
    smallest gap.
    """
    _engine(world).decode(world["samples"][0])
    runs_out = []
    for _ in range(runs):
        tracer = Tracer()
        runs_out.append((tracer, _engine(world, tracer=tracer).decode(world["samples"][0])))
    return runs_out


class TestOverheadGuard:
    def test_disabled_tracer_output_identical_to_untraced(self, world):
        """Tracing off must be a true no-op: byte-identical token stream."""
        baseline = _engine(world, tracer=None).decode(world["samples"][0])
        disabled = _engine(world, tracer=Tracer(enabled=False)).decode(world["samples"][0])
        assert disabled.token_ids == baseline.token_ids
        assert disabled.text == baseline.text
        assert disabled.sim_time_ms == pytest.approx(baseline.sim_time_ms)

    def test_enabled_tracer_does_not_perturb_decode(self, world):
        tracer = Tracer()
        baseline = _engine(world, tracer=None).decode(world["samples"][0])
        traced = _engine(world, tracer=tracer).decode(world["samples"][0])
        assert traced.token_ids == baseline.token_ids
        assert tracer.spans  # and we actually recorded something


class TestDecodeTrace:
    def test_phase_spans_tile_wall_time(self, world, tmp_path):
        """Chrome-trace per-phase durations sum to within 3% of wall time.

        3% (not tighter) because the raw-ndarray inference kernels cut
        per-phase work to the point where inter-phase bookkeeping and
        first-call costs (rope table growth, numpy internals) are a
        visible fraction of a single decode's wall time; a real coverage
        hole (an untraced phase) is far larger than 3%.  Judged on the
        least-preempted of three runs (``_traced_decodes``).
        """
        def phases(tracer, run):
            spans = read_chrome(export_chrome(tracer, tmp_path / f"trace{run}.json"))
            decode = [s for s in spans if s.name == "decode"]
            assert len(decode) == 1
            phase_s = sum(
                s.duration_s for s in spans
                if s.parent_id == decode[0].span_id
                and s.name in ("prefill", "draft", "verify", "fallback")
            )
            return decode[0], phase_s

        runs = [(phases(tracer, i), record)
                for i, (tracer, record) in enumerate(_traced_decodes(world))]
        (decode, phase_s), record = min(
            runs, key=lambda run: abs(1.0 - run[0][1] / run[1].wall_time_s))
        assert phase_s == pytest.approx(record.wall_time_s, rel=0.03)
        # The decode root itself also tracks the wall timer closely.
        assert decode.duration_s == pytest.approx(record.wall_time_s, rel=0.03)

    def test_span_structure_and_attrs(self, world):
        tracer = Tracer()
        record = _engine(world, tracer=tracer).decode(world["samples"][0])
        spans = tracer.spans
        names = {s.name for s in spans}
        assert {"decode", "prefill", "draft", "verify"} <= names
        verifies = [s for s in spans if s.name == "verify"]
        assert len(verifies) == len(record.blocks)
        assert sum(int(s.attrs["n_accepted"]) for s in verifies) == sum(
            b.n_accepted for b in record.blocks
        )
        # Simulated charges on phase spans add up to the record total.
        phase_sim = sum(s.sim_ms for s in spans if s.name != "decode")
        assert phase_sim == pytest.approx(record.sim_time_ms)

    def test_ar_baseline_traced(self, world):
        tracer = Tracer()
        ar = AutoregressiveDecoder(
            world["target"], world["tokenizer"], world["cm"],
            max_new_tokens=12, tracer=tracer,
        )
        record = ar.decode(world["samples"][0])
        names = [s.name for s in tracer.spans]
        assert names.count("ar_step") == record.n_tokens - 1
        assert "prefill" in names and "decode" in names


class TestSummarize:
    def test_summary_stats(self, world):
        def gap_per_phase_ms(summary):
            n_phases = sum(phase.count for phase in summary.phases.values())
            return (1.0 - summary.coverage) * summary.decode_wall_ms / n_phases

        runs = [(summarize_spans(tracer.spans), record)
                for tracer, record in _traced_decodes(world)]
        for summary, _ in runs:
            assert summary.n_decodes == 1
            assert summary.coverage is not None and summary.coverage <= 1.0
        summary, record = min(runs, key=lambda run: gap_per_phase_ms(run[0]))
        # Phase spans tile the decode up to a fixed cost per span boundary
        # (closing one span, the step preamble that picks the next phase,
        # opening it): 6-8 us measured.  The invariant is that absolute
        # gap, not a share of a decode whose phases keep getting faster —
        # an untraced phase on this dim-16 world would add ~400 us per
        # block, far past the 50 us bound (docs/observability.md).
        # The bound holds on the least-preempted of three runs.
        assert gap_per_phase_ms(summary) < 0.05
        blocks = record.blocks
        drafted = sum(b.n_draft for b in blocks)
        if drafted:
            assert summary.acceptance_rate == pytest.approx(
                sum(b.n_accepted for b in blocks) / drafted
            )
        rendered = render_summary(summary)
        assert "prefill" in rendered and "verify" in rendered
        assert "coverage" in rendered

    def test_cli_on_both_formats(self, world, tmp_path, capsys):
        tracer = Tracer()
        _engine(world, tracer=tracer, max_new_tokens=8).decode(world["samples"][0])
        jsonl = export_jsonl(tracer, tmp_path / "t.jsonl")
        chrome = export_chrome(tracer, tmp_path / "t.json")
        for path in (jsonl, chrome):
            assert obs_main(["summarize", str(path)]) == 0
            out = capsys.readouterr().out
            assert "phase" in out and "prefill" in out
        assert obs_main(["summarize", str(jsonl), "--json"]) == 0
        assert '"n_decodes": 1' in capsys.readouterr().out


class TestMemorySection:
    def test_decode_spans_carry_arena_attrs(self, world):
        tracer = Tracer()
        _engine(world, tracer=tracer).decode(world["samples"][0])
        summary = summarize_spans(tracer.spans)
        assert summary.has_memory
        assert summary.bytes_copied > 0
        assert summary.peak_cache_tokens > 0
        rendered = render_summary(summary)
        assert "memory:" in rendered
        assert "copied by KV arenas" in rendered
        assert "peak cache" in rendered

    def test_memory_section_absent_without_attrs(self, world):
        """Traces from non-decode work must not grow a bogus memory line."""
        tracer = Tracer()
        with tracer.span("decode"):
            with tracer.span("prefill"):
                pass
        summary = summarize_spans(tracer.spans)
        assert not summary.has_memory
        assert "memory:" not in render_summary(summary)

    def test_json_cli_reports_memory(self, world, tmp_path, capsys):
        tracer = Tracer()
        _engine(world, tracer=tracer, max_new_tokens=8).decode(world["samples"][0])
        jsonl = export_jsonl(tracer, tmp_path / "t.jsonl")
        assert obs_main(["summarize", str(jsonl), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["memory"] is not None
        assert payload["memory"]["bytes_copied"] > 0
        assert payload["memory"]["peak_cache_tokens"] > 0


class TestResilienceSection:
    def _schedule_span(self, tracer, **attrs):
        with tracer.span("schedule") as span:
            for key, value in attrs.items():
                span.set_attr(key, value)

    def test_schedule_spans_aggregate_retries_and_breaker(self):
        tracer = Tracer()
        self._schedule_span(tracer, breaker_state="closed", n_retried=2)
        self._schedule_span(tracer, breaker_state="open", n_shed=3)
        self._schedule_span(tracer, breaker_state="open")
        summary = summarize_spans(tracer.spans)
        assert summary.has_resilience
        assert summary.n_retries == 2 and summary.n_shed == 3
        assert summary.breaker_rounds == {"closed": 1, "open": 2}
        rendered = render_summary(summary)
        assert "resilience: 2 retries; 3 shed" in rendered
        assert "breaker rounds: closed=1, open=2" in rendered

    def test_section_absent_without_resilience_attrs(self):
        tracer = Tracer()
        with tracer.span("schedule"):
            pass
        summary = summarize_spans(tracer.spans)
        assert not summary.has_resilience
        assert "resilience:" not in render_summary(summary)


class TestAcceptanceSection:
    """The ``acceptance:`` block: tokens/target-forward + block-eff p50/p95."""

    def _verify_span(self, tracer, n_accepted, batch=None):
        with tracer.span("verify") as span:
            span.set_attr("n_accepted", n_accepted)
            if batch is not None:
                span.set_attr("batch", batch)

    def test_synthetic_spans_aggregate_exactly(self):
        tracer = Tracer()
        with tracer.span("prefill"):
            pass
        self._verify_span(tracer, 3)            # solo: emits 4
        self._verify_span(tracer, 1)            # solo: emits 2
        self._verify_span(tracer, 4, batch=2)   # batched: emits 6 over 2 reqs
        summary = summarize_spans(tracer.spans)
        assert summary.n_target_forward_spans == 4
        # prefill 1 + verify 4 + 2 + 6 = 13 tokens over 4 forwards.
        assert summary.tokens_emitted == 13
        assert summary.accepted_per_forward == pytest.approx(13 / 4)
        # Per-request samples: [4, 2, 3, 3] (batched span -> round mean x2).
        assert sorted(summary.block_emitted) == [2.0, 3.0, 3.0, 4.0]

    def test_rendered_section_snapshot(self):
        tracer = Tracer()
        with tracer.span("prefill"):
            pass
        self._verify_span(tracer, 3)
        self._verify_span(tracer, 1)
        rendered = render_summary(summarize_spans(tracer.spans))
        assert (
            "acceptance: 2.333 accepted tokens/target-forward; "
            "block efficiency p50 3.00 p95 3.90" in rendered
        )

    def test_section_absent_without_forward_spans(self):
        tracer = Tracer()
        with tracer.span("draft"):
            pass
        summary = summarize_spans(tracer.spans)
        assert summary.accepted_per_forward is None
        assert "acceptance:" not in render_summary(summary)

    def test_real_decode_matches_record(self, world):
        """Trace-derived apf equals the record's pre-trim forward accounting."""
        tracer = Tracer()
        record = _engine(world, tracer=tracer).decode(world["samples"][0])
        summary = summarize_spans(tracer.spans)
        assert summary.n_target_forward_spans == record.n_target_forwards
        emitted = 1 + sum(b.n_emitted for b in record.blocks)  # prefill + blocks
        assert summary.tokens_emitted == emitted
        assert summary.accepted_per_forward == pytest.approx(
            emitted / record.n_target_forwards
        )

    def test_json_cli_reports_acceptance(self, world, tmp_path, capsys):
        tracer = Tracer()
        _engine(world, tracer=tracer, max_new_tokens=8).decode(world["samples"][0])
        jsonl = export_jsonl(tracer, tmp_path / "t.jsonl")
        assert obs_main(["summarize", str(jsonl), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        acc = payload["acceptance"]
        assert acc is not None
        assert acc["accepted_per_target_forward"] >= 1.0
        assert acc["block_efficiency_p95"] >= acc["block_efficiency_p50"] >= 1.0


class TestTrainingTrace:
    def test_run_training_emits_spans(self, rng):
        from repro.obs.tracing import set_tracer

        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            weight = Tensor(np.array([2.0]), requires_grad=True)

            def loss_fn(step, gen):
                return (weight * weight).sum()

            result = run_training([weight], loss_fn, TrainConfig(steps=5, warmup_steps=1), rng)
        finally:
            set_tracer(previous)
        assert len(result.losses) == 5
        names = [s.name for s in tracer.spans]
        assert names.count("train_step") == 5
        assert names.count("train") == 1
        train = [s for s in tracer.spans if s.name == "train"][0]
        assert train.attrs["steps"] == 5
