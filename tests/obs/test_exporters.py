"""Trace export → reload round-trips for both on-disk formats."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.obs.__main__ import main as obs_main
from repro.obs.exporters import (
    export_chrome,
    export_jsonl,
    read_chrome,
    read_jsonl,
    read_trace,
)
from repro.obs.tracing import Tracer


@pytest.fixture()
def tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("decode", decoder="ours", n_prompt_tokens=7) as root:
        root.add_sim_ms(100.0)
        with tracer.span("prefill") as sp:
            sp.add_sim_ms(63.5)
        with tracer.span("draft", gamma=3) as sp:
            sp.set_attr("n_draft", 3)
        with tracer.span("verify", n_draft=3) as sp:
            sp.set_attr("n_accepted", 2)
    return tracer


class TestJsonlRoundTrip:
    def test_lossless(self, tracer, tmp_path):
        path = export_jsonl(tracer, tmp_path / "trace.jsonl")
        reloaded = read_jsonl(path)
        assert reloaded == tracer.spans   # SpanRecord is a frozen dataclass

    def test_rejects_garbage_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "ok", "span_id": 1, "start_s": 0, "end_s": 1}\nnot json\n')
        with pytest.raises(ConfigError, match="invalid trace line"):
            read_jsonl(path)


class TestChromeRoundTrip:
    def test_loadable_structure(self, tracer, tmp_path):
        path = export_chrome(tracer, tmp_path / "trace.json", pid=1234)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert {e["ph"] for e in events} == {"X"}
        assert all(e["pid"] == 1234 for e in events)
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in events)

    def test_round_trip_preserves_content(self, tracer, tmp_path):
        path = export_chrome(tracer, tmp_path / "trace.json")
        reloaded = read_chrome(path)
        originals = {s.span_id: s for s in tracer.spans}
        assert set(originals) == {s.span_id for s in reloaded}
        for span in reloaded:
            original = originals[span.span_id]
            assert span.name == original.name
            assert span.parent_id == original.parent_id
            assert span.duration_s == pytest.approx(original.duration_s, abs=1e-9)
            assert span.start_s == pytest.approx(original.start_s, abs=1e-6)
            assert span.sim_ms == pytest.approx(original.sim_ms)
            # Attributes survive minus the id bookkeeping keys.
            for key, value in original.attrs.items():
                assert span.attrs[key] == value


class TestFormatSniffing:
    def test_reads_either_format(self, tracer, tmp_path):
        jsonl = export_jsonl(tracer, tmp_path / "a.jsonl")
        chrome = export_chrome(tracer, tmp_path / "b.json")
        assert {s.name for s in read_trace(jsonl)} == {s.name for s in tracer.spans}
        assert {s.name for s in read_trace(chrome)} == {s.name for s in tracer.spans}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            read_trace(tmp_path / "nope.jsonl")

    def test_non_trace_content(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello world\n")
        with pytest.raises(ConfigError):
            read_trace(path)

    def test_older_traces_with_thread_keys_still_read(self, tmp_path):
        # Traces written before the single-thread contract carry thread
        # keys; both readers ignore them.
        jsonl = tmp_path / "old.jsonl"
        jsonl.write_text(json.dumps({
            "name": "decode", "span_id": 1, "parent_id": None, "start_s": 0.0,
            "end_s": 1.0, "thread_id": 140, "thread_name": "MainThread",
            "attrs": {"sim_ms": 5.0}}) + "\n")
        chrome = tmp_path / "old.json"
        chrome.write_text(json.dumps({"traceEvents": [{
            "name": "decode", "ph": "X", "ts": 0.0, "dur": 1e6, "pid": 1,
            "tid": 140, "tname": "MainThread", "args": {"span_id": 1, "sim_ms": 5.0}}]}))
        for path in (jsonl, chrome):
            (span,) = read_trace(path)
            assert (span.name, span.span_id, span.duration_s, span.sim_ms) == \
                ("decode", 1, 1.0, 5.0)

    def test_zero_span_exports_read_back_empty(self, tmp_path):
        empty = Tracer()
        jsonl = export_jsonl(empty, tmp_path / "empty.jsonl")
        chrome = export_chrome(empty, tmp_path / "empty.json")
        assert jsonl.read_text() == ""
        assert read_trace(jsonl) == []
        assert read_trace(chrome) == []


class TestCliErrors:
    @pytest.mark.parametrize("command", ["summarize", "flamegraph"])
    @pytest.mark.parametrize(
        "trace", ["missing.jsonl", "bad.json", "nokeys.jsonl", "noevent.json", "."])
    def test_unreadable_trace_is_one_error_line(self, command, trace, tmp_path, capsys):
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "nokeys.jsonl").write_text('{"span_id": 1}\n')
        (tmp_path / "noevent.json").write_text('{"traceEvents": [{"ph": "X"}]}')
        argv = [command, str(tmp_path / trace)]
        if command == "flamegraph":
            argv.append(str(tmp_path / "out.collapsed"))
        assert obs_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_summarize_of_an_empty_trace(self, tmp_path, capsys):
        path = export_jsonl(Tracer(), tmp_path / "empty.jsonl")
        assert obs_main(["summarize", str(path)]) == 0
        assert "0 spans" in capsys.readouterr().out
