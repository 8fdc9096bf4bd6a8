"""repro.obs — tracing, profiling, and structured logging for the pipeline.

Three pillars (see ``docs/observability.md``):

* :mod:`~repro.obs.tracing` — span tracer instrumenting the prefill /
  draft / verify loop, the autoregressive baseline, training, and the
  experiment runner.  Disabled by default; near-zero overhead when off.
* :mod:`~repro.obs.exporters` + the ``python -m repro.obs summarize`` CLI
  — JSONL and Chrome-trace span export and per-phase breakdowns.
* :mod:`~repro.obs.logsetup` — structured logging.

Counts are not kept here: each number is read from the object that owns
it (``DecodeRecord``, ``ServingReport``, ``ArenaStats``) or from the spans.

Quickstart::

    from repro import obs
    tracer = obs.enable_tracing()
    record = engine.decode(sample)          # spans collected
    obs.export_chrome(tracer, "trace.json") # load in ui.perfetto.dev
    obs.export_jsonl(tracer, "trace.jsonl")
    # then: python -m repro.obs summarize trace.jsonl
"""

from .exporters import export_chrome, export_jsonl, read_chrome, read_jsonl, read_trace
from .logsetup import StructuredFormatter, configure_logging, get_logger
from .profile import (
    AttributionReport,
    PhaseAttribution,
    Profiler,
    build_attribution,
    collect_latencies,
    disable_profiling,
    enable_profiling,
    get_profiler,
    render_attribution,
    summarize_latencies,
)
from .flamegraph import export_collapsed, read_collapsed
from .summarize import PhaseStats, TraceSummary, render_summary, summarize_spans
from .tracing import (
    Span,
    SpanRecord,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
)

__all__ = [
    # tracing
    "Span",
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "enable_tracing",
    "disable_tracing",
    # exporters
    "export_jsonl",
    "export_chrome",
    "read_jsonl",
    "read_chrome",
    "read_trace",
    # summaries
    "PhaseStats",
    "TraceSummary",
    "summarize_spans",
    "render_summary",
    # profiling
    "Profiler",
    "get_profiler",
    "enable_profiling",
    "disable_profiling",
    "AttributionReport",
    "PhaseAttribution",
    "build_attribution",
    "render_attribution",
    "collect_latencies",
    "summarize_latencies",
    "export_collapsed",
    "read_collapsed",
    # logging
    "configure_logging",
    "get_logger",
    "StructuredFormatter",
]
