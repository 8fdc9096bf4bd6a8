"""Observability CLI.

Usage:
    python -m repro.obs summarize TRACE [--json] [--attribution]
    python -m repro.obs flamegraph TRACE OUT

``TRACE`` may be a JSONL span log or a Chrome trace-event file (the format
is sniffed from the content; an empty file is a log with no spans).  A
missing or unreadable trace prints one ``error:`` line to stderr and
exits 2.  ``summarize`` prints the per-phase breakdown table;
``--attribution`` adds the op-level wall-clock split ({gemm, gemm_cast,
arena_copy, python_overhead, other}) from spans recorded with profiling
enabled.  ``flamegraph`` folds the span tree into a
collapsed-stack file loadable by speedscope / ``flamegraph.pl``.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..errors import ConfigError
from .exporters import read_trace
from .flamegraph import export_collapsed
from .logsetup import configure_logging
from .metrics import exact_quantile
from .profile import build_attribution, render_attribution
from .summarize import render_summary, summarize_spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.obs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_sum = sub.add_parser("summarize", help="per-phase breakdown of a trace file")
    p_sum.add_argument("trace", help="JSONL or Chrome trace file")
    p_sum.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    p_sum.add_argument("--attribution", action="store_true",
                       help="add the op-level wall-clock attribution report")
    p_flame = sub.add_parser(
        "flamegraph", help="fold a trace into a collapsed-stack flamegraph file"
    )
    p_flame.add_argument("trace", help="JSONL or Chrome trace file")
    p_flame.add_argument("out", help="output path for the collapsed-stack file")
    args = parser.parse_args(argv)

    configure_logging()
    try:
        spans = read_trace(args.trace)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "flamegraph":
        out = export_collapsed(spans, args.out)
        print(f"wrote {out}")
        return 0
    summary = summarize_spans(spans)
    attribution = build_attribution(spans) if args.attribution else None
    if args.json:
        payload = {
            "n_spans": summary.n_spans,
            "n_decodes": summary.n_decodes,
            "decode_wall_ms": summary.decode_wall_ms,
            "decode_sim_ms": summary.decode_sim_ms,
            "coverage": summary.coverage,
            "acceptance_rate": summary.acceptance_rate,
            "block_efficiency": summary.block_efficiency,
            "acceptance": {
                "accepted_per_target_forward": summary.accepted_per_forward,
                "n_target_forwards": summary.n_target_forward_spans,
                "tokens_emitted": summary.tokens_emitted,
                "block_efficiency_p50": exact_quantile(summary.block_emitted, 0.50)
                if summary.block_emitted else None,
                "block_efficiency_p95": exact_quantile(summary.block_emitted, 0.95)
                if summary.block_emitted else None,
            } if summary.accepted_per_forward is not None else None,
            "memory": {
                "bytes_copied": summary.bytes_copied,
                "arena_grows": summary.arena_grows,
                "peak_cache_tokens": summary.peak_cache_tokens,
            } if summary.has_memory else None,
            "resilience": {
                "n_retries": summary.n_retries,
                "n_shed": summary.n_shed,
                "breaker_rounds": summary.breaker_rounds,
            } if summary.has_resilience else None,
            "phases": {
                name: {
                    "count": s.count,
                    "wall_ms": s.wall_ms,
                    "sim_ms": s.sim_ms,
                    "n_draft": s.n_draft,
                    "n_accepted": s.n_accepted,
                    "p50_ms": s.quantile_ms(0.5),
                    "p95_ms": s.quantile_ms(0.95),
                    "p99_ms": s.quantile_ms(0.99),
                }
                for name, s in summary.phases.items()
            },
            "latency_ms": summary.latency_ms or None,
        }
        if attribution is not None:
            payload["attribution"] = attribution.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_summary(summary))
        if attribution is not None:
            print()
            print(render_attribution(attribution))
    return 0


if __name__ == "__main__":
    sys.exit(main())
