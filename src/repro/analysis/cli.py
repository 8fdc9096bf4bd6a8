"""Command-line interface: ``python -m repro.analysis``.

Entry points behind one module:

* ``python -m repro.analysis [check] [PATHS...]`` — run every analysis
  rule against the inline ``# repro: allow[...]`` suppressions (default
  path: ``src``); exit 1 on any non-suppressed error finding, or on an
  allow that is unjustified or names an unknown rule.  ``check`` is the explicit
  spelling CI uses; with no subcommand the behaviour is identical.
* ``python -m repro.analysis graph [PATHS...]`` — build and inspect the
  whole-program call graph: summary stats, ``--callees``/``--callers`` of
  a function, ``--reachable`` closure from entry patterns, or a full JSON
  dump for tooling.
* ``python -m repro.analysis docs`` — markdown link integrity and
  executable doc examples.
* ``python -m repro.analysis docstrings`` — public docstring coverage
  gate.

Exit codes: 0 clean (possibly via allows), 1 findings, 2 usage error.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import docs_check, docstrings
from .findings import SEVERITY_ERROR
from .framework import default_rules, rule_ids, run_rules
from .project import load_project
from .reporters import render_json, render_sarif, render_text
from .suppressions import collect_suppressions

__all__ = ["main", "graph_main"]


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Whole-program invariant analyzer for the repro codebase "
                    "(subcommands: check, graph, docs, docstrings)",
    )
    parser.add_argument("paths", nargs="*", default=None,
                        help="files/directories to analyze (default: src)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="stdout format (default: text)")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="also write the JSON report to FILE (for CI artifacts)")
    parser.add_argument("--sarif", default=None, metavar="FILE",
                        help="also write a SARIF 2.1.0 report to FILE")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule ids to run (default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print registered rule ids and exit")
    return parser


def _build_graph_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis graph",
        description="Build and inspect the whole-program call graph",
    )
    parser.add_argument("paths", nargs="*", default=None,
                        help="files/directories to load (default: src)")
    parser.add_argument("--callees", default=None, metavar="QNAME",
                        help="print resolved callees of a function "
                             "(glob patterns allowed)")
    parser.add_argument("--callers", default=None, metavar="QNAME",
                        help="print resolved callers of a function "
                             "(glob patterns allowed)")
    parser.add_argument("--reachable", default=None, metavar="PATTERN",
                        help="print the reachability closure (with witness "
                             "paths) from entry functions matching PATTERN")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    return parser


def _select_rules(spec: Optional[str]) -> List:
    if spec is None:
        return default_rules()
    wanted = [s.strip() for s in spec.split(",") if s.strip()]
    known = set(rule_ids())
    unknown = [w for w in wanted if w not in known]
    if unknown:
        raise SystemExit(f"unknown rule id(s): {', '.join(unknown)} "
                         f"(known: {', '.join(sorted(known))})")
    return [r for r in default_rules() if r.rule_id in wanted]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "docs":
        return docs_check.main(argv[1:])
    if argv and argv[0] == "docstrings":
        return docstrings.main(argv[1:])
    if argv and argv[0] == "graph":
        return graph_main(argv[1:])
    if argv and argv[0] == "check":
        argv = argv[1:]

    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.rule_id}: {rule.description}")
        return 0

    paths = args.paths or ["src"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        parser.error(f"path(s) not found: {', '.join(missing)}")

    try:
        selected = _select_rules(args.rules)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise

    project = load_project(paths)
    findings = run_rules(project, selected)
    n_files = len(project.modules) + len(project.parse_errors)

    inline = collect_suppressions(project)
    active, suppressed = [], []
    for f in findings:
        (suppressed if inline.suppresses(f) else active).append(f)
    active.extend(inline.problems(rule_ids()))

    ids = [r.rule_id for r in selected]
    if args.format == "json":
        print(render_json(active, suppressed, ids, n_files))
    elif args.format == "sarif":
        print(render_sarif(active, suppressed, selected))
    else:
        print(render_text(active, suppressed, n_files))
        for allow in inline.unused():
            print(f"note: stale inline allow at {allow.file}:{allow.line} "
                  f"({', '.join(allow.rules)}) matched nothing — delete it")
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(render_json(active, suppressed, ids, n_files) + "\n",
                       encoding="utf-8")
    if args.sarif:
        out = Path(args.sarif)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(render_sarif(active, suppressed, selected) + "\n",
                       encoding="utf-8")

    return 1 if any(f.severity == SEVERITY_ERROR for f in active) else 0


def graph_main(argv: Optional[Sequence[str]] = None) -> int:
    """``graph`` subcommand: dump/inspect the call graph."""
    import json

    from .callgraph import build_call_graph

    parser = _build_graph_parser()
    args = parser.parse_args(list(argv or []))
    paths = args.paths or ["src"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        parser.error(f"path(s) not found: {', '.join(missing)}")

    graph = build_call_graph(load_project(paths))

    if args.callees or args.callers:
        pattern = args.callees or args.callers
        hits = graph.find(pattern)
        if not hits:
            print(f"no function matches {pattern!r}", file=sys.stderr)
            return 2
        for qname in hits:
            edges = graph.callees(qname) if args.callees else graph.callers(qname)
            print(f"{qname}:")
            for edge in sorted(edges, key=lambda e: (e.line, e.callee, e.caller)):
                other = edge.callee if args.callees else edge.caller
                print(f"  line {edge.line}: {other}")
        return 0

    if args.reachable:
        entries = graph.find(args.reachable)
        if not entries:
            print(f"no entry matches {args.reachable!r}", file=sys.stderr)
            return 2
        closure = graph.reachable(entries)
        if args.format == "json":
            print(json.dumps({q: list(p) for q, p in sorted(closure.items())},
                             indent=2))
        else:
            for qname in sorted(closure):
                print(f"{qname}  [{' -> '.join(closure[qname])}]")
            print(f"\n{len(closure)} function(s) reachable from "
                  f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'}")
        return 0

    if args.format == "json":
        payload = {
            "functions": sorted(graph.functions),
            "classes": sorted(graph.classes),
            "edges": [
                {"caller": e.caller, "callee": e.callee, "line": e.line}
                for e in sorted(graph.edges,
                                key=lambda e: (e.caller, e.line, e.callee))
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        n_sites = sum(len(sites) for sites in graph.sites.values())
        print(f"{len(graph.functions)} functions, {len(graph.classes)} "
              f"classes, {len(graph.edges)} resolved call edges across "
              f"{n_sites} call sites")
    return 0
