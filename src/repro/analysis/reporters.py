"""Text, JSON, and SARIF reporters for analysis findings.

The text reporter is the human view: one ``file:line: rule: message`` line
per finding plus an indented fix hint, then a summary.  The JSON reporter
is the machine view CI uploads as an artifact; its schema is versioned and
round-trips through :meth:`Finding.to_dict`.  The SARIF reporter emits
`SARIF 2.1.0 <https://docs.oasis-open.org/sarif/sarif/v2.1.0/>`_ so
editors and code-review UIs can render findings in place; suppressed
findings are included with a ``suppressions`` entry rather than dropped,
which is what lets a reviewer audit what the inline allows hide.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .findings import SEVERITY_ERROR, Finding

__all__ = ["render_text", "render_json", "render_sarif", "report_payload"]

#: Schema version of the JSON report.
JSON_VERSION = 1

#: SARIF spec pinned by the reporter.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def render_text(active: Sequence[Finding], suppressed: Sequence[Finding],
                n_files: int = 0) -> str:
    """Human-readable report; active findings first, then bookkeeping."""
    lines: List[str] = []
    for f in active:
        lines.append(f"{f.location}: {f.rule_id}: {f.message}")
        if f.fix_hint:
            lines.append(f"    hint: {f.fix_hint}")
    if active:
        lines.append("")
    by_rule: Dict[str, int] = {}
    for f in active:
        by_rule[f.rule_id] = by_rule.get(f.rule_id, 0) + 1
    if by_rule:
        breakdown = ", ".join(f"{rid}={n}" for rid, n in sorted(by_rule.items()))
        lines.append(f"{len(active)} finding(s) across {n_files} file(s): {breakdown}")
    else:
        lines.append(f"clean: 0 findings across {n_files} file(s)"
                     + (f" ({len(suppressed)} allowed inline)" if suppressed else ""))
    return "\n".join(lines)


def report_payload(active: Sequence[Finding], suppressed: Sequence[Finding],
                   rule_ids: Sequence[str], n_files: int) -> Dict[str, object]:
    """The JSON report as a plain dict (also used by tests)."""
    return {
        "version": JSON_VERSION,
        "n_files": n_files,
        "rules": list(rule_ids),
        "findings": [f.to_dict() for f in active],
        "baselined": [f.to_dict() for f in suppressed],
        "summary": {
            "errors": sum(1 for f in active if f.severity == SEVERITY_ERROR),
            "warnings": sum(1 for f in active if f.severity != SEVERITY_ERROR),
            "baselined": len(suppressed),
        },
    }


def render_json(active: Sequence[Finding], suppressed: Sequence[Finding],
                rule_ids: Sequence[str], n_files: int) -> str:
    """The JSON report as a string."""
    return json.dumps(report_payload(active, suppressed, rule_ids, n_files),
                      indent=2, sort_keys=True)


def _sarif_result(finding: Finding, suppressed: bool) -> Dict[str, object]:
    result: Dict[str, object] = {
        "ruleId": finding.rule_id,
        "level": "error" if finding.severity == SEVERITY_ERROR else "warning",
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": finding.file},
                "region": {
                    "startLine": finding.line,
                    **({"snippet": {"text": finding.snippet}}
                       if finding.snippet else {}),
                },
            },
        }],
    }
    if suppressed:
        result["suppressions"] = [{"kind": "external",
                                   "justification": "inline-allowed"}]
    return result


def render_sarif(active: Sequence[Finding], suppressed: Sequence[Finding],
                 rules: Sequence = ()) -> str:
    """SARIF 2.1.0 report; ``rules`` are Rule instances for driver metadata."""
    driver_rules = []
    for rule in rules:
        entry: Dict[str, object] = {
            "id": rule.rule_id,
            "shortDescription": {"text": rule.description},
        }
        if rule.fix_hint:
            entry["help"] = {"text": rule.fix_hint}
        driver_rules.append(entry)
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": "repro.analysis",
                "informationUri": "docs/static_analysis.md",
                "rules": driver_rules,
            }},
            "results": (
                [_sarif_result(f, suppressed=False) for f in active]
                + [_sarif_result(f, suppressed=True) for f in suppressed]
            ),
        }],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
