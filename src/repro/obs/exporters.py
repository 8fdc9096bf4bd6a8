"""Trace exporters: JSONL span logs and Chrome trace-event files.

Two interchangeable on-disk formats:

* **JSONL** — one span per line, lossless round-trip of
  :class:`~repro.obs.tracing.SpanRecord` (ids, parentage, attributes).
* **Chrome trace events** — the ``{"traceEvents": [...]}`` JSON consumed
  by ``chrome://tracing`` and https://ui.perfetto.dev; complete-event
  (``"ph": "X"``) entries with microsecond timestamps.  Span/parent ids
  are carried in ``args`` so the file still round-trips through
  :func:`read_trace`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, List, Optional, Union

from ..errors import ConfigError
from .tracing import SpanRecord, Tracer

__all__ = [
    "export_jsonl",
    "export_chrome",
    "read_jsonl",
    "read_chrome",
    "read_trace",
]

PathLike = Union[str, Path]


def _spans(source: Union[Tracer, Iterable[SpanRecord]]) -> List[SpanRecord]:
    if isinstance(source, Tracer):
        return source.spans
    return list(source)


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------
def export_jsonl(source: Union[Tracer, Iterable[SpanRecord]], path: PathLike) -> Path:
    """Write one JSON object per span; returns the output path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for span in _spans(source):
            fh.write(json.dumps({
                "name": span.name,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "start_s": span.start_s,
                "end_s": span.end_s,
                "attrs": span.attrs,
            }, sort_keys=True))
            fh.write("\n")
    return path


def read_jsonl(path: PathLike) -> List[SpanRecord]:
    spans: List[SpanRecord] = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            spans.append(SpanRecord(
                name=obj["name"],
                span_id=int(obj["span_id"]),
                parent_id=None if obj.get("parent_id") is None else int(obj["parent_id"]),
                start_s=float(obj["start_s"]),
                end_s=float(obj["end_s"]),
                attrs=dict(obj.get("attrs", {})),
            ))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"{path}:{lineno}: invalid trace line: {exc!r}") from exc
    return spans


# ---------------------------------------------------------------------------
# Chrome trace events
# ---------------------------------------------------------------------------
def export_chrome(source: Union[Tracer, Iterable[SpanRecord]], path: PathLike,
                  pid: Optional[int] = None) -> Path:
    """Write a ``chrome://tracing`` / Perfetto-loadable trace file."""
    spans = _spans(source)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    pid = os.getpid() if pid is None else pid
    origin = min((s.start_s for s in spans), default=0.0)
    events = []
    for span in spans:
        args = dict(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append({
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": (span.start_s - origin) * 1e6,     # microseconds
            "dur": span.duration_s * 1e6,
            "pid": pid,
            "tid": 1,                                # one thread drives every span
            "args": args,
        })
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs", "origin_s": origin},
    }
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    return path


def read_chrome(path: PathLike) -> List[SpanRecord]:
    """Load complete-events from a Chrome trace file back into spans."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid Chrome trace: {exc}") from exc
    if isinstance(payload, list):       # bare event-array variant
        events, origin = payload, 0.0
    else:
        events = payload.get("traceEvents", [])
        origin = float(payload.get("otherData", {}).get("origin_s", 0.0))
    spans: List[SpanRecord] = []
    for index, event in enumerate(events):
        try:
            if event.get("ph") != "X":
                continue
            args = dict(event.get("args", {}))
            span_id = int(args.pop("span_id", len(spans) + 1))
            parent_id = args.pop("parent_id", None)
            start = origin + float(event["ts"]) / 1e6
            spans.append(SpanRecord(
                name=event["name"],
                span_id=span_id,
                parent_id=None if parent_id is None else int(parent_id),
                start_s=start,
                end_s=start + float(event.get("dur", 0.0)) / 1e6,
                attrs=args,
            ))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"{path}: invalid trace event {index}: {exc!r}") from exc
    return spans


def read_trace(path: PathLike) -> List[SpanRecord]:
    """Load either format, sniffing JSONL vs Chrome JSON from the content.

    An empty file is an empty JSONL log: what :func:`export_jsonl` writes
    for a tracer with zero spans.  A missing or unreadable file raises
    :class:`~repro.errors.ConfigError`.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"trace file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8").lstrip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read trace: {exc}") from exc
    if not text:
        return []
    if text[0] == "[":
        return read_chrome(path)
    if text[0] == "{":
        # Either a Chrome {"traceEvents": ...} object or a single JSONL line.
        first_line = text.splitlines()[0]
        try:
            obj = json.loads(first_line)
        except json.JSONDecodeError:
            return read_chrome(path)
        return read_jsonl(path) if "span_id" in obj else read_chrome(path)
    raise ConfigError(f"{path}: not a JSONL or Chrome trace file")
