"""Layer spans recorded from outside the program under test.

For the traced pass alone, the public entry points of every layer are
wrapped *from here*: the wrappers time the call, remember which span was
open when it started (its parent) and, at the engine boundary, which
request ids the call served.  Nothing under ``src/`` knows about this and
``repro.obs`` tracing stays off, so a later change may move the program's
own spans without touching these numbers.  Leaving :func:`tracing`
restores every attribute it replaced; an untraced pass runs exactly the
code that ``import repro`` alone provides.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Recorder", "SpanSpec", "SPANS", "tracing", "Summary", "summarize",
           "write_chrome_trace"]

_MISSING = object()


class Recorder:
    """In-memory span store: parallel lists, one entry per span."""

    def __init__(self) -> None:
        self.label: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        #: what a probe saw in the call's arguments (request ids, rows fed)
        self.detail: Dict[int, object] = {}
        self.stack: List[int] = []

    def __len__(self) -> int:
        return len(self.label)


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _arg(args, kwargs, position: int, name: str):
    """An argument of a wrapped call, however the caller spelled it."""
    return args[position] if len(args) > position else kwargs[name]


def _rid_begin(args, kwargs):
    return (kwargs.get("request_id"),)


def _rid_begin_batch(args, kwargs):
    return tuple(kwargs.get("request_ids") or ())


def _rid_session(args, kwargs):
    return (_arg(args, kwargs, 1, "session").request_id,)


def _rid_sessions(args, kwargs):
    return tuple(s.request_id for s in _arg(args, kwargs, 1, "sessions"))


# (rows fed, keys already cached) per sequence of a target forward: the
# inputs of the computed FLOP count behind ``target.gflops_per_s``.
def _rows_prefill(args, kwargs):
    text_ids = _arg(args, kwargs, 2, "text_ids")
    return [(args[0].n_vision_tokens + int(text_ids.shape[-1]), 0)]


def _rows_prefill_batch(args, kwargs):
    n_vis = args[0].n_vision_tokens
    return [(n_vis + len(row), 0) for row in _arg(args, kwargs, 2, "text_rows")]


def _rows_decode(args, kwargs):
    token_ids = _arg(args, kwargs, 1, "token_ids")
    return [(int(token_ids.shape[-1]), int(_arg(args, kwargs, 2, "cache").seq_len))]


def _rows_decode_batch(args, kwargs):
    return [
        (len(row), int(cache.seq_len))
        for row, cache in zip(_arg(args, kwargs, 1, "token_rows"),
                              _arg(args, kwargs, 2, "caches"))
    ]


@dataclass(frozen=True)
class SpanSpec:
    """One wrapped entry point: where it lives and which layer it bills."""

    module: str                     #: import path of the holder's module
    owner: Optional[str]            #: class name, or None for a module global
    attr: str                       #: method / function name
    layer: str                      #: layer the span's time belongs to
    probe: Optional[Callable] = None

    @property
    def label(self) -> str:
        """Span name: ``<layer>.<attr>``, class-qualified for the caches."""
        if self.layer == "kv":
            return f"kv.{self.owner}.{self.attr}"
        return f"{self.layer.split('.')[0]}.{self.attr}"

    def holder(self):
        """The class or module whose attribute is replaced."""
        module = importlib.import_module(self.module)
        return module if self.owner is None else getattr(module, self.owner)


SPANS: Sequence[SpanSpec] = (
    SpanSpec("repro.serving", "AdmissionQueue", "submit", "queue"),
    SpanSpec("repro.serving", "AdmissionQueue", "pop_ready", "queue"),
    SpanSpec("repro.serving", "ContinuousBatchingScheduler", "run_round", "scheduler"),
    SpanSpec("repro.core", "AASDEngine", "begin", "engine", _rid_begin),
    SpanSpec("repro.core", "AASDEngine", "begin_batch", "engine", _rid_begin_batch),
    SpanSpec("repro.core", "AASDEngine", "step", "engine", _rid_session),
    SpanSpec("repro.core", "AASDEngine", "step_batch", "engine", _rid_sessions),
    SpanSpec("repro.core", "AASDEngine", "finish", "engine", _rid_session),
    SpanSpec("repro.core", "AASDDraftHead", "build_context", "draft_head"),
    SpanSpec("repro.core", "AASDDraftHead", "step", "draft_head"),
    SpanSpec("repro.core", "AASDDraftHead", "step_packed", "draft_head"),
    SpanSpec("repro.core", "AASDDraftHead", "draft_tree", "draft_head"),
    SpanSpec("repro.models", "MiniLlava", "prefill", "target.prefill", _rows_prefill),
    SpanSpec("repro.models", "MiniLlava", "prefill_batch", "target.prefill", _rows_prefill_batch),
    SpanSpec("repro.models", "MiniLlava", "decode", "target.verify", _rows_decode),
    SpanSpec("repro.models", "MiniLlava", "decode_batch", "target.verify", _rows_decode_batch),
    # The accept rule: the engine binds these two by name at import time,
    # so the names are rebound in its module namespace.
    SpanSpec("repro.core.engine", None, "speculative_verify", "verify"),
    SpanSpec("repro.core.engine", None, "accept_tree", "verify"),
    SpanSpec("repro.decoding", "Sampler", "sample", "verify"),
    SpanSpec("repro.models", "KVCache", "append", "kv"),
    SpanSpec("repro.models", "KVCache", "truncate", "kv"),
    SpanSpec("repro.core", "HybridKVCache", "append_context", "kv"),
    SpanSpec("repro.core", "HybridKVCache", "append_draft", "kv"),
    SpanSpec("repro.core", "HybridKVCache", "clear_draft", "kv"),
    SpanSpec("repro.core", "HybridKVCache", "gather", "kv"),
    SpanSpec("repro.core.kv_arena", "BlockTable", "packed_layer", "kv"),
    SpanSpec("repro.core.kv_arena", "BlockTable", "gather_rows", "kv"),
)

LAYER_OF_LABEL = {spec.label: spec.layer for spec in SPANS}


def _wrap(rec: Recorder, label: str, probe: Optional[Callable], fn: Callable) -> Callable:
    labels, starts, ends, parents, stack = rec.label, rec.start, rec.end, rec.parent, rec.stack
    detail = rec.detail

    def wrapper(*args, **kwargs):
        idx = len(labels)
        labels.append(label)
        parents.append(stack[-1] if stack else -1)
        ends.append(0.0)
        if probe is not None:
            detail[idx] = probe(args, kwargs)
        stack.append(idx)
        starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            ends[idx] = perf_counter()
            stack.pop()

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def tracing(rec: Recorder, specs: Sequence[SpanSpec] = SPANS) -> Iterator[Recorder]:
    """Install the span wrappers for the duration of the ``with`` block."""
    saved: List[Tuple[object, str, object]] = []
    try:
        for spec in specs:
            holder = spec.holder()
            saved.append((holder, spec.attr, vars(holder).get(spec.attr, _MISSING)))
            setattr(holder, spec.attr,
                    _wrap(rec, spec.label, spec.probe, getattr(holder, spec.attr)))
        yield rec
    finally:
        for holder, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(holder, attr)   # it was inherited; uncover it again
            else:
                setattr(holder, attr, original)


# ----------------------------------------------------------------------
# Reading the spans back
# ----------------------------------------------------------------------
@dataclass
class Summary:
    """Span arithmetic of one traced pass."""

    durations_ms: Dict[str, List[float]]   #: per label: one duration per call
    self_ms: List[float]               #: per span: duration minus its children
    layer_self_ms: Dict[str, float]    #: self time summed per layer
    layer_busy_ms: Dict[str, float]    #: inclusive time, same-layer nesting once
    covered_ms: float                  #: time under any root span


def summarize(rec: Recorder) -> Summary:
    """Self time per span, and the per-label / per-layer sums built on it.

    A span's self time is its duration minus what its child spans cover
    (children of one parent never overlap: the program is single-threaded).
    A layer's busy time counts a span only when no ancestor belongs to the
    same layer, so ``step_batch -> step`` is not billed twice.
    """
    n = len(rec)
    duration = [(rec.end[i] - rec.start[i]) * 1e3 for i in range(n)]
    self_ms = list(duration)
    for i in range(n):
        if rec.parent[i] >= 0:
            self_ms[rec.parent[i]] -= duration[i]

    by_label: Dict[str, List[float]] = {}
    layer_self: Dict[str, float] = {}
    layer_busy: Dict[str, float] = {}
    covered = 0.0
    for i in range(n):
        label = rec.label[i]
        by_label.setdefault(label, []).append(duration[i])
        layer = LAYER_OF_LABEL[label]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_ms[i]
        up = rec.parent[i]
        if up < 0:
            covered += duration[i]
        while up >= 0 and LAYER_OF_LABEL[rec.label[up]] != layer:
            up = rec.parent[up]
        if up < 0:
            layer_busy[layer] = layer_busy.get(layer, 0.0) + duration[i]
    return Summary(by_label, self_ms, layer_self, layer_busy, covered)


def write_chrome_trace(rec: Recorder, path: Path) -> None:
    """Write the spans as Chrome trace events (open in Perfetto / about:tracing).

    ``args.parent`` is the index of the causing span (``-1`` for a root);
    engine and round spans carry the request ids they served.
    """
    rids: Dict[int, set] = {}
    for i, found in rec.detail.items():
        if rec.label[i].startswith("engine."):
            rids[i] = set(found)
            up = rec.parent[i]
            while up >= 0:
                rids.setdefault(up, set()).update(found)
                up = rec.parent[up]
    origin = min(rec.start, default=0.0)
    events = []
    for i in range(len(rec)):
        args: Dict[str, object] = {"span": i, "parent": rec.parent[i]}
        if i in rids:
            args["request_ids"] = sorted(r for r in rids[i] if r is not None)
        elif i in rec.detail:
            args["rows_kv"] = rec.detail[i]
        events.append({
            "name": rec.label[i], "cat": LAYER_OF_LABEL[rec.label[i]], "ph": "X",
            "pid": 1, "tid": 1,
            "ts": (rec.start[i] - origin) * 1e6,
            "dur": (rec.end[i] - rec.start[i]) * 1e6,
            "args": args,
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
                    encoding="utf-8")
