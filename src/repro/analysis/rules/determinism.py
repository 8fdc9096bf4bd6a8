"""Determinism: all randomness flows through explicit, seeded Generators.

Token-identity tests (``tests/core/test_arena_equivalence.py``) and the
paper's lossless-output claim depend on every stochastic component taking
an explicit ``np.random.Generator`` derived via :mod:`repro.utils.rng`.
One source table (:func:`source_of`) names what is nondeterministic:
OS-entropy generators (``np.random.default_rng()`` / ``SeedSequence()``
with no arguments), wall-clock reads, and environment reads.  The rule
checks it at two distances.

**Zero hops** — the call site itself:

* a call on numpy's *global* RNG state (``np.random.seed``,
  ``np.random.rand``, ...) — shared mutable state across every component;
* the stdlib :mod:`random` module — a second, unseeded entropy source;
* a wall-clock read inside a seed argument
  (``default_rng(int(time.time()))``) — different output every run.

**n hops** — built on :mod:`repro.analysis.dataflow`: a source value
created in one function and *flowing* through locals, attributes, returns
and call arguments into an rng/seed-shaped slot (``self.rng = ...``, a
``rng=`` or ``seed=`` argument) of the decode stack (``repro.decoding.*``
/ ``repro.core.*``) — the shape of the day-one bug behind this rule
(``Sampler.__init__`` silently defaulting to ``np.random.default_rng()``).
The observability layer may read the clock (it timestamps), and derived
data (a ``WallTimer`` elapsed reading used in metrics) never fires: the
rule tracks the nondeterministic value itself, not arithmetic on it.

Constructing independent generators (``np.random.default_rng(seed)``,
``SeedSequence``, bit generators) stays legal — that is exactly what
``repro.utils.rng.derive`` builds on.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence, Set, Tuple

from ..astutil import call_name, dotted_name, dotted_tail, short_name
from ..callgraph import CallGraph, FunctionInfo, call_graph_for
from ..dataflow import TaintEvent, TaintSpec, run_taint
from ..framework import Rule, register
from ..project import ModuleInfo, Project

__all__ = ["DeterminismRule", "DeterminismTaintSpec", "source_of"]

#: np.random attributes that construct independent generators (allowed).
ALLOWED_NP_RANDOM = {
    "default_rng", "Generator", "BitGenerator", "SeedSequence",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}

#: Functions that consume a seed; wall-clock values must never reach them.
SEEDERS = {"default_rng", "derive", "seed_sequence", "SeedSequence", "seed", "RandomState"}

#: Dotted tails that read the wall clock.
WALL_CLOCK_TAILS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "datetime.now", "datetime.utcnow",
}

LABEL_RNG = "unseeded-rng"
LABEL_CLOCK = "wall-clock"
LABEL_ENV = "env-read"

#: Module prefixes whose rng/seed slots are sinks (the decode stack).
DEFAULT_SINK_PREFIXES: Tuple[str, ...] = ("repro.decoding.", "repro.core.")

#: Modules allowed to read the wall clock (observability owns timing).
DEFAULT_CLOCK_EXEMPT: Tuple[str, ...] = ("repro.obs.", "repro.utils.timing")

#: Attribute / parameter names that hold generators or seeds.
SINK_SLOTS = {"rng", "_rng", "seed", "_seed", "generator", "_generator"}

_STDLIB_RANDOM = ("stdlib random imported; use numpy Generators from "
                  "repro.utils.rng instead")


def source_of(node: ast.AST) -> Optional[Tuple[str, str]]:
    """``(label, name)`` when ``node`` produces a nondeterministic value."""
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        tail = name.rsplit(".", 1)[-1] if name else ""
        if tail in ("default_rng", "SeedSequence") and not node.args \
                and not node.keywords:
            return LABEL_RNG, name or tail
        clock = dotted_tail(node.func, 2)
        if clock in WALL_CLOCK_TAILS:
            return LABEL_CLOCK, clock
        if name in ("os.getenv", "os.environ.get"):
            return LABEL_ENV, name
    if isinstance(node, ast.Subscript) and dotted_name(node.value) == "os.environ":
        return LABEL_ENV, "os.environ"
    return None


def _is_stdlib_random(module: Optional[str]) -> bool:
    return module is not None and (module == "random" or module.startswith("random."))


class DeterminismTaintSpec(TaintSpec):
    """The source table as dataflow sources (clock reads exempt in obs)."""

    def __init__(self, clock_exempt: Sequence[str] = DEFAULT_CLOCK_EXEMPT) -> None:
        self.clock_exempt = tuple(clock_exempt)

    def source_label(self, node: ast.AST, func: FunctionInfo,
                     graph: CallGraph) -> Optional[str]:
        """Label unseeded-rng, wall-clock, and env-read expressions."""
        source = source_of(node)
        if source is None:
            return None
        if source[0] == LABEL_CLOCK and _in_prefixes(func.module, self.clock_exempt):
            return None
        return source[0]


def _in_prefixes(module: str, prefixes: Sequence[str]) -> bool:
    return any(module == p or module.startswith(p) or module == p.rstrip(".")
               for p in prefixes)


@register
class DeterminismRule(Rule):
    """Global RNG calls, stdlib random, and sources reaching decode seeds."""

    rule_id = "determinism"
    description = (
        "randomness must flow through explicit seeded Generators "
        "(repro.utils.rng): no global np.random state, stdlib random, or "
        "wall-clock seeds, and no unseeded RNG, wall-clock or environment "
        "value may flow into an rng/seed slot of the decode stack"
    )
    fix_hint = (
        "derive an explicit Generator with repro.utils.rng.derive(seed, tag) "
        "from a seed threaded through config, and pass it down; never touch "
        "global RNG state"
    )

    def __init__(self, sink_prefixes: Sequence[str] = DEFAULT_SINK_PREFIXES,
                 clock_exempt: Sequence[str] = DEFAULT_CLOCK_EXEMPT) -> None:
        self.sink_prefixes = tuple(sink_prefixes)
        self.spec = DeterminismTaintSpec(clock_exempt)

    def check_module(self, module: ModuleInfo, project: Project) -> Iterator:
        """Zero hops: stdlib random, global np.random calls, clock seeds."""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _is_stdlib_random(alias.name):
                        yield self.finding(module, node.lineno, _STDLIB_RANDOM)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and _is_stdlib_random(node.module):
                    yield self.finding(module, node.lineno, _STDLIB_RANDOM)
            elif isinstance(node, ast.Call):
                message = self._call_message(node)
                if message is not None:
                    yield self.finding(module, node.lineno, message)

    def check_project(self, project: Project) -> Iterator:
        """n hops: taint events landing in a seed/rng slot of a sink module."""
        graph = call_graph_for(project)
        analysis = run_taint(graph, self.spec)
        seen: Set[Tuple[str, int, str]] = set()
        for event in analysis.events:
            func = graph.functions[event.func]
            if not _in_prefixes(func.module, self.sink_prefixes):
                continue
            slot = self._sink_slot(event)
            key = (func.module, event.line, event.taint.label)
            if slot is None or key in seen:
                continue
            seen.add(key)
            yield self.finding(
                project.modules[func.module], event.line,
                f"{event.taint.label} value reaches {slot} in "
                f"{short_name(event.func)} (source: {event.taint.origin}); "
                f"decode output now varies between runs",
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _call_message(node: ast.Call) -> Optional[str]:
        name = dotted_name(node.func)
        if name is not None:
            parts = name.split(".")
            if (len(parts) >= 3 and parts[-3] in ("np", "numpy")
                    and parts[-2] == "random" and parts[-1] not in ALLOWED_NP_RANDOM):
                return (f"call on numpy's global RNG state: {name}() mutates "
                        f"shared state and breaks seeded reproducibility")
        func_tail = call_name(node)
        if func_tail in SEEDERS:
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for sub in ast.walk(arg):
                    source = source_of(sub)
                    if source is not None and source[0] == LABEL_CLOCK:
                        return (f"wall-clock-derived seed: {func_tail}"
                                f"(...{source[1]}()...) changes every run")
        return None

    @staticmethod
    def _sink_slot(event: TaintEvent) -> Optional[str]:
        """Human-readable sink description, or None when not a sink."""
        if event.kind == "assign":
            name = event.target.rsplit(".", 1)[-1]
            if name in SINK_SLOTS:
                return f"`{event.target}`"
        elif event.kind == "call-arg":
            param = event.param.lstrip("#")
            if event.param in SINK_SLOTS or param in SINK_SLOTS:
                callee = short_name(event.callee) if event.callee else "a callee"
                return f"parameter `{event.param}` of {callee}"
        return None
