"""Run the whole end-to-end benchmark: every workload, untraced then traced.

Usage (from the repository root)::

    PYTHONPATH=src python -m benchmarks.e2e --seed 0
    PYTHONPATH=src python -m benchmarks.e2e --workload tree_arrivals
    PYTHONPATH=src python -m benchmarks.e2e --repeat-check

Each workload runs in its own ``run.py`` subprocess (clean ``setup_s`` and
``peak_rss_mb``), one after another.  Every metric is printed by name and
unit, ``results/e2e/summary.json`` records what ran where, and the exit code
is non-zero when any output was wrong.  ``--repeat-check`` runs the suite
twice on the same code and fails unless every exact metric repeats bit for
bit and every bounded wall metric agrees within its bound (a workload that
misses a wall bound is measured a third time before it fails).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))   # benchmark this checkout's sources

import numpy as np  # noqa: E402

from repro.eval.reporting import run_metadata  # noqa: E402

from .metrics import END_TO_END, PER_LAYER, RUN_SECONDS  # noqa: E402
from .workloads import WORKLOADS  # noqa: E402

RESULTS_DIR = ROOT / "results" / "e2e"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_worker(name: str, seed: int, trace: int) -> Dict[str, object]:
    """One ``run.py`` subprocess; returns its result line plus its side file."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{name} (trace {trace}) exited {done.returncode} without a result")
    print("\n".join(lines[:-1]), flush=True)
    side = json.loads((RESULTS_DIR / f"run-{name}-trace{trace}.json").read_text("utf-8"))
    return {"exit_code": done.returncode, **result, **side}


def run_suite(names: Sequence[str], seed: int) -> Dict[str, Dict[str, object]]:
    """Untraced then traced run of every named workload, strictly in sequence."""
    suite: Dict[str, Dict[str, object]] = {}
    for name in names:
        untraced = run_worker(name, seed, trace=0)
        traced = run_worker(name, seed, trace=1)
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        print(f"{name:>15}  {'failed_share':<38} {failed / attempted:>16.6g} share "
              f"({failed} of {attempted} sent; p95 over "
              f"{untraced['samples_per_pass']} requests per pass, "
              f"{untraced['passes']} untraced passes)", flush=True)
        suite[name] = {"untraced": untraced, "traced": traced,
                       "failed_share": failed / attempted}
    return suite


def environment() -> Dict[str, object]:
    """Where the numbers were taken: cores, numpy/BLAS build, thread pins."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass   # an older numpy without the dict mode
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {name: "1" for name in THREAD_VARIABLES},   # run.py pins them
        "zoo_profile": "smoke",
    }


def write_summary(suite: Dict[str, Dict[str, object]], seed: int) -> Path:
    """The result envelope ``results/e2e/summary.json``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "summary.json"
    envelope = {
        "meta": run_metadata({"seed": seed, "run_seconds": RUN_SECONDS}, repo_dir=ROOT),
        "environment": environment(),
        "workloads": suite,
    }
    path.write_text(json.dumps(envelope, indent=2, sort_keys=True), encoding="utf-8")
    return path


def _values(run: Dict[str, object]) -> Dict[str, float]:
    return {name: entry["value"] for name, entry in run["metrics"].items()}


def _spread(x: float, y: float) -> float:
    low = min(abs(x), abs(y))
    return abs(x - y) / low if low else float(x != y)


def repeat_check(first: Dict[str, Dict[str, object]],
                 second: Dict[str, Dict[str, object]], seed: int) -> List[str]:
    """Compare two suites of one code and seed; returns the disagreements.

    Exact metrics must be bit-equal.  A bounded wall metric must agree
    within its bound; the box is shared and a burst of interference can
    slow a whole run, so a workload with a wall metric outside its bound is
    measured a third time and fails only if that agrees with neither.
    """
    disagreements: List[str] = []
    for name in first:
        outside = []
        for phase, table in (("untraced", END_TO_END), ("traced", PER_LAYER)):
            a, b = _values(first[name][phase]), _values(second[name][phase])
            for metric in table:
                x, y = a[metric.name], b[metric.name]
                spread = _spread(x, y)
                if metric.exact:
                    verdict, limit = ("ok" if x == y else "DIFFERS"), "exact"
                elif metric.bound is not None:
                    verdict = "ok" if spread <= metric.bound else "OUTSIDE"
                    limit = f"{metric.bound:.2f}"
                else:
                    verdict, limit = "", "-"
                print(f"{name:>15}  {metric.name:<38} {x:>14.6g} {y:>14.6g} "
                      f"spread {spread:8.4f}  bound {limit:>5}  {verdict}")
                if verdict == "DIFFERS":
                    disagreements.append(f"{name}: {metric.name} {x!r} vs {y!r}")
                elif verdict == "OUTSIDE":
                    outside.append((metric, x, y))
        if outside:
            third = _values(run_worker(name, seed, trace=0))
            for metric, x, y in outside:
                z = third[metric.name]
                agrees = min(_spread(x, z), _spread(y, z)) <= metric.bound
                print(f"{name:>15}  {metric.name:<38} third run {z:>14.6g}  "
                      f"{'agrees with one of the two' if agrees else 'agrees with neither'}")
                if not agrees:
                    disagreements.append(f"{name}: {metric.name} {x!r} vs {y!r} vs {z!r}")
    return disagreements


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m benchmarks.e2e``."""
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="run one workload only (for development)")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the suite twice and compare the two")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]

    suite = run_suite(names, args.seed)
    print(f"summary: {write_summary(suite, args.seed)}")
    wrong = [name for name, runs in suite.items() if runs["failed_share"] > 0
             or not (runs["untraced"]["correct"] and runs["traced"]["correct"])]
    if args.repeat_check:
        again = run_suite(names, args.seed)
        wrong += [name for name, runs in again.items() if runs["failed_share"] > 0]
        disagreements = repeat_check(suite, again, args.seed)
        for line in disagreements:
            print(f"REPEAT-CHECK {line}")
        if disagreements:
            return 1
    if wrong:
        print(f"FAILED workloads: {', '.join(sorted(set(wrong)))}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
