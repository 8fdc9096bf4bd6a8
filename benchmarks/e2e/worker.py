"""One workload, one process, one result line: the program ``BENCHMARK.json`` names.

Phases, strictly one after another and single-threaded:

0. *provision* — :mod:`.provision`, in a process of its own and only when
   ``.cache/`` of the checkout lacks its outcome: zoo artifacts and the
   autoregressive reference (``zoo.build_s`` / ``reference.ar_*``).
1. *set-up*, several times — fresh ``ModelZoo`` load (checksums verified),
   request generation, engine construction, a 16-request warm-up.
2. ``--trace 0``: untraced passes over the pool for ``--seconds``; wall
   metrics are the median over passes, simulated ones must not differ
   between passes of one input replica.  ``--trace 1``: one traced pass between two untraced ones.

The last line of standard output is the JSON result; the exit code is
non-zero when any output is wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import sys
from time import perf_counter
from typing import Dict, List, Sequence

from .drive import end_to_end, failures, run_pass
from .layers import per_layer
from .metrics import END_TO_END, PER_LAYER, RUN_SECONDS, median
from .provision import ROOT, open_zoo, provisioned, write_json
from .trace import Recorder, summarize, tracing, write_chrome_trace
from .workloads import (BY_NAME, WARMUP_REQUESTS, Workload, arrival_times_ms, build_engine,
                        build_requests, canonical_pool, expected_tokens, pool_order)

RESULTS_DIR = ROOT / "results" / "e2e"
SETUP_REPEATS = 5
MIN_PASSES = 3


# ----------------------------------------------------------------------
# Phase 1: set-up
# ----------------------------------------------------------------------
class Prepared:
    """What one set-up leaves behind for the measured passes."""

    def __init__(self, workload: Workload, seed: int,
                 reference_tokens: Sequence[Sequence[int]]) -> None:
        self.workload = workload
        self.seed = seed
        self.zoo = open_zoo()
        pool = canonical_pool(self.zoo)
        canonical = build_requests(workload, pool, reference_tokens)
        #: per replica: (requests in send order, greedy oracle or None, due times or None)
        self.variants = []
        for replica in range(workload.replicas):
            order = pool_order(seed, replica, len(pool))
            self.variants.append((
                [canonical[i] for i in order],
                None if workload.sampled else [
                    expected_tokens(canonical[i], reference_tokens[i]) for i in order],
                arrival_times_ms(len(order), workload.rate_per_sim_s, seed, replica)
                if workload.open_loop else None,
            ))
        requests, _, due_ms = self.variants[0]
        run_pass(   # warm-up, in the workload's own loop shape
            workload, build_engine(self.zoo, workload, seed), requests[:WARMUP_REQUESTS],
            due_ms[:WARMUP_REQUESTS] if due_ms is not None else None,
        )

    def one_pass(self, replica: int = 0):
        """A fresh engine and scheduler over the whole pool, garbage collected first.

        Returns the engine, the pass and the lines saying which of its
        requests failed (empty when all are right).
        """
        requests, expected, due_ms = self.variants[replica]
        engine = build_engine(self.zoo, self.workload, self.seed)
        gc.collect()
        result = run_pass(self.workload, engine, requests, due_ms)
        tokenizer = self.zoo.tokenizer()
        return engine, result, failures(
            result, expected, tokenizer.vocab_size, tokenizer.vocab.eos_id)


# ----------------------------------------------------------------------
# Phase 2: measure
# ----------------------------------------------------------------------
def measure_untraced(prepared: Prepared, seconds: float, problems: List[str]) -> Dict[str, object]:
    """Passes over the pool, cycling through the replicas, until ``seconds`` are used.

    Every replica is measured at least once and there are at least
    ``MIN_PASSES`` passes.  A wall metric is the median over all passes; an
    exact one must repeat between passes of one replica and is the median
    over the replicas.
    """
    n_replicas = prepared.workload.replicas
    rows: List[List[Dict[str, float]]] = [[] for _ in range(n_replicas)]
    tokens: List[object] = [None] * n_replicas
    n_passes = failed = 0
    measured_s = 0.0
    while n_passes < max(MIN_PASSES, n_replicas) or measured_s < seconds:
        replica = n_passes % n_replicas
        _, result, wrong = prepared.one_pass(replica)
        n_passes += 1
        measured_s += result.wall_s
        failed += len(wrong)
        problems.extend(wrong)
        rows[replica].append(end_to_end(result))
        if tokens[replica] is None:
            tokens[replica] = result.tokens
        elif result.tokens != tokens[replica]:
            problems.append(f"pass {n_passes}: tokens differ from the replica's first pass")
    exact = {m.name for m in END_TO_END if m.exact}
    metrics = {}
    for name in rows[0][0]:
        if name in exact:
            for replica_rows in rows:
                values = [row[name] for row in replica_rows]
                if any(v != values[0] for v in values):
                    problems.append(f"{name}: passes of one seed disagree: {values}")
            metrics[name] = median([replica_rows[0][name] for replica_rows in rows])
        else:
            metrics[name] = median([row[name] for replica_rows in rows for row in replica_rows])
    n_requests = len(prepared.variants[0][0])
    return {"metrics": metrics, "sent": n_passes * n_requests, "failed": failed,
            "passes": n_passes, "samples_per_pass": n_requests, "measured_s": measured_s,
            "wall_tok_per_s_by_replica": [[row["wall_tok_per_s"] for row in replica_rows]
                                          for replica_rows in rows]}


def measure_traced(prepared: Prepared, provision: Dict[str, object],
                   problems: List[str]) -> Dict[str, object]:
    """One pass with the span wrappers installed, between two untraced ones."""
    _, before, wrong_before = prepared.one_pass()
    recorder = Recorder()
    with tracing(recorder):
        engine, traced, wrong_traced = prepared.one_pass()
    _, after, wrong_after = prepared.one_pass()
    wrong = wrong_before + wrong_traced + wrong_after
    problems.extend(wrong)
    if not traced.tokens == before.tokens == after.tokens:
        problems.append("traced and untraced passes emitted different tokens")
    write_chrome_trace(recorder, RESULTS_DIR / f"trace-{prepared.workload.name}.json")
    metrics = per_layer(
        traced, recorder, summarize(recorder), engine,
        median([before.wall_s, after.wall_s]),
        provision["reference"], provision["zoo_build_s"],
    )
    return {"metrics": metrics, "sent": 3 * len(traced.requests), "failed": len(wrong),
            "passes": 3, "samples_per_pass": len(traced.requests),
            "measured_s": before.wall_s + traced.wall_s + after.wall_s}


# ----------------------------------------------------------------------
def main(argv: Sequence[str], import_s: float) -> int:
    """Run one workload and print the result line; returns the exit code.

    ``import_s`` is what the caller measured from process start until this
    module (and with it ``repro``) was imported; it is part of ``setup_s``.
    """
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = BY_NAME[args.workload]

    provision = provisioned()
    reference_tokens = provision["reference"]["tokens"]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        prepared = Prepared(workload, args.seed, reference_tokens)
        setup_times.append(perf_counter() - t0)
    setup_s = import_s + median(setup_times)

    problems: List[str] = []
    if args.trace:
        outcome = measure_traced(prepared, provision, problems)
        wanted = PER_LAYER
    else:
        outcome = measure_untraced(prepared, args.seconds, problems)
        outcome["metrics"]["setup_s"] = setup_s
        outcome["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        wanted = END_TO_END

    for line in problems[:20]:
        print(f"FAILED {line}")
    # A violation that belongs to no single request still counts as a failure.
    failed = outcome["failed"] or int(bool(problems))
    payload = {
        "correct": not problems,
        "attempted": outcome["sent"],
        "failed": failed,
        "metrics": {
            m.name: {"value": outcome["metrics"][m.name], "unit": m.unit} for m in wanted
        },
    }
    for m in wanted:
        print(f"{workload.name:>15}  {m.name:<38} {outcome['metrics'][m.name]:>16.6g} {m.unit}")
    write_json(
        RESULTS_DIR / f"run-{workload.name}-trace{args.trace}.json",
        {
            "workload": workload.name, "seed": args.seed, "trace": args.trace,
            "sent": outcome["sent"], "ok": outcome["sent"] - failed,
            "failed": failed, "passes": outcome["passes"],
            "samples_per_pass": outcome["samples_per_pass"],
            "measured_s": outcome["measured_s"],
            "wall_tok_per_s_by_replica": outcome.get("wall_tok_per_s_by_replica"),
            "setup_s_samples": setup_times, "import_s": import_s,
            "artifact_sha256": provision["checksums"],
            "problems": problems[:20],
        },
    )
    sys.stdout.flush()
    print(json.dumps(payload))
    return 0 if payload["correct"] else 1
