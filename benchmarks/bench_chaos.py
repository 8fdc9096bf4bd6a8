"""Chaos soak benchmark: availability per storm profile.

Runs the four canonical fault storms from :mod:`repro.robustness.chaos`
against a tiny untrained world (faults and scheduling are structural
properties, so training would only slow the soak down) and reports, per
storm: availability, retry/shed/breaker activity, and whether every
resilience invariant held.

Unlike the pytest-benchmark suites in this directory this is a plain
CLI — the chaos CI job runs ``python benchmarks/bench_chaos.py --quick``
and uploads the JSON report as an artifact, so availability and
server-clock changes show up as artifact diffs.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py [--quick] [--seed N]
        [--repeats N] [--out results/chaos]

Exit status is non-zero when any storm violates an invariant, which fails
the (blocking) chaos CI job.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import AASDDraftHead, DraftHeadConfig
from repro.data.corpus import build_reference_texts
from repro.data.tasks import make_dataset
from repro.decoding import CostModel, get_profile
from repro.models.config import LlamaConfig, LlavaConfig, VisionConfig
from repro.models.llava import MiniLlava
from repro.robustness.chaos import ChaosWorld, default_profiles, run_chaos
from repro.tokenizer import WordTokenizer


def build_world(seed: int = 0) -> ChaosWorld:
    """The standard tiny chaos world (mirrors the serving test fixtures)."""
    gen = np.random.default_rng(seed)
    tokenizer = WordTokenizer.from_texts(build_reference_texts())
    vocab = tokenizer.vocab_size
    target = MiniLlava(
        LlavaConfig(
            llama=LlamaConfig(vocab_size=vocab, dim=16, n_layers=1,
                              n_heads=2, mlp_hidden=24),
            vision=VisionConfig(image_size=48, patch_size=16, dim=8,
                                n_layers=1, n_heads=2, mlp_hidden=16),
        ),
        rng=gen,
    )
    head = AASDDraftHead(
        DraftHeadConfig(vocab_size=vocab, dim=16, n_heads=2, mlp_hidden=24,
                        n_vision_tokens=9, k_compressed=3),
        rng=gen,
    )
    return ChaosWorld(
        target=target,
        head=head,
        tokenizer=tokenizer,
        cost_model=CostModel(get_profile("sim-7b")),
        samples=make_dataset("coco-sim", 8, seed=4).samples,
    )


def render(reports) -> str:
    """Human-readable soak table (one row per storm run)."""
    lines = [
        f"{'storm':>16} {'req':>4} {'ok':>4} {'avail':>7} {'retry':>6} "
        f"{'shed':>5} {'breaker':>8} {'sim_ms':>9} {'verdict':>8}",
    ]
    for report in reports:
        for storm in report.storms:
            lines.append(
                f"{storm.profile:>16} {storm.n_requests:>4} "
                f"{storm.n_completed:>4} {storm.availability:>6.0%} "
                f"{storm.n_retries:>6} {storm.n_shed:>5} "
                f"{len(storm.breaker_transitions):>8} {storm.sim_ms:>9.0f} "
                f"{'PASS' if storm.passed else 'FAIL':>8}"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller storms (CI-sized soak)")
    parser.add_argument("--seed", type=int, default=0,
                        help="storm seed (world seed stays fixed)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="soak repetitions; seeds advance per repeat")
    parser.add_argument("--out", type=Path, default=Path("results/chaos"),
                        help="directory for the JSON chaos report")
    args = parser.parse_args(argv)

    world = build_world()
    reports = []
    wall0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="chaos-soak-") as tmp:
        for repeat in range(args.repeats):
            profiles = default_profiles(quick=args.quick,
                                        seed=args.seed + repeat)
            reports.append(run_chaos(world, profiles=profiles,
                                     work_dir=Path(tmp)))
    wall_s = time.perf_counter() - wall0

    table = render(reports)
    print(table)

    payload = {
        "quick": args.quick,
        "seed": args.seed,
        "repeats": args.repeats,
        "wall_s": wall_s,
        "passed": all(report.passed for report in reports),
        "runs": [report.to_dict() for report in reports],
    }
    args.out.mkdir(parents=True, exist_ok=True)
    report_path = args.out / "CHAOS_report.json"
    report_path.write_text(json.dumps(payload, indent=2) + "\n")
    (args.out / "CHAOS_report.txt").write_text(table + "\n")
    print(f"\nwrote {report_path} (wall {wall_s:.1f}s)")
    return 0 if payload["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
