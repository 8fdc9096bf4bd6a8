"""Traced smoke decode: emit JSONL + Chrome traces for a few SD decodes.

Runs a greedy AASD decode (plus the AR baseline for one sample) on the
smoke-profile zoo with tracing enabled, then writes both trace formats:

    python scripts/trace_smoke.py [--out results/trace] [--samples 3]

Inspect with ``python -m repro.obs summarize <out>/trace.jsonl`` or load
``<out>/trace_chrome.json`` in chrome://tracing / https://ui.perfetto.dev.

Exits 1 when a ``draft`` span reports a block deeper than the token budget
can commit: the prefill commits the first token, so no block may draft
past ``max(1, min(gamma, max_new_tokens - 2))``.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.decoding.autoregressive import AutoregressiveDecoder
from repro.decoding.cost_model import CostModel, get_profile
from repro.eval.baselines import build_aasd_engine
from repro.obs import (
    configure_logging,
    enable_tracing,
    export_chrome,
    export_jsonl,
    get_logger,
)
from repro.zoo import ModelZoo, PROFILE_SMOKE

logger = get_logger("repro.scripts.trace_smoke")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/trace")
    parser.add_argument("--samples", type=int, default=3)
    parser.add_argument("--max-new-tokens", type=int, default=24)
    parser.add_argument("--gamma", type=int, default=3)
    parser.add_argument("--target", default="sim-7b")
    args = parser.parse_args()

    configure_logging()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    zoo = ModelZoo(PROFILE_SMOKE)
    cost_model = CostModel(get_profile(args.target))
    engine = build_aasd_engine(
        zoo, args.target, args.gamma, cost_model, max_new_tokens=args.max_new_tokens
    )
    ar = AutoregressiveDecoder(
        zoo.target(args.target), zoo.tokenizer(), cost_model,
        max_new_tokens=args.max_new_tokens,
    )
    samples = zoo.eval_dataset("coco-sim", args.samples)

    tracer = enable_tracing()
    for sample in samples:
        record = engine.decode(sample)
        logger.info(
            "decoded sample",
            extra={"event": "smoke_decode", "n_tokens": record.n_tokens,
                   "sim_ms": round(record.sim_time_ms, 1),
                   "wall_s": round(record.wall_time_s, 4)},
        )
    ar.decode(samples[0])

    jsonl = export_jsonl(tracer, out_dir / "trace.jsonl")
    chrome = export_chrome(tracer, out_dir / "trace_chrome.json")
    logger.info("wrote %s, %s", jsonl, chrome)

    deepest = max(1, min(args.gamma, args.max_new_tokens - 2))
    too_deep = [span.attrs["gamma"] for span in tracer.spans
                if span.name == "draft" and span.attrs["gamma"] > deepest]
    if too_deep:
        logger.error("%d draft spans deeper than %d: %s", len(too_deep), deepest, too_deep)
        raise SystemExit(1)


if __name__ == "__main__":
    main()
