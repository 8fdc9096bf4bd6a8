"""Traced smoke decode: emit JSONL + Chrome traces for a few SD decodes.

Runs a greedy AASD decode (plus the AR baseline for one sample) on the
smoke-profile zoo with tracing enabled, then writes both trace formats:

    python scripts/trace_smoke.py [--out results/trace] [--samples 3]

Inspect with ``python -m repro.obs summarize <out>/trace.jsonl`` or load
``<out>/trace_chrome.json`` in chrome://tracing / https://ui.perfetto.dev.

Exits 1 when a ``draft`` span reports a block deeper than the token budget
can commit: the prefill commits the first token, so no block may draft
past ``max(1, min(gamma, max_new_tokens - 2))``.  Exits 1 as well when a
chain block whose accepted drafts include eos drafted any node past it:
the draft walk ends at a drafted eos, as nothing after it can be
committed.
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


def drafted_past_eos(record, eos: int) -> int:
    """Nodes a chain decode drafted past an accepted eos (0 when none).

    The prefill commits the first token and each verified block its
    accepted drafts and the target's token, cut at eos; a fault's
    fallback steps cannot be placed among the blocks, so a record with
    any is not read.
    """
    if record.n_fallback_steps:
        return 0
    start = 1
    for block in record.blocks:
        accepted = record.token_ids[start:start + block.n_accepted]
        if eos in accepted:
            return block.n_draft - accepted.index(eos) - 1
        start += block.n_emitted
    return 0


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
    eos = zoo.tokenizer().vocab.eos_id
    past_eos = []
    for sample in samples:
        record = engine.decode(sample)
        past_eos.append(drafted_past_eos(record, eos))
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
    if any(past_eos):
        logger.error("nodes drafted past an accepted eos, per sample: %s", past_eos)
    if too_deep or any(past_eos):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
