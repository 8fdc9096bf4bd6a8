"""Image captioning (COCO-sim) with every Table-1 decoding strategy.

Decodes the same captioning workload with the autoregressive baseline and
with the speculative engine over two drafters — a conventional
language-only draft model and the AASD head — then prints a head-to-head
metric comparison.

    python examples/image_captioning.py --profile full --samples 10
"""

from __future__ import annotations

import argparse

from repro.decoding import (
    AutoregressiveDecoder,
    CostModel,
    LlamaTextDraft,
    aggregate_metrics,
    get_profile,
)
from repro.core import AASDEngine, AASDEngineConfig
from repro.zoo import ModelZoo, PROFILE_FULL, PROFILE_SMOKE


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="smoke", choices=["smoke", "full"])
    parser.add_argument("--samples", type=int, default=8)
    parser.add_argument("--gamma", type=int, default=3)
    args = parser.parse_args()

    zoo = ModelZoo(PROFILE_FULL if args.profile == "full" else PROFILE_SMOKE)
    tokenizer = zoo.tokenizer()
    target = zoo.target("sim-7b")
    cost_model = CostModel(get_profile("sim-7b"))
    dataset = zoo.eval_dataset("coco-sim", args.samples)

    baseline = AutoregressiveDecoder(target, tokenizer, cost_model, max_new_tokens=48)
    config = AASDEngineConfig(gamma=args.gamma, max_new_tokens=48)
    conventional = AASDEngine(
        target, LlamaTextDraft(zoo.text_draft("ft", "sim-7b"), "ft-llama"),
        tokenizer, cost_model, config,
    )
    aasd = AASDEngine(target, zoo.aasd_head("sim-7b"), tokenizer, cost_model, config)

    ar_records = [baseline.decode(s) for s in dataset]
    print("sample captions (all decoders are lossless, outputs identical):")
    for sample, record in list(zip(dataset, ar_records))[:3]:
        print(f"  image of: {', '.join(o.phrase() for o in sample.scene)}")
        print(f"  caption : {record.text}")

    print(f"\n{'decoder':>24} {'omega':>7} {'alpha':>7} {'tau':>7} {'delta':>8}")
    for decoder in (conventional, aasd):
        records = [decoder.decode(s) for s in dataset]
        report = aggregate_metrics(records, ar_records)
        row = report.row()
        print(
            f"{decoder.name:>24} {row['omega']:>7.2f} {row['alpha']:>7.2f} "
            f"{row['tau']:>7.2f} {row['delta']:>8.1f}"
        )


if __name__ == "__main__":
    main()
