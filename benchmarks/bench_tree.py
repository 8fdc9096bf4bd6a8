"""Tree speculation vs the linear draft chain at equal draft depth.

One parametrized case per (target, mode): ``linear`` decodes with the
plain gamma-chain speculative path, ``tree`` with tree speculation
(branch 2, node budget ``gamma + 1``) at the same gamma.  The summary
test saves ``results/tree.json`` (gated by ``scripts/perf_gate.py``) and
asserts the tentpole claims in-process:

* **losslessness** — tree decoding is token-identical to greedy AR,
* **acceptance** — accepted tokens per target forward is strictly higher
  than the linear chain's at the same gamma: when the chain's argmax
  continuation is rejected, a sibling branch can still rescue the round,
* **compute** — the simulated decode time does not regress: the extra
  verify rows are priced (the verify price bills every fed node) yet the
  saved rounds more than pay for them.

The ``-sampled`` modes run the same pair under temperature sampling at a
fixed seed.  They guard against a silent downgrade: a sampled tree engine
must really draft trees (some block has more nodes than ``gamma``) and
emit only vocabulary tokens.  Their ``apf`` is reported in the table; no
ordering is asserted, since a sampled run is one draw, not an expectation.

Gamma is 7 here, deliberately above the smoke head's easy-acceptance
range: at gamma 3 the smoke draft head is accepted wholesale and a tree
has nothing to rescue, so the margin this gate protects only exists
where rejections actually happen.

The gate runs ``sim-7b`` only.  Measured across every knob sweep
(branch 2-3, node budgets gamma+1..gamma+3, entropy scales 0.3-1.0,
gammas 7-10, all three datasets): the smoke ``sim-13b`` draft head's
rank-2 candidate *never* matches the target at a rejection point, so
trees cannot change its acceptance and there is no margin to protect —
asserting one would gate on a property the model pair does not have.
"""

from __future__ import annotations

import pytest

from repro.core.engine import AASDEngineConfig
from repro.decoding.autoregressive import AutoregressiveDecoder
from repro.decoding.sampling import SamplerConfig
from repro.eval import build_aasd_engine, save_results

from .conftest import RESULTS_DIR

TARGETS = ("sim-7b",)
GAMMA = 7
BRANCH = 2
MAX_NODES = 8
N_SAMPLES = 8
NEW_TOKENS = 48
MODES = ("linear", "tree", "linear-sampled", "tree-sampled")
SAMPLED = SamplerConfig(greedy=False, temperature=0.8, top_p=0.95, seed=0)
_RESULTS = {}
_AR_TOKENS = {}

CASES = [(t, m) for t in TARGETS for m in MODES]


def _samples(zoo):
    return list(zoo.eval_dataset("coco-sim", N_SAMPLES))


def _engine(zoo, runner, target, mode):
    config = AASDEngineConfig(
        gamma=GAMMA,
        max_new_tokens=NEW_TOKENS,
        tree_speculation=mode.startswith("tree"),
        tree_max_branch=BRANCH,
        tree_max_nodes=MAX_NODES,
    )
    return build_aasd_engine(
        zoo, target, GAMMA, runner.cost_model(target), config=config,
        sampler_config=SAMPLED if mode.endswith("sampled") else None,
    )


def _ar_tokens(zoo, runner, target):
    if target not in _AR_TOKENS:
        ar = AutoregressiveDecoder(
            zoo.target(target), zoo.tokenizer(), runner.cost_model(target),
            max_new_tokens=NEW_TOKENS,
        )
        _AR_TOKENS[target] = [ar.decode(s).token_ids for s in _samples(zoo)]
    return _AR_TOKENS[target]


@pytest.mark.parametrize("target,mode", CASES, ids=[f"{t}-{m}" for t, m in CASES])
def test_tree_cell(benchmark, zoo, runner, target, mode):
    samples = _samples(zoo)
    engine = _engine(zoo, runner, target, mode)
    assert engine.tree_ready == mode.startswith("tree")

    records = benchmark.pedantic(
        lambda: [engine.decode(s) for s in samples], rounds=1, iterations=1
    )

    if mode.endswith("sampled"):
        vocab = zoo.tokenizer().vocab_size
        assert all(0 <= t < vocab for r in records for t in r.token_ids), mode
        if engine.tree_ready:   # no silent downgrade to chains
            assert any(b.n_draft > GAMMA for r in records for b in r.blocks), mode
    else:
        # Losslessness first: the throughput numbers mean nothing otherwise.
        for record, reference in zip(records, _ar_tokens(zoo, runner, target)):
            assert record.token_ids == reference, f"{mode} decode diverged from AR"

    tokens = sum(r.n_tokens for r in records)
    forwards = sum(r.n_target_forwards for r in records)
    sim_ms = sum(r.sim_time_ms for r in records)
    row = {
        "apf": tokens / forwards,
        "sim_ms": sim_ms,
        "tok_per_s": tokens / (sim_ms / 1000.0),
        "forwards": float(forwards),
    }
    _RESULTS[(target, GAMMA, mode)] = row
    benchmark.extra_info.update(row)


def test_tree_summary(benchmark, runner):
    assert len(_RESULTS) == len(CASES), "run the full parametrized set first"
    lines = [f"{'target':>10} {'mode':>14} {'apf':>7} {'fwd':>6} {'sim ms':>10} {'tok/s':>8}"]
    for (target, gamma, mode), row in sorted(_RESULTS.items()):
        lines.append(
            f"{target:>10} {mode:>14} {row['apf']:>7.3f} {row['forwards']:>6.0f} "
            f"{row['sim_ms']:>10.1f} {row['tok_per_s']:>8.1f}"
        )
    rendered = benchmark.pedantic(lambda: "\n".join(lines), rounds=1, iterations=1)
    print("\n" + rendered)
    save_results(
        _RESULTS, RESULTS_DIR / "tree", rendered=rendered,
        config={
            "gamma": GAMMA, "branch": BRANCH, "max_nodes": MAX_NODES,
            "n_samples": N_SAMPLES, "max_new_tokens": NEW_TOKENS,
            "targets": list(TARGETS),
        },
    )

    for target in TARGETS:
        tree = _RESULTS[(target, GAMMA, "tree")]
        linear = _RESULTS[(target, GAMMA, "linear")]
        # The headline: strictly more committed tokens per target forward.
        assert tree["apf"] > linear["apf"], (target, tree["apf"], linear["apf"])
        assert tree["forwards"] < linear["forwards"], target
        # And not at the cost of simulated decode time: the extra verify
        # rows are billed, but saved rounds more than pay for them.
        assert tree["sim_ms"] <= linear["sim_ms"], target
