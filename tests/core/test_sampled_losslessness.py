"""Statistical losslessness of packed sampled decoding.

Speculative sampling promises that the *distribution* of the output is
the target's own (PAPER.md §1.3), which no token-identity test can see.
Here packed sampled rounds (chain, gamma 3, B = 8; the smoke AASD head, and
the smoke FT-LLaMA independent draft, whose weaker proposals reach the
residual draw far more often; and candidate trees shaped like the
``tree_arrivals`` benchmark workload, gamma 7, branch 2, 8 nodes, where
rejected children are rescued by their siblings) are run over a fixed
list of sampler seeds — every batch holds each
prompt several times under different request ids, so one round yields
several independent draws — and the first tokens are compared, prompt by
prompt and position by position, with plain sampling of the target at the
same temperature / top-p by a two-sample chi-square test.  Everything is
seeded, so the statistic is one fixed number; the threshold guards the
accept rule, the residual draw and the per-request streams against
changes that would bend the distribution.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro.core.engine as engine_mod
from repro.core import AASDEngine, AASDEngineConfig
from repro.decoding import CostModel, LlamaTextDraft, get_profile
from repro.decoding.base import encode_prompt
from repro.decoding.sampling import SamplerConfig, logits_to_probs
from repro.decoding.tree import VerifyOutcome
from repro.nn.tensor import no_grad
from repro.utils.rng import derive

TARGET = "sim-7b"
N_PROMPTS = 2
COPIES = 4             # requests per prompt in one packed batch (B = 8)
N_TOKENS = 5           # the prefill sample plus at least one verified block
SEEDS = range(40)      # 160 AASD draws per prompt
N_REFERENCE = 480      # plain target draws per prompt
MIN_BIN = 10           # pooled count below which tokens share one "rare" bin
MAX_Z = 3.0            # (chi2 - df) / sqrt(2 df) above this fails
CHAIN = AASDEngineConfig(gamma=3, max_new_tokens=N_TOKENS)
TREE = AASDEngineConfig(gamma=7, max_new_tokens=N_TOKENS, tree_speculation=True,
                        tree_max_branch=2, tree_max_nodes=8)


def _sampler(seed: int) -> SamplerConfig:
    # Hotter than the benchmark's 0.8: the smoke target is peaked, and a
    # flatter distribution exercises rejection and the residual draw.
    return SamplerConfig(greedy=False, temperature=1.5, top_p=0.95, seed=seed)


@pytest.fixture(scope="module")
def parts(smoke_zoo):
    return dict(
        target=smoke_zoo.target(TARGET), head=smoke_zoo.aasd_head(TARGET),
        baseline=LlamaTextDraft(smoke_zoo.text_draft("ft", TARGET), "ft-llama"),
        tokenizer=smoke_zoo.tokenizer(), cost=CostModel(get_profile(TARGET)),
        samples=smoke_zoo.eval_dataset("coco-sim", N_PROMPTS).samples,
    )


@pytest.fixture(scope="module")
def reference(parts):
    """Per prompt, ``N_REFERENCE`` token tuples sampled from the target alone.

    One prefill per prompt; every draw continues on a copy-on-write clone
    of its cache, and the clones advance together through one packed
    forward per position, which is what keeps a large reference cheap.
    """
    target, config = parts["target"], _sampler(0)
    eos = parts["tokenizer"].vocab.eos_id
    rng = derive(0, "losslessness-reference")

    def draw(logits):
        probs = logits_to_probs(logits, config)
        return int(rng.choice(probs.size, p=probs))

    draws = []
    with no_grad():
        for sample in parts["samples"]:
            prompt_ids = encode_prompt(parts["tokenizer"], sample)
            cache, first = target.prefill(sample.image[None], prompt_ids[None])
            runs = [[draw(first[0])] for _ in range(N_REFERENCE)]
            live = [(run, cache.clone()) for run in runs if run[-1] != eos]
            for _ in range(N_TOKENS - 1):
                outs = target.decode_batch(
                    [np.asarray([run[-1]]) for run, _ in live], [c for _, c in live]
                )
                for (run, _), out in zip(live, outs):
                    run.append(draw(out.logits.data[0, -1]))
                live = [(run, c) for run, c in live if run[-1] != eos]
            draws.append([tuple(run) for run in runs])
    return draws


def _aasd_draws(parts, seeds, head="head", config=CHAIN):
    """Per prompt, ``COPIES`` token tuples per seed from packed sampled rounds."""
    draws = [[] for _ in range(N_PROMPTS)]
    for seed in seeds:
        engine = AASDEngine(
            parts["target"], parts[head], parts["tokenizer"], parts["cost"], config,
            sampler_config=_sampler(seed),
        )
        assert engine.tree_ready == config.tree_speculation
        sessions = engine.begin_batch(list(parts["samples"]) * COPIES)
        while any(not s.finished for s in sessions):
            engine.step_batch([s for s in sessions if not s.finished])
        for i, session in enumerate(sessions):
            draws[i % N_PROMPTS].append(tuple(session.committed))
    return draws


def _z_score(ours, theirs):
    """Normalised two-sample chi-square over every (prompt, position) table.

    A position past the end of a sequence (eos came first) counts as its
    own category.  Tokens whose pooled count is under ``MIN_BIN`` share
    one bin, so no cell is too thin for the chi-square approximation.
    """
    chi2 = df = 0
    for a_runs, b_runs in zip(ours, theirs):
        # scale factors of the two-sample statistic for unequal sizes
        ka, kb = (len(b_runs) / len(a_runs)) ** 0.5, (len(a_runs) / len(b_runs)) ** 0.5
        for position in range(N_TOKENS):
            a = Counter(run[position:position + 1] for run in a_runs)
            b = Counter(run[position:position + 1] for run in b_runs)
            bins: Counter = Counter()
            for token in set(a) | set(b):
                key = token if a[token] + b[token] >= MIN_BIN else "rare"
                bins[key, 0] += a[token]
                bins[key, 1] += b[token]
            keys = {key for key, _ in bins}
            chi2 += sum(
                (ka * bins[key, 0] - kb * bins[key, 1]) ** 2
                / (bins[key, 0] + bins[key, 1])
                for key in keys
            )
            df += len(keys) - 1
    assert df >= 30, "the prompts leave too few categories for the test to mean anything"
    return (chi2 - df) / (2 * df) ** 0.5


def test_packed_sampled_output_is_distributed_as_the_targets(parts, reference):
    assert _z_score(_aasd_draws(parts, SEEDS), reference) < MAX_Z
    assert _z_score(_aasd_draws(parts, SEEDS, head="baseline"), reference) < MAX_Z


def test_sampled_trees_are_distributed_as_the_targets(parts, reference, monkeypatch):
    honest = engine_mod.speculative_verify
    rescued = []

    def watched(tree, *args):
        outcome = honest(tree, *args)
        children = tree.children()
        rescued.extend(node != children[parent][0]
                       for parent, node in zip((-1, *outcome.path), outcome.path))
        return outcome

    monkeypatch.setattr(engine_mod, "speculative_verify", watched)
    assert _z_score(_aasd_draws(parts, SEEDS, config=TREE), reference) < MAX_Z
    assert any(rescued), "no accepted node was a later sibling: nothing was rescued"


def test_the_statistic_sees_a_biased_accept_rule(parts, reference, monkeypatch):
    """Power check: an accept rule that keeps the first branch to its leaf must fail,
    for chains (every draft token) and for trees."""
    honest = engine_mod.speculative_verify

    def accept_everything(tree, draft_probs, target_logits, config, rng):
        outcome = honest(tree, draft_probs, target_logits, config, rng)
        children, path = tree.children(), [-1]
        while path[-1] in children:
            path.append(children[path[-1]][0])
        path = tuple(path[1:])
        return VerifyOutcome(tuple(tree.tokens[i] for i in path), outcome.next_token,
                             True, path)

    monkeypatch.setattr(engine_mod, "speculative_verify", accept_everything)
    assert _z_score(_aasd_draws(parts, SEEDS), reference) > MAX_Z
    assert _z_score(_aasd_draws(parts, SEEDS, config=TREE), reference) > MAX_Z
