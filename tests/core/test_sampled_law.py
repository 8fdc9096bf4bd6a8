"""Sampled losslessness of the engine, proven by enumeration.

The theorem: under top-k <= 3 sampling, the law of the first ``K`` tokens
the engine emits equals the target's.  Every draw a session makes comes
from its own stream (``AASDEngine._request_stream``), so a replaying
generator put in that place (``exact``, tests/conftest.py) re-runs the
real engine — prefill, draft forwards, verify forward, accept rule,
commit — once per decision path and sums the path weights: the exact
law, no sampling and no tolerance.  The target's law is enumerated the
same way, through ``AutoregressiveDecoder(rng=...)``.  Top-2 sampling
bounds the branching; ``K`` is 3 solo and 2 for the packed pair, whose
joint law must be the product of the two solo laws.  A block drafts at
most the tokens its budget can still commit after the target's own, so
at ``K = 3`` every block is one node deep; ``K = 4`` opens with a block
drafted to its full ``gamma = 2``, chain and tree, and runs them again
with eos second in the draft's top-2 (``eos_at_depth``), so a walk that
draws eos ends on it.

The engine isolates a draft's exceptions as draft faults, which could
turn a harness error into a quiet fault-path run, so every replay also
asserts its scheduled number of draft faults.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.core.engine as engine_mod
from repro.core import AASDEngine, AASDEngineConfig, StepReport
from repro.decoding import AutoregressiveDecoder, CostModel, LlamaTextDraft, get_profile
from repro.decoding.sampling import SamplerConfig
from repro.decoding.tree import VerifyOutcome
from repro.nn.kernels import pin_operands
from repro.robustness import FaultyDraftHead

TARGET = "sim-7b"
K = 3
SAMPLER = SamplerConfig(greedy=False, top_k=2)
CHAIN = AASDEngineConfig(gamma=2, max_new_tokens=K)
TREE = AASDEngineConfig(gamma=2, max_new_tokens=K, tree_speculation=True,
                        tree_max_branch=2, tree_max_nodes=4)


@pytest.fixture(scope="module")
def parts(smoke_zoo):
    parts = dict(
        target=smoke_zoo.target(TARGET), head=smoke_zoo.aasd_head(TARGET),
        baseline=LlamaTextDraft(smoke_zoo.text_draft("ft", TARGET), "ft-llama"),
        tokenizer=smoke_zoo.tokenizer(), cost=CostModel(get_profile(TARGET)),
        samples=smoke_zoo.eval_dataset("coco-sim", 2).samples,
    )
    # Hold the float64 operands across replays: each replay's engine would
    # otherwise rebuild them on its first forward and drop them when it dies.
    release = pin_operands([*parts["target"].parameters(), *parts["head"].parameters(),
                            *parts["baseline"].parameters()])
    yield parts
    release()


@pytest.fixture(scope="module")
def target_law(parts, exact):
    """The target's law of the first ``k`` tokens of sample ``i``, enumerated once."""
    laws = {}

    def law(i, k=K):
        if (i, k) not in laws:
            laws[i, k] = exact(lambda rng: tuple(AutoregressiveDecoder(
                parts["target"], parts["tokenizer"], parts["cost"], max_new_tokens=k,
                sampler_config=SAMPLER, rng=rng,
            ).decode(parts["samples"][i]).token_ids))
        return laws[i, k]

    return law


@pytest.fixture()
def engine_law(parts, exact, monkeypatch):
    """The engine's law of the first tokens of ``samples``: a tuple per request.

    ``head()`` builds the drafter afresh per replay (a fault wrapper's
    counters must restart with the replay).  The first ``forced`` rounds
    run under ``force_fallback``; each replay must end with ``faults``
    draft faults per request and a step report for every round.
    """
    stream = {}
    monkeypatch.setattr(AASDEngine, "_request_stream", lambda self, request_id: stream["rng"])

    def law(config, *, head=lambda: parts["head"], samples=(0,), gammas=None,
            forced=0, faults=0):
        def run(rng):
            stream["rng"] = rng
            engine = AASDEngine(parts["target"], head(), parts["tokenizer"], parts["cost"],
                                config, sampler_config=SAMPLER)
            sessions = engine.begin_batch([parts["samples"][i] for i in samples],
                                          gammas=gammas)
            rounds = 0
            while live := [s for s in sessions if not s.finished]:
                reports = engine.step_batch(live, force_fallback=rounds < forced)
                assert all(isinstance(r, StepReport) for r in reports), reports
                rounds += 1
            assert [s.record.n_draft_faults for s in sessions] == [faults] * len(samples)
            return tuple(tuple(s.committed) for s in sessions)

        return exact(run)

    return law


def _solo(law):
    return {tokens: w for (tokens,), w in law.items()}


def test_chain_law_is_the_targets(engine_law, target_law):
    assert target_law(0).distance(_solo(engine_law(CHAIN))) <= 1e-12


def test_tree_law_is_the_targets(engine_law, target_law, monkeypatch):
    honest, rescued = engine_mod.speculative_verify, []

    def watched(tree, *args):
        outcome = honest(tree, *args)
        children = tree.children()
        rescued.extend(node != children[parent][0]
                       for parent, node in zip((-1, *outcome.path), outcome.path))
        return outcome

    monkeypatch.setattr(engine_mod, "speculative_verify", watched)
    assert target_law(0).distance(_solo(engine_law(TREE))) <= 1e-12
    assert any(rescued), "no path accepted a later sibling: nothing was rescued"


@pytest.mark.parametrize("config", [CHAIN, TREE], ids=["chain", "tree"])
def test_full_depth_blocks_keep_the_targets_law(engine_law, target_law, monkeypatch, config):
    honest, depths = engine_mod.speculative_verify, []

    def watched(tree, *args):
        depths.append(tree.max_depth)
        return honest(tree, *args)

    monkeypatch.setattr(engine_mod, "speculative_verify", watched)
    law = engine_law(dataclasses.replace(config, max_new_tokens=K + 1))
    assert target_law(0, K + 1).distance(_solo(law)) <= 1e-12
    assert max(depths) == config.gamma


@pytest.mark.parametrize("config", [CHAIN, TREE], ids=["chain", "tree"])
def test_a_drafted_eos_keeps_the_targets_law(engine_law, target_law, parts, eos_at_depth,
                                             monkeypatch, config):
    """eos second in the draft's top-2 at depth 1: a first block (drafted to
    depth 2) whose first draw is eos is that one node, unexpanded, and a
    tree's other child is never created."""
    eos, honest, first = parts["tokenizer"].vocab.eos_id, engine_mod.speculative_verify, []

    def head():   # one per replay: its first verify is the replay's first block
        first.append(None)
        return eos_at_depth(parts["head"], eos, 1, rank=1)

    def watched(tree, *args):
        if first[-1] is None:
            first[-1] = tree
        return honest(tree, *args)

    monkeypatch.setattr(engine_mod, "speculative_verify", watched)
    law = engine_law(dataclasses.replace(config, max_new_tokens=K + 1), head=head)
    assert target_law(0, K + 1).distance(_solo(law)) <= 1e-12
    assert (eos,) in [tree.tokens for tree in first], "no first block drew eos first"


def test_independent_draft_law_is_the_targets(engine_law, target_law, parts):
    law = engine_law(CHAIN, head=lambda: parts["baseline"])
    assert target_law(0).distance(_solo(law)) <= 1e-12


@pytest.mark.parametrize("mode", ["raise", "nan-logits"])
def test_a_faulted_block_keeps_the_targets_law(engine_law, target_law, parts, mode):
    """The first block faults; its fallback step and the next verified block
    commit tokens 2 and 3."""
    law = engine_law(CHAIN, faults=1, head=lambda: FaultyDraftHead(
        parts["head"], mode, fail_steps=[0], per_request=True))
    assert target_law(0).distance(_solo(law)) <= 1e-12


def test_a_forced_fallback_step_keeps_the_targets_law(engine_law, target_law):
    assert target_law(0).distance(_solo(engine_law(CHAIN, forced=1))) <= 1e-12


def test_packed_joint_law_is_the_product_of_the_targets(engine_law, target_law):
    """Two requests, gammas 1 and 2, in one packed round: independent, each the target's."""
    law = engine_law(AASDEngineConfig(max_new_tokens=2), samples=(0, 1), gammas=[1, 2])
    product = {(a, b): pa * pb for a, pa in target_law(0, 2).items()
               for b, pb in target_law(1, 2).items()}
    assert law.distance(product) <= 1e-12


@pytest.mark.parametrize("config,eos_drafted",
                         [(CHAIN, False), (TREE, False), (CHAIN, True), (TREE, True)],
                         ids=["chain", "tree", "chain-eos", "tree-eos"])
def test_the_check_sees_a_biased_accept_rule(engine_law, target_law, parts, eos_at_depth,
                                             monkeypatch, config, eos_drafted):
    """Power: a rule that keeps the first branch to its leaf misses, deterministically,
    also when the walks end at a drafted eos."""
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
    eos = parts["tokenizer"].vocab.eos_id
    head = ((lambda: eos_at_depth(parts["head"], eos, 1, rank=1)) if eos_drafted
            else (lambda: parts["head"]))
    assert target_law(0).distance(_solo(engine_law(config, head=head))) > 1e-3


def test_a_wrapper_that_is_not_rebuilt_breaks_the_replay(engine_law, parts):
    """A fault wrapper built once keeps counting across replays, so the
    second replay no longer faults where the first did: the harness must
    say so rather than return a wrong law."""
    faulty = FaultyDraftHead(parts["head"], "raise", fail_steps=[0], per_request=True)
    with pytest.raises(AssertionError, match="replay diverged"):
        engine_law(CHAIN, faults=1, head=lambda: faulty)
