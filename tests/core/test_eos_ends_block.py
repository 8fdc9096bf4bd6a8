"""A drafted eos ends its block.

Every response ends at eos, and the commit cuts a block at its first
eos, so no node below or after a drafted eos could ever be committed.
``DraftWalk`` therefore completes the moment it creates an eos node: that
node is never expanded and no further node is created.  The unit cases
drive the walk on hand-made logits (eos as the first child, as a sibling
and at depth γ); the property and the lane check run the trained smoke
pair with the draft made to meet eos at a drawn depth
(``eos_at_depth``, tests/conftest.py), and check the block's shape, its
draft forwards, its verify rows and that greedy tokens stay the target's.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_mod
from repro.core import AASDDraftHead, AASDEngine, AASDEngineConfig
from repro.decoding import AutoregressiveDecoder, CostModel, get_profile
from repro.decoding.sampling import SamplerConfig
from repro.decoding.tree import DraftWalk, speculative_verify
from repro.nn.kernels import pin_operands
from repro.nn.tensor import no_grad

VOCAB, EOS = 8, 7


def _ranked(order):
    """Logits ranking ``order`` first to last, ahead of every other token."""
    logits = np.zeros(VOCAB)
    for rank, token in enumerate(order):
        logits[token] = 10.0 - rank
    return logits


def _walk(children, gamma, eos=EOS, **kwargs):
    """Drive a greedy walk whose node ``token`` ranks ``children[token]`` first.

    Returns the draft and the tokens expanded, in order.
    """
    walk = DraftWalk(0, gamma, eos=eos, entropy_scale=1e-9, **kwargs)
    expanded = []
    while walk.pending is not None:
        token, _, _ = walk.pending
        expanded.append(token)
        walk.expand(_ranked(children.get(token, (4, 5))))
    return walk.draft, expanded


class TestTheWalkStopsAtEos:
    def test_eos_as_the_first_child_at_depth_1(self):
        # the chain would run 4 deep, the tree 3 wide: both are the one eos
        chain, expanded = _walk({0: (EOS, 1)}, 4)
        assert chain.tokens == (EOS,) and expanded == [0]
        tree, expanded = _walk({0: (EOS, 1, 2)}, 4, max_branch=3, max_nodes=12)
        assert tree.tokens == (EOS,) and expanded == [0]

    def test_eos_as_a_sibling(self):
        # the first child's subtree is drafted, then eos, and the third
        # child is never created; eos is not expanded
        tree, expanded = _walk({0: (1, EOS, 2), 1: (3, 4, 5)}, 2, max_branch=3,
                               max_nodes=12)
        assert tree.tokens == (1, 3, 4, 5, EOS)
        assert tree.parents == (-1, 0, 0, 0, -1) and expanded == [0, 1]
        # below the root: the walk ends inside the first branch
        tree, expanded = _walk({0: (1, 2), 1: (3, EOS)}, 3, max_branch=2, max_nodes=12)
        assert tree.tokens == (1, 3, 4, 5, EOS) and tree.depths == (1, 2, 3, 3, 2)
        assert expanded == [0, 1, 3]

    def test_eos_at_depth_gamma(self):
        # a chain's last node is a leaf either way: the same forwards
        chain, expanded = _walk({0: (1,), 1: (2,), 2: (EOS,)}, 3)
        assert chain.tokens == (1, 2, EOS) and expanded == [0, 1, 2]
        # a tree with node budget left stops there too
        tree, expanded = _walk({0: (1, 2), 1: (EOS, 3)}, 2, max_branch=2, max_nodes=12)
        assert tree.tokens == (1, EOS) and expanded == [0, 1]

    def test_without_eos_the_walk_runs_on(self):
        tree, expanded = _walk({0: (1, 2), 1: (EOS, 3)}, 2, eos=None, max_branch=2,
                               max_nodes=12)
        assert tree.tokens == (1, EOS, 3, 2, 4, 5) and expanded == [0, 1, 2]

    def test_a_sampled_walk_stops_on_its_draws(self):
        # the anchor draws eos first and 1 second: 1 is never created, and
        # the one expansion's q is all the accept walk needs
        class Scripted:
            def __init__(self, picks):
                self.picks = iter(picks)

            def choice(self, n, p):
                pick = next(self.picks)
                assert p[pick] > 0.0
                return pick

            def random(self):
                return 0.0

        config = SamplerConfig(greedy=False)
        walk = DraftWalk(0, 3, eos=EOS, max_branch=2, max_nodes=12, entropy_scale=1e-9,
                         config=config, rng=Scripted([EOS, 1]))
        walk.expand(_ranked((EOS, 1)))
        assert walk.pending is None and walk.draft.tokens == (EOS,)
        assert len(walk.probs) == 1
        target = np.zeros((2, VOCAB))
        target[0, EOS] = 50.0
        outcome = speculative_verify(walk.draft, walk.probs, target, config,
                                     Scripted([0]))
        assert outcome.accepted == (EOS,)


TARGET = "sim-7b"
N_SAMPLES = 3
LONGEST = 12    # the largest budget the property draws


@pytest.fixture(scope="module")
def parts(smoke_zoo):
    parts = dict(
        target=smoke_zoo.target(TARGET), head=smoke_zoo.aasd_head(TARGET),
        tokenizer=smoke_zoo.tokenizer(), cost=CostModel(get_profile(TARGET)),
        samples=smoke_zoo.eval_dataset("coco-sim", N_SAMPLES).samples,
    )
    parts["eos"] = parts["tokenizer"].vocab.eos_id
    release = pin_operands([*parts["target"].parameters(), *parts["head"].parameters()])
    yield parts
    release()


@pytest.fixture(scope="module")
def reference(parts):
    """The target's greedy tokens of sample ``i`` under budget ``b``."""
    ar = AutoregressiveDecoder(parts["target"], parts["tokenizer"], parts["cost"],
                               max_new_tokens=LONGEST)
    full = [ar.decode(sample).token_ids for sample in parts["samples"]]
    return lambda i, budget: full[i][:budget]


def _decode(parts, config, head, samples, packed):
    """Decode ``samples``; tokens, and per verified block ``(remaining, tree, forwards, rows)``."""
    engine = AASDEngine(parts["target"], head, parts["tokenizer"], parts["cost"], config)
    blocks = []
    verify = engine._verify_block

    def watched(state, out, verify_start, sp):
        session = state.session
        blocks.append((session.max_new_tokens - len(session.committed), state.walk.draft,
                       state.n_forwards, out.logits.data.shape[1]))
        return verify(state, out, verify_start, sp)

    engine._verify_block = watched
    chosen = [parts["samples"][i] for i in samples]
    if packed:
        sessions = engine.begin_batch(chosen)
        while live := [s for s in sessions if not s.finished]:
            engine.step_batch(live)
    else:
        sessions = [engine.begin(sample) for sample in chosen]
        for session in sessions:
            while not session.finished:
                engine.step(session)
    return [list(s.committed) for s in sessions], blocks


@settings(max_examples=30, deadline=None)
@given(gamma=st.integers(1, 8), budget=st.integers(1, LONGEST), tree=st.booleans(),
       packed=st.booleans(), depth=st.integers(1, 8), rank=st.integers(0, 1),
       samples=st.sampled_from([(0,), (1,), (0, 2), (2, 1, 0)]))
def test_no_block_drafts_past_eos(parts, reference, eos_at_depth, gamma, budget, tree,
                                  packed, depth, rank, samples):
    eos = parts["eos"]
    head = eos_at_depth(parts["head"], eos, depth, rank)
    config = AASDEngineConfig(gamma=gamma, max_new_tokens=budget, tree_speculation=tree,
                              tree_entropy_scale=0.25)
    tokens, blocks = _decode(parts, config, head, samples, packed)
    assert tokens == [reference(i, budget) for i in samples]
    for remaining, draft, forwards, rows in blocks:
        ends = [i for i, token in enumerate(draft.tokens) if token == eos]
        assert ends in ([], [draft.n_nodes - 1])   # no node after or below an eos
        expanded = set(draft.parents)   # the anchor (-1) and every node with children
        assert forwards == len(expanded) and not expanded & set(ends)
        assert rows == 1 + draft.n_nodes
        cap = max(1, min(gamma, remaining - 1))
        if not tree and rank == 0:
            # the chain runs to the cap, or to the eos drafted at ``depth`` or before
            if depth <= cap:
                assert ends and draft.n_nodes <= depth
            else:
                assert draft.n_nodes == cap or ends
    assert head.rows == sum(forwards for _, _, forwards, _ in blocks)


def test_a_chain_verifies_up_to_its_eos(parts, reference, eos_at_depth):
    """γ 5, eos drafted at depth 2: the first block is two nodes, two
    forwards and three verify rows where it used to be five, five and six."""
    eos = parts["eos"]
    head = eos_at_depth(parts["head"], eos, 2)
    tokens, blocks = _decode(parts, AASDEngineConfig(gamma=5, max_new_tokens=LONGEST),
                             head, [0], False)
    assert tokens == [reference(0, LONGEST)]
    _, draft, forwards, rows = blocks[0]
    assert draft.tokens[-1] == eos and (draft.n_nodes, forwards, rows) == (2, 2, 3)


@pytest.mark.parametrize("depth,rank", [(2, 0), (2, 1), (3, 1), (4, 0)])
def test_the_lane_drafts_what_draft_tree_drafts(parts, eos_at_depth, monkeypatch, depth,
                                                rank):
    """Trees that meet eos grow in lockstep exactly as each grows alone.

    Every expansion is two wide.  At rank 0 eos is the first child at
    ``depth``, so the walk ends on its first root path; at rank 1 it is
    the second, so the first child's subtree is drafted before it.
    """
    eos = parts["eos"]
    config = AASDEngineConfig(gamma=4, max_new_tokens=LONGEST, tree_speculation=True,
                              tree_max_branch=2, tree_max_nodes=12,
                              tree_entropy_scale=1e-6)
    engine = AASDEngine(parts["target"], eos_at_depth(parts["head"], eos, depth, rank),
                        parts["tokenizer"], parts["cost"], config)
    sessions = engine.begin_batch(list(parts["samples"]))
    trees = []
    monkeypatch.setattr(engine_mod, "speculative_verify",
                        lambda tree, *a: trees.append(tree) or speculative_verify(tree, *a))
    engine.step_batch(sessions)
    assert len(trees) == len(sessions)
    for session, tree in zip(sessions, trees):
        alone = AASDEngine(parts["target"], parts["head"], parts["tokenizer"],
                           parts["cost"], config).begin(session.sample)
        with no_grad():
            spec = AASDDraftHead.draft_tree(
                eos_at_depth(parts["head"], eos, depth, rank), alone.committed[-1],
                alone.gen_base + len(alone.committed) - 1, alone.draft_state,
                gamma=config.gamma, eos=eos, max_branch=config.tree_max_branch,
                max_nodes=config.tree_max_nodes, entropy_scale=config.tree_entropy_scale,
            )
        assert tree == spec
        assert eos in tree.tokens and tree.tokens.index(eos) == tree.n_nodes - 1
        assert tree.depths[-1] == depth and tree.is_chain == (rank == 0)
