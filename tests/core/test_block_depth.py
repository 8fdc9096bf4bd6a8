"""A block drafts only what the session's token budget can commit.

A verified block commits at most its accepted path plus the target's own
token, so ``AASDEngine._open_block`` drafts each block to depth
``max(1, min(gamma, remaining - 1))``, ``remaining`` being the tokens the
session's budget has left.  The cases run the trained smoke pair, whose
blocks are accepted deep enough for the cap to bind, and check both the
cap (every verified block's deepest node, draft forwards and verify
rows) and that greedy tokens stay the target's.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AASDEngine, AASDEngineConfig
from repro.decoding import AutoregressiveDecoder, CostModel, get_profile
from repro.nn.kernels import pin_operands
from repro.obs.tracing import Tracer

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


@pytest.fixture(scope="module")
def decode(parts):
    """Decode ``samples`` under ``config``, solo or packed.

    Returns the tokens per sample and, per sample, one
    ``(remaining, depth, draft forwards, verify rows)`` per verified block:
    the budget left when the block opened, its deepest node, the draft
    forwards it ran and the rows its slice of the verify forward had.
    """
    def run(config, samples, packed, tracer=None):
        engine = AASDEngine(parts["target"], parts["head"], parts["tokenizer"],
                            parts["cost"], config, tracer=tracer)
        blocks = {}
        verify = engine._verify_block

        def watched(state, out, verify_start, sp):
            session = state.session
            blocks.setdefault(id(session), []).append((
                session.max_new_tokens - len(session.committed),
                state.walk.draft.max_depth, state.n_forwards,
                out.logits.data.shape[1],
            ))
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
        return ([list(s.committed) for s in sessions],
                [blocks.get(id(s), []) for s in sessions])

    return run


@pytest.mark.parametrize("tree", [False, True], ids=["chain", "tree"])
@pytest.mark.parametrize("packed", [False, True], ids=["solo", "packed"])
def test_a_short_request_drafts_only_what_it_can_commit(decode, reference, tree, packed):
    """gamma 7 under a 4-token budget: one token comes from the prefill, so
    the first block has three left and drafts two deep at most."""
    config = AASDEngineConfig(gamma=7, max_new_tokens=4, tree_speculation=tree)
    tokens, blocks = decode(config, range(N_SAMPLES), packed)
    assert tokens == [reference(i, 4) for i in range(N_SAMPLES)]
    for first, *_ in blocks:
        remaining, depth, forwards, rows = first
        assert remaining == 3 and depth <= 2
        if not tree:   # a depth-2 chain: two forwards (the leaf is never fed), 3 rows
            assert (depth, forwards, rows) == (2, 2, 3)


def test_the_draft_span_reports_the_capped_depth(decode):
    tracer = Tracer()
    decode(AASDEngineConfig(gamma=7, max_new_tokens=4), [0], False, tracer)
    gammas = [s.attrs["gamma"] for s in tracer.spans if s.name == "draft"]
    assert gammas and gammas[0] == 2 and max(gammas) <= 2


@settings(max_examples=40, deadline=None)
@given(gamma=st.integers(1, 8), budget=st.integers(1, LONGEST), tree=st.booleans(),
       packed=st.booleans(), samples=st.sampled_from([(0,), (1,), (0, 2), (2, 1, 0)]))
def test_no_block_drafts_past_the_budget(decode, reference, gamma, budget, tree,
                                         packed, samples):
    config = AASDEngineConfig(gamma=gamma, max_new_tokens=budget, tree_speculation=tree)
    tokens, blocks = decode(config, samples, packed)
    assert tokens == [reference(i, budget) for i in samples]
    for per_sample in blocks:
        for remaining, depth, forwards, rows in per_sample:
            cap = max(1, min(gamma, remaining - 1))
            assert depth <= cap
            if not tree:
                assert (depth, forwards, rows) == (cap, cap, cap + 1)
