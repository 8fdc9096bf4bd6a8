"""The differential oracle for the inference forwards.

A cache or gradients off => raw kernels, one row or many
(``docs/kernels.md`` §5): ``MiniLlama``, ``AASDDraftHead``, the vision
tower, the connector and the KV projector each have one inference
implementation (``_infer_rows``) behind their solo and packed entry
points.  The executable spec is written on the ``Module`` layers' own
pieces (``tests/nn/conftest.py``) — for the vision tower, connector and
projector it is their forward with gradients on — and every case here
demands ``np.array_equal`` between the two on the smoke target and head,
with the spec side recording a graph: outputs and the caches left
behind, which hold every layer's fresh KV (an inference output keeps
none).  The target and head are pinned for the whole module, as a
serving engine pins them, so the kernels read the prepared float64
operands (``tests/nn/test_operands.py``).
"""

from __future__ import annotations

import contextlib
import tracemalloc

import numpy as np
import pytest

import repro.models.llama as llama_mod
import repro.models.llava as llava_mod
from repro.core.hybrid_cache import HybridKVCache
from repro.core.reference import ReferenceHybridKVCache, ReferenceKVCache
from repro.data.tasks import make_dataset
from repro.decoding.base import encode_prompt
from repro.decoding.tree import TreeDraft, tree_extra_blocked
from repro.models.kv_cache import KVCache
from repro.nn.kernels import pin_operands
from repro.nn.tensor import Tensor, no_grad

FEED = [5, 9, 7, 11]        # a gamma + 1 = 4 token verify feed
# anchor + 5 nodes; nodes 1 and 2 are siblings (same position), node 4 is
# the anchor's second child: feed positions p, p+1, p+2, p+2, p+3, p+1
TREE = TreeDraft(tokens=(5, 9, 7, 11, 3), parents=(-1, 0, 0, 2, -1),
                 depths=(1, 2, 2, 3, 1))
# One packed draft step over two sessions: per session, the draft steps
# taken before it and the packed row, each a (token, depth, ancestor rows)
# node (``None`` token: the anchor; ``None`` rows: the whole segment).
PACKED_CASES = [
    [([], (None, 0, None)), ([], (None, 0, None))],      # two block openings
    [
        # a tree: rows 1 and 2 are the anchor's two children, and the
        # packed row expands row 2 — a strict-subset root path
        ([(None, 0, ()), (5, 1, (0,)), (9, 1, (0,))], (7, 2, (0, 2))),
        # beside a chain row attending its whole draft segment
        ([(None, 0, ()), (5, 1, (0,))], (9, 2, (0, 1))),
    ],
]
ABLATIONS = [
    {},
    {"disable_image_kv": True},
    {"disable_text_kv": True},
]


@pytest.fixture(scope="module")
def world(smoke_zoo):
    tokenizer = smoke_zoo.tokenizer()
    samples = make_dataset("coco-sim", 3, seed=4).samples
    target, head = smoke_zoo.target("sim-7b"), smoke_zoo.aasd_head("sim-7b")
    release = pin_operands([*target.parameters(), *head.parameters()])
    yield dict(
        target=target,
        head=head,
        samples=samples,
        prompts=[encode_prompt(tokenizer, s) for s in samples],
    )
    release()


@pytest.fixture
def tensors_built(monkeypatch):
    """A list that grows by one for every ``Tensor`` constructed."""
    built = []
    init = Tensor.__init__
    monkeypatch.setattr(
        Tensor, "__init__",
        lambda self, *a, **kw: (built.append(1), init(self, *a, **kw))[1],
    )
    return built


def prefill(world, i=0):
    return world["target"].prefill(world["samples"][i].image[None], world["prompts"][i][None])


def same_output(spec, fast):
    assert spec.logits.requires_grad and not fast.logits.requires_grad
    assert fast.logits.data.dtype == spec.logits.data.dtype
    assert np.array_equal(spec.logits.data, fast.logits.data)
    assert np.array_equal(spec.hidden.data, fast.hidden.data)


def same_cache(spec, fast):
    assert spec.seq_len == fast.seq_len
    assert np.array_equal(np.asarray(spec.positions), np.asarray(fast.positions))
    for layer in range(spec.n_layers):
        for s, f in zip(spec.layer(layer), fast.layer(layer)):
            assert np.array_equal(s, f)


def same_hybrid(spec, fast):
    assert (spec.context_len, spec.draft_len) == (fast.context_len, fast.draft_len)
    assert len(spec.gather()) == len(fast.gather())
    for (ks, vs), (kf, vf) in zip(spec.gather(), fast.gather()):
        assert np.array_equal(ks, kf) and np.array_equal(vs, vf)


def build_context(head, cache, hybrid_cls=HybridKVCache):
    """``head.build_context(cache)``, its blocks held by a ``hybrid_cls`` store."""
    hybrid = head.build_context(cache)
    return hybrid_cls(hybrid.n_heads, hybrid.head_dim, source=hybrid.source,
                      first_row=hybrid.first_row, vision=hybrid.vision)


class TestACacheMeansInference:
    """A call given a cache runs the kernels whatever the grad mode;
    only a cacheless call with gradients on records a graph."""

    def test_a_cached_call_records_nothing_with_gradients_on(self, world, tensors_built):
        runs = []
        for grad_mode in (contextlib.nullcontext, no_grad):
            with grad_mode():
                cache, logits = prefill(world)          # no cache: the vision tower records
                hybrid = world["head"].build_context(cache)
                del tensors_built[:]
                out = world["target"].decode(np.asarray([FEED]), cache)
                row = world["head"].step(int(np.argmax(logits[0])), cache.next_position(),
                                         hybrid)
            assert len(tensors_built) == 1 and not out.logits.requires_grad  # the embedding
            runs.append((cache, hybrid, [logits, out.logits.data, out.hidden.data, row]))
        (cache_on, hybrid_on, on), (cache_off, hybrid_off, off) = runs
        same_cache(cache_on, cache_off)
        same_hybrid(hybrid_on, hybrid_off)
        assert all(np.array_equal(a, b) for a, b in zip(on, off))

    def test_a_cacheless_call_with_gradients_on_records_a_graph(self, world):
        llama = world["target"].llama
        out = llama.forward(np.asarray([FEED]))
        with no_grad():
            same_output(out, llama.forward(np.asarray([FEED])))


class TestTargetForward:
    def test_prefill(self, world, spec):                             # (a)
        (cache_s, logits_s), (cache_f, logits_f) = spec.both(lambda: prefill(world))
        assert np.array_equal(logits_s, logits_f)
        same_cache(cache_s, cache_f)
        assert cache_s.segments == cache_f.segments

    @pytest.mark.parametrize("cache_cls", [None, ReferenceKVCache],
                             ids=["arena", "reference"])
    def test_verify_feed_and_cache_afterwards(self, world, monkeypatch, cache_cls,  # (b)
                                              spec):
        if cache_cls is not None:
            monkeypatch.setattr(llama_mod, "KVCache", cache_cls)

        def build():
            cache, _ = prefill(world)
            return cache, world["target"].decode(np.asarray([FEED]), cache)

        (cache_s, out_s), (cache_f, out_f) = spec.both(build)
        if cache_cls is not None:
            assert isinstance(cache_f, cache_cls)
        same_output(out_s, out_f)
        same_cache(cache_s, cache_f)
        # ... and after the rejected tail is rolled back and decoding resumes
        for cache in (cache_s, cache_f):
            cache.truncate(cache.seq_len - 2)
        with spec.recording():
            out_s = world["target"].decode(np.asarray([[FEED[0]]]), cache_s)
        with no_grad():
            out_f = world["target"].decode(np.asarray([[FEED[0]]]), cache_f)
        same_output(out_s, out_f)
        same_cache(cache_s, cache_f)

    def test_one_token_step(self, world, spec):                      # (c)
        def build():
            cache, _ = prefill(world)
            return cache, world["target"].decode(np.asarray([[FEED[0]]]), cache)

        (cache_s, out_s), (cache_f, out_f) = spec.both(build)
        assert out_f.logits.shape[1] == 1     # the M = 1 gemv case
        same_output(out_s, out_f)
        same_cache(cache_s, cache_f)

    def test_tree_feed(self, world, monkeypatch, spec):              # (d)
        # the root path anchor -> node 0 -> node 2 -> node 3 skips node 1,
        # so its fed rows are not a prefix of the feed
        rows = np.asarray([0, 1, 3, 4])
        n_prefix = len(world["prompts"][0]) + world["target"].n_vision_tokens

        def build():
            cache, _ = prefill(world)
            positions = TREE.feed_positions(cache.next_position())
            assert (np.diff(positions) < 0).any()       # non-monotone
            out, = world["target"].decode_batch(      # one row, as a solo verify
                [np.asarray([FEED[0], *TREE.tokens])], [cache], position_rows=[positions],
                extra_blocked_rows=[tree_extra_blocked(TREE.parents, cache.seq_len)],
            )
            assert cache.seq_len == n_prefix + 1 + TREE.n_nodes
            cache.keep_rows(n_prefix, rows)
            return cache, out

        for cache_cls in (KVCache, ReferenceKVCache):
            monkeypatch.setattr(llama_mod, "KVCache", cache_cls)
            (cache_s, out_s), (cache_f, out_f) = spec.both(build)
            assert isinstance(cache_f, cache_cls)
            same_output(out_s, out_f)
            same_cache(cache_s, cache_f)
            assert np.array_equal(cache_f.positions, np.arange(n_prefix + len(rows)))

    def test_dense_batch(self, world, spec):                         # (h)
        width = min(len(p) for p in world["prompts"])
        images = np.stack([s.image for s in world["samples"]])
        text = np.stack([p[:width] for p in world["prompts"]])
        out_s, out_f = spec.both(lambda: world["target"].forward_train(images, text))
        assert out_f.logits.shape[0] == len(world["samples"]) > 1
        same_output(out_s, out_f)

    def test_dense_batch_through_a_cache(self, world, spec):
        width = min(len(p) for p in world["prompts"])
        text = np.stack([p[:width] for p in world["prompts"]])
        llama = world["target"].llama

        def build():
            cache = llama.new_cache()
            llama.forward(text[:, :-2], cache=cache)
            return cache, llama.forward(text[:, -2:], cache=cache)

        (cache_s, out_s), (cache_f, out_f) = spec.both(build)
        same_output(out_s, out_f)
        same_cache(cache_s, cache_f)

    @pytest.mark.parametrize("cache_cls", [None, ReferenceKVCache],
                             ids=["arena", "reference"])
    def test_packed_rows_equal_the_spec_row_by_row(self, world, monkeypatch, cache_cls,
                                                   spec):
        if cache_cls is not None:
            monkeypatch.setattr(llama_mod, "KVCache", cache_cls)
        feeds = [np.asarray([FEED]), np.asarray([FEED[:2]])]
        made = []
        with spec.recording():
            for i, feed in enumerate(feeds):
                cache, _ = prefill(world, i)
                made.append((cache, world["target"].decode(feed, cache)))
        with no_grad():
            caches, first = world["target"].prefill_batch(
                [world["samples"][i].image for i in range(2)],
                [world["prompts"][i] for i in range(2)],
            )
            outs = world["target"].decode_batch(feeds, caches)
        for i, ((cache_s, out_s), cache_f, out_f) in enumerate(zip(made, caches, outs)):
            same_output(out_s, out_f)
            same_cache(cache_s, cache_f)
            assert np.array_equal(first[i], prefill(world, i)[1])

    def test_the_prefill_row_budget_changes_no_bit(self, smoke_zoo, world, monkeypatch):
        # 16 zoo requests, one of them longer than the budget on its own
        target = world["target"]
        tokenizer = smoke_zoo.tokenizer()
        samples = make_dataset("coco-sim", 16, seed=5).samples
        images = [s.image for s in samples]
        prompts = [encode_prompt(tokenizer, s) for s in samples]
        prompts[5] = np.resize(prompts[5], llava_mod.PREFILL_ROWS)
        forwards = []
        infer = llama_mod.MiniLlama._infer_rows

        def count(self, x, *args):
            forwards.append(x.shape[1])
            return infer(self, x, *args)

        monkeypatch.setattr(llama_mod.MiniLlama, "_infer_rows", count)
        budgeted = target.prefill_batch(images, prompts)
        groups = list(forwards)
        monkeypatch.setattr(llava_mod, "PREFILL_ROWS", 1 << 30)
        whole = target.prefill_batch(images, prompts)
        # several groups, each within the budget unless it is the long request alone
        n_vis = target.n_vision_tokens
        assert len(groups) > 2 and sum(groups) == forwards[-1]
        assert n_vis + len(prompts[5]) in groups
        assert all(n <= llava_mod.PREFILL_ROWS for n in groups if n != n_vis + len(prompts[5]))
        assert len(budgeted[0]) == len(whole[1]) == 16
        for cache_b, logits_b, cache_w, logits_w in zip(*budgeted, *whole):
            same_cache(cache_w, cache_b)
            assert cache_w.segments == cache_b.segments
            assert np.array_equal(logits_w, logits_b)

    @pytest.mark.parametrize("cache_cls", [None, ReferenceKVCache],
                             ids=["arena", "reference"])
    def test_packed_prefill_reads_new_kv_back_from_the_caches(self, world, monkeypatch,
                                                              cache_cls, spec):
        if cache_cls is not None:
            monkeypatch.setattr(llama_mod, "KVCache", cache_cls)
        target, llama = world["target"], world["target"].llama
        rows = [target.build_input_embeds(s.image[None], p[None]).data
                for s, p in zip(world["samples"], world["prompts"])]
        positions = [np.arange(x.shape[1]) for x in rows]
        made = []
        with spec.recording():
            for x, pos in zip(rows, positions):
                cache = llama.new_cache()
                made.append((cache, llama.forward_embeds(Tensor(x), pos, cache=cache)))
        caches = [llama.new_cache() for _ in rows]
        with no_grad():
            outs = llama.forward_packed_embeds(
                Tensor(np.concatenate(rows, axis=1)), positions, caches)
        for (cache_s, out_s), cache_f, out_f in zip(made, caches, outs):
            same_output(out_s, out_f)
            same_cache(cache_s, cache_f)

    def test_no_tensor_is_built_until_an_output_is_read(self, world, tensors_built):
        cache, _ = prefill(world)
        llama = world["target"].llama
        x = llama.embed_tokens(np.asarray([FEED]))
        del tensors_built[:]
        with no_grad():
            out = llama.forward_embeds(
                x, cache.next_position() + np.arange(len(FEED)), cache=cache
            )
        assert not tensors_built
        assert out.logits.shape == (1, len(FEED), llama.config.vocab_size)
        assert len(tensors_built) == 1


class TestDraftForward:
    @staticmethod
    def _hybrid(world, hybrid_cls=HybridKVCache, i=0):
        cache, logits = prefill(world, i)
        hybrid = build_context(world["head"], cache, hybrid_cls)
        return hybrid, cache.next_position(), int(np.argmax(logits[0]))

    @pytest.mark.parametrize("flags", ABLATIONS, ids=["plain", "no-image", "no-text"])
    @pytest.mark.parametrize("hybrid_cls", [HybridKVCache, ReferenceHybridKVCache],
                             ids=["arena", "reference"])
    def test_step(self, world, flags, hybrid_cls, spec):             # (f)
        head = world["head"].ablate_kv(**flags)

        def build():
            hybrid, pos, token = self._hybrid(world, hybrid_cls)
            rows = []
            for step in range(3):
                rows.append(head.step(token, pos + step, hybrid))
                token = FEED[step]
            return hybrid, rows

        (hybrid_s, rows_s), (hybrid_f, rows_f) = spec.both(build)
        for s, f in zip(rows_s, rows_f):
            assert s.dtype == f.dtype and np.array_equal(s, f)
        same_hybrid(hybrid_s, hybrid_f)

    @pytest.mark.parametrize("flags", ABLATIONS, ids=["plain", "no-image", "no-text"])
    def test_tree_step(self, world, flags, spec):                    # (g)
        head = world["head"].ablate_kv(**flags)
        # (token, depth, ancestor rows): rows 0-1 attend the whole draft
        # lane (the chain case); row 2 is row 1's sibling and row 3 its
        # child, so both select a strict subset
        plan = [(None, 0, ()), (5, 1, (0,)), (9, 1, (0,)), (7, 2, (0, 2))]

        def build():
            hybrid, pos, first = self._hybrid(world)
            rows, whole_segment = [], []
            for token, depth, ancestors in plan:
                whole_segment.append(list(ancestors) == list(range(hybrid.draft_len)))
                rows.append(head.step(
                    first if token is None else token, pos + depth, hybrid,
                    ancestor_rows=ancestors,
                ))
            assert whole_segment == [True, True, False, False]
            return hybrid, rows

        (hybrid_s, rows_s), (hybrid_f, rows_f) = spec.both(build)
        for s, f in zip(rows_s, rows_f):
            assert np.array_equal(s, f)
        same_hybrid(hybrid_s, hybrid_f)

    @pytest.mark.parametrize("flags", ABLATIONS, ids=["plain", "no-image", "no-text"])
    def test_packed_rows_equal_the_spec_row_by_row(self, world, flags, spec):
        head = world["head"].ablate_kv(**flags)

        def step(hybrid, pos, first, node):
            token, depth, ancestors = node
            return head.step(first if token is None else token, pos + depth, hybrid,
                             ancestor_rows=ancestors)

        def drafted(i, plan):
            hybrid, pos, first = self._hybrid(world, i=i)
            for node in plan:
                step(hybrid, pos, first, node)
            return hybrid, pos, first

        for case in PACKED_CASES:
            made = []
            with spec.recording() as graphs:
                for i, (plan, node) in enumerate(case):
                    hybrid, pos, first = drafted(i, plan)
                    made.append((hybrid, step(hybrid, pos, first, node)))
            assert all(logits.requires_grad for logits in graphs)
            with no_grad():
                fresh = [drafted(i, plan) for i, (plan, _) in enumerate(case)]
                rows = head.step_packed(
                    [first if token is None else token
                     for (_, _, first), (_, (token, _, _)) in zip(fresh, case)],
                    [pos + depth for (_, pos, _), (_, (_, depth, _)) in zip(fresh, case)],
                    [hybrid for hybrid, _, _ in fresh],
                    ancestor_rows=[ancestors for _, (_, _, ancestors) in case],
                )
            for (hybrid_s, row_s), (hybrid_f, _, _), row_f in zip(made, fresh, rows):
                assert np.array_equal(row_s, row_f)
                same_hybrid(hybrid_s, hybrid_f)

    def test_no_tensor_is_built(self, world, tensors_built):
        head = world["head"]
        hybrid, pos, token = self._hybrid(world)
        del tensors_built[:]
        with no_grad():
            head.step(token, pos, hybrid)
            head.step(FEED[0], pos + 1, hybrid, ancestor_rows=(0,))
            head.step_packed([FEED[1]], [pos + 2], [hybrid])
        assert not tensors_built and hybrid.draft_len == 3


class TestOneCopyOfEachKVRow:
    """A forward that writes the caches keeps no second copy of the rows.

    Under tracemalloc a 4-request ``prefill_batch`` and the packed
    ``decode_batch`` after it retain, beside what their caches allocated,
    only what their row outputs hold: the final-norm hidden states and the
    logits.  Keeping any layer's fresh K/V beside the caches holds one
    more K/V pair per layer kept.
    """

    SLACK = 64 << 10     # Python objects: caches, arenas, cached views, row wrappers

    def test_prefill_and_decode_batch_retain_only_the_hidden_states_and_logits(
            self, world, monkeypatch):
        target = world["target"]
        config = target.llama.config
        held = []
        infer = llama_mod.MiniLlama._infer_rows

        def keep(self, *args):      # prefill_batch drops its row outputs; hold them
            outs = infer(self, *args)
            held.append(outs)
            return outs

        monkeypatch.setattr(llama_mod.MiniLlama, "_infer_rows", keep)
        samples = [*world["samples"], world["samples"][0]]
        images = [s.image for s in samples]
        prompts = [*world["prompts"], world["prompts"][0]]
        feeds = [np.asarray([FEED]), np.asarray([FEED[::-1]]),
                 np.asarray([FEED[1:]]), np.asarray([FEED[:2]])]

        def outputs(n_tokens):
            # final-norm hidden (tokens x dim) and the logits
            return 8 * n_tokens * (config.dim + config.vocab_size)

        def traced(call):
            tracemalloc.start()
            try:
                out = call()
                retained, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return out, retained

        with no_grad():
            warm, _ = target.prefill_batch(images, prompts)   # operands, RoPE tables
            target.decode_batch(feeds, warm)
            del warm, held[:]
            (caches, _), prefill_held = traced(lambda: target.prefill_batch(images, prompts))
            before = [c.footprint()[0] for c in caches]
            outs, decode_held = traced(lambda: target.decode_batch(feeds, caches))
        after = [c.footprint()[0] for c in caches]

        n_prefill = sum(target.n_vision_tokens + len(p) for p in prompts)
        expected = sum(before) + outputs(n_prefill)
        assert expected <= prefill_held <= expected + self.SLACK
        # a cache that relocated holds a fresh buffer; one that did not, nothing new
        grown = sum(a for a, b in zip(after, before) if a != b)
        expected = grown + outputs(sum(f.shape[1] for f in feeds))
        assert expected <= decode_held <= expected + self.SLACK
        assert len(outs) == 4


CACHES = [(HybridKVCache, None), (ReferenceHybridKVCache, ReferenceKVCache)]


class TestPrefillThroughTheProjector:
    """Vision tower -> connector -> LM prefill -> ``build_context`` (projector)."""

    @staticmethod
    def _context(world, cache, hybrid_cls):
        return build_context(world["head"], cache, hybrid_cls)

    def test_vision_tower_and_connector(self, world):
        images = np.stack([s.image for s in world["samples"]])
        target = world["target"]
        spec = target.encode_image(images)          # no cache: the Module path
        with no_grad():
            fast = target.encode_image(images)
        assert spec.requires_grad and not fast.requires_grad
        assert np.array_equal(spec.data, fast.data)
        raw = target.connector._infer_rows(target.vision._infer_rows(images))
        assert np.array_equal(spec.data, raw)

    @pytest.mark.parametrize("hybrid_cls, cache_cls", CACHES, ids=["arena", "reference"])
    @pytest.mark.parametrize("width", [1, 3], ids=["solo", "packed3"])
    def test_prefill_and_context(self, world, monkeypatch, width, hybrid_cls, cache_cls,
                                 spec):
        if cache_cls is not None:
            monkeypatch.setattr(llama_mod, "KVCache", cache_cls)
        made = []
        with spec.recording() as graphs:
            for i in range(width):
                cache, logits = prefill(world, i)
                made.append((cache, logits, self._context(world, cache, hybrid_cls)))
        assert len(graphs) == width and all(logits.requires_grad for logits in graphs)
        with no_grad():
            if width == 1:
                solo = [prefill(world)]
            else:
                caches, logit_rows = world["target"].prefill_batch(
                    [s.image for s in world["samples"][:width]], world["prompts"][:width])
                solo = list(zip(caches, logit_rows))
            fast = [(c, l, self._context(world, c, hybrid_cls)) for c, l in solo]
        for (cache_s, logits_s, hybrid_s), (cache_f, logits_f, hybrid_f) in zip(made, fast):
            if cache_cls is not None:
                assert isinstance(cache_f, cache_cls)
            assert np.array_equal(logits_s, logits_f)
            same_cache(cache_s, cache_f)
            assert cache_s.segments == cache_f.segments
            same_hybrid(hybrid_s, hybrid_f)

    def test_prefill_batch_builds_no_tensor(self, world, tensors_built):
        del tensors_built[:]
        world["target"].prefill_batch(
            [s.image for s in world["samples"]], world["prompts"])
        assert not tensors_built

    def test_self_encode(self, world):                # the Figure 3 context encoder
        head = world["head"]
        ids = np.asarray(FEED)
        positions = 40 + np.arange(len(ids))
        _, k_s, v_s = head.qkv(head.attn_norm(head.embed(ids[None])), positions)
        k_f, v_f = head.self_encode(ids, positions)
        assert np.array_equal(k_s.data, k_f) and np.array_equal(v_s.data, v_f)
