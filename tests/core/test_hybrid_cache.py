"""Hybrid KV cache tests: blocks, ablations, draft lifecycle, in-place reads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AASDDraftHead, AASDEngine, AASDEngineConfig, DraftHeadConfig
from repro.core.hybrid_cache import HybridKVCache
from repro.core.reference import ReferenceHybridKVCache
from repro.data.tasks import make_dataset
from repro.decoding import CostModel, SamplerConfig, get_profile
from repro.errors import ShapeError
from repro.models.kv_cache import KVCache
from repro.nn.attention import attend_blocks_data, attend_data


def kv(n, heads=2, dh=4, seed=0):
    gen = np.random.default_rng(seed)
    return (
        gen.standard_normal((1, heads, n, dh)),
        gen.standard_normal((1, heads, n, dh)),
    )


@pytest.fixture()
def cache():
    return HybridKVCache(n_heads=2, head_dim=4)


def target_like(n_vision=3, n_text=2):
    """A one-layer cache of ``n_vision`` vision then ``n_text`` text rows."""
    source = KVCache(1)
    source.append(0, *kv(n_vision + n_text, seed=2))
    source.extend_positions(np.arange(n_vision + n_text))
    return source


class TestAppend:
    def test_context_grows(self, cache):
        cache.append_context(*kv(3))
        cache.append_context(*kv(2, seed=1))
        assert cache.context_len == 5
        assert cache.seq_len == 5
        assert cache.source.seq_len == 5

    def test_draft_grows_and_clears(self, cache):
        cache.append_draft(*kv(2))
        assert cache.draft_len == 2
        cache.clear_draft()
        assert cache.draft_len == 0
        assert cache.seq_len == 0

    def test_context_with_live_draft_rejected(self, cache):
        cache.append_context(*kv(3))
        cache.append_draft(*kv(2, seed=1))
        before = [(k.copy(), v.copy()) for k, v in cache.gather()]
        with pytest.raises(ShapeError, match="clear_draft"):
            cache.append_context(*kv(1, seed=2))
        assert (cache.context_len, cache.draft_len) == (3, 2)
        for (k0, v0), (k1, v1) in zip(before, cache.gather()):
            np.testing.assert_array_equal(k0, k1)
            np.testing.assert_array_equal(v0, v1)

    def test_context_of_a_target_reading_store_rejected(self):
        cache = HybridKVCache(2, 4, source=target_like(), first_row=3)
        with pytest.raises(ShapeError, match="target"):
            cache.append_context(*kv(1))

    def test_shape_validation(self):
        # both stores, both appends: K/V must be one (1, n_heads, T, head_dim)
        # pair — an owned source would otherwise size its arena from a bad
        # first append
        k, v = kv(2)
        for cache in (HybridKVCache(2, 4), ReferenceHybridKVCache(2, 4)):
            for append in (cache.append_context, cache.append_draft):
                with pytest.raises(ShapeError):
                    append(k, v[:, :, :1])
                for shape in ((1, 3, 2, 4), (1, 2, 2, 5), (2, 2, 2, 4), (2, 2, 4)):
                    with pytest.raises(ShapeError, match=r"expected \(1, 2, T, 4\)"):
                        append(np.zeros(shape), np.zeros(shape))
            assert (cache.context_len, cache.draft_len) == (0, 0)


class TestGather:
    def fill(self):
        vision = kv(2, seed=1)
        cache = HybridKVCache(2, 4, source=target_like(), first_row=3, vision=vision)
        cache.append_draft(*kv(2, seed=3))
        return cache, vision

    def test_concatenation_order(self):
        # the blocks a step joins under one softmax: vision, text, draft lane
        cache, vision = self.fill()
        (kv_img, vv_img), (k_txt, v_txt), (k_dft, v_dft) = cache.gather()
        assert kv_img is vision[0] and vv_img is vision[1]
        source_k, source_v = cache.source.last_layer()
        np.testing.assert_array_equal(k_txt, source_k[:, :, 3:])
        np.testing.assert_array_equal(v_txt, source_v[:, :, 3:])
        np.testing.assert_array_equal(k_dft, kv(2, seed=3)[0])
        assert k_dft.dtype == np.float64
        assert (cache.context_len, cache.draft_len, cache.seq_len) == (4, 2, 6)

    def test_disable_image(self):
        cache, _ = self.fill()
        blocks = cache.gather(disable_image_kv=True)
        assert [k.shape[2] for k, _ in blocks] == [2, 2]
        assert np.shares_memory(blocks[0][0], cache.source.last_layer()[0])

    def test_disable_text(self):
        cache, vision = self.fill()
        blocks = cache.gather(disable_text_kv=True)
        assert blocks[0][0] is vision[0]
        assert [k.shape[2] for k, _ in blocks] == [2, 2]   # the draft lane always stays

    def test_disable_both(self):
        cache, _ = self.fill()
        (k, v), = cache.gather(disable_image_kv=True, disable_text_kv=True)
        np.testing.assert_array_equal(k, kv(2, seed=3)[0])

    def test_empty_cache_gather(self, cache):
        (k, v), = cache.gather()
        assert k.shape == (1, 2, 0, 4)


class TestBlockAttention:
    """One softmax over the blocks equals attention over their concatenation."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_heads=st.sampled_from([1, 2, 3]),
        sizes=st.tuples(st.integers(0, 6), st.integers(0, 9), st.integers(0, 5)),
        ablation=st.sampled_from([(False, False), (True, False), (False, True), (True, True)]),
        subset=st.integers(0, 2**5 - 1),
        chain=st.booleans(),
    )
    def test_matches_masked_concatenated_attention(self, seed, n_heads, sizes, ablation,
                                                   subset, chain):
        gen = np.random.default_rng(seed)
        n_vision, n_text, n_draft = sizes
        head_dim = 4

        def shape(n):
            return (1, n_heads, n, head_dim)

        vision = (gen.standard_normal(shape(n_vision)), gen.standard_normal(shape(n_vision)))
        source = KVCache(1)
        source.append(0, gen.standard_normal(shape(2 + n_text)),
                      gen.standard_normal(shape(2 + n_text)))
        hybrid = HybridKVCache(n_heads, head_dim, source=source, first_row=2,
                               vision=vision if n_vision else None)
        hybrid.append_draft(gen.standard_normal(shape(n_draft)),
                            gen.standard_normal(shape(n_draft)))
        # a tree node's root path: any subset of the lane, in row order
        rows = None if chain else tuple(r for r in range(n_draft) if subset >> r & 1)
        head = AASDDraftHead(DraftHeadConfig(vocab_size=8, dim=n_heads * head_dim,
                                             n_heads=n_heads, use_kv_projector=False))
        head = head.ablate_kv(*ablation)
        q, k_own, v_own = (gen.standard_normal(shape(1)) for _ in range(3))

        got = attend_blocks_data(q, [*head._attended(hybrid, rows), (k_own, v_own)])

        # the spec: every row concatenated, the left-out ones masked to -1e9
        k_text, v_text = (a[:, :, 2:] for a in source.last_layer())
        (k_lane, v_lane), = hybrid.gather(True, True)
        k_all = np.concatenate([vision[0], k_text, k_lane, k_own], axis=2)
        v_all = np.concatenate([vision[1], v_text, v_lane, v_own], axis=2)
        kept = np.ones(k_all.shape[2], dtype=bool)
        kept[:n_vision] = not ablation[0]
        kept[n_vision:n_vision + n_text] = not ablation[1]
        if rows is not None:
            kept[n_vision + n_text:-1] = np.isin(np.arange(n_draft), rows)
        want = attend_data(q, k_all, v_all, ~kept[None, :])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestDraftReadsTheTargetCache:
    """At every draft phase the text block *is* the target's last layer."""

    @pytest.mark.parametrize("greedy", [True, False], ids=["greedy", "sampled"])
    @pytest.mark.parametrize("tree", [False, True], ids=["chain", "tree"])
    def test_text_block_aliases_the_target_cache(self, smoke_zoo, monkeypatch, tree, greedy):
        target, head = smoke_zoo.target("sim-7b"), smoke_zoo.aasd_head("sim-7b")
        engine = AASDEngine(
            target, head, smoke_zoo.tokenizer(), CostModel(get_profile("sim-7b")),
            AASDEngineConfig(gamma=3, max_new_tokens=24, tree_speculation=tree),
            sampler_config=SamplerConfig(greedy=greedy, seed=3),
        )
        sessions = {}
        seen = []
        step_packed = AASDDraftHead.step_packed

        def spy(self, token_ids, positions, hybrids, *args, **kwargs):
            for hybrid in hybrids:
                cache = sessions[id(hybrid)].target_cache
                n_vision = cache.segments.n_vision
                _, (k_text, v_text), _ = hybrid.gather()
                assert np.shares_memory(k_text, cache.last_layer()[0])
                assert np.shares_memory(v_text, cache.last_layer()[1])
                np.testing.assert_array_equal(k_text, cache.last_layer()[0][:, :, n_vision:])
                assert hybrid.seq_len == (head.config.k_compressed + cache.seq_len
                                          - n_vision + hybrid.draft_len)
                seen.append(hybrid.draft_len)
            return step_packed(self, token_ids, positions, hybrids, *args, **kwargs)

        monkeypatch.setattr(AASDDraftHead, "step_packed", spy)
        for sample in make_dataset("coco-sim", 2, seed=5).samples:
            session = engine.begin(sample)
            sessions[id(session.draft_state)] = session
            while not session.finished:
                engine.step(session)
        assert seen.count(0) >= 2 and max(seen) >= 2   # block openings and deeper steps
