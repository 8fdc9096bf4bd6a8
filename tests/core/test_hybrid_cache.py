"""Hybrid KV cache tests: segments, masks, draft lifecycle."""

import numpy as np
import pytest

from repro.core.hybrid_cache import SEGMENT_TEXT, SEGMENT_VISION, HybridKVCache
from repro.errors import ShapeError


def kv(n, heads=2, dh=4, seed=0):
    gen = np.random.default_rng(seed)
    return (
        gen.standard_normal((1, heads, n, dh)).astype(np.float32),
        gen.standard_normal((1, heads, n, dh)).astype(np.float32),
    )


@pytest.fixture()
def cache():
    return HybridKVCache(n_heads=2, head_dim=4)


class TestAppend:
    def test_context_grows(self, cache):
        k, v = kv(3)
        cache.append_context(k, v, np.arange(3), SEGMENT_VISION)
        cache.append_context(*kv(2, seed=1), positions=np.array([10, 11]), segment=SEGMENT_TEXT)
        assert cache.context_len == 5
        assert cache.seq_len == 5
        assert cache.segment_counts() == (3, 2)

    def test_draft_grows_and_clears(self, cache):
        cache.append_draft(*kv(2), positions=np.array([5, 6]))
        assert cache.draft_len == 2
        cache.clear_draft()
        assert cache.draft_len == 0
        assert cache.seq_len == 0

    def test_context_with_live_draft_rejected(self, cache):
        cache.append_context(*kv(3), positions=np.arange(3), segment=SEGMENT_VISION)
        cache.append_draft(*kv(2, seed=1), positions=np.array([3, 4]))
        before = [a.copy() for a in cache.gather()]
        with pytest.raises(ShapeError, match="clear_draft"):
            cache.append_context(*kv(1, seed=2), positions=np.array([5]), segment=SEGMENT_TEXT)
        assert (cache.context_len, cache.draft_len) == (3, 2)
        for old, new in zip(before, cache.gather()):
            np.testing.assert_array_equal(old, new)

    def test_bad_segment(self, cache):
        with pytest.raises(ShapeError):
            cache.append_context(*kv(1), positions=np.array([0]), segment=9)

    def test_shape_validation(self, cache):
        k, v = kv(2)
        with pytest.raises(ShapeError):
            cache.append_context(k, v[:, :, :1], np.arange(2), SEGMENT_TEXT)
        with pytest.raises(ShapeError):
            cache.append_context(k, v, np.arange(3), SEGMENT_TEXT)
        with pytest.raises(ShapeError):
            cache.append_context(
                np.zeros((1, 3, 2, 4)), np.zeros((1, 3, 2, 4)), np.arange(2), SEGMENT_TEXT
            )


class TestGather:
    def fill(self, cache):
        cache.append_context(*kv(3, seed=1), positions=np.arange(3), segment=SEGMENT_VISION)
        cache.append_context(*kv(2, seed=2), positions=np.array([3, 4]), segment=SEGMENT_TEXT)
        cache.append_draft(*kv(2, seed=3), positions=np.array([5, 6]))

    def test_concatenation_order(self, cache):
        self.fill(cache)
        k, v, pos, blocked = cache.gather()
        assert k.shape == (1, 2, 7, 4)
        assert np.array_equal(pos, [0, 1, 2, 3, 4, 5, 6])
        assert not blocked.any()

    def test_disable_image(self, cache):
        self.fill(cache)
        _, _, _, blocked = cache.gather(disable_image_kv=True)
        assert blocked[:3].all()
        assert not blocked[3:].any()

    def test_disable_text(self, cache):
        self.fill(cache)
        _, _, _, blocked = cache.gather(disable_text_kv=True)
        assert not blocked[:3].any()
        assert blocked[3:5].all()
        assert not blocked[5:].any()  # draft segment never blocked

    def test_disable_both(self, cache):
        self.fill(cache)
        _, _, _, blocked = cache.gather(disable_image_kv=True, disable_text_kv=True)
        assert blocked[:5].all()
        assert not blocked[5:].any()

    def test_empty_cache_gather(self, cache):
        k, v, pos, blocked = cache.gather()
        assert k.shape == (1, 2, 0, 4)
        assert pos.size == 0
