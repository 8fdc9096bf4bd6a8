"""Unit tests for the KV arena storage layer (``repro.core.kv_arena``).

Covers the arena contract directly (growth, truncate, cached views,
stats accounting) plus the zero-copy regression
guarantees for the two caches built on top: ``KVCache.layer`` and
``HybridKVCache.gather`` must return *views*, invalidated only by
mutation.
"""

import numpy as np
import pytest

from repro.core.hybrid_cache import HybridKVCache
from repro.core.kv_arena import MIN_CAPACITY, Arena, ArenaStats, combined_stats
from repro.errors import ShapeError
from repro.models.kv_cache import KVCache


def _tokens(n, h=2, dh=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((1, h, n, dh)).astype(np.float32)


def _arena(stats=None):
    return Arena((1, 2, 0, 4), axis=2, dtype=np.float32, stats=stats)


class TestArena:
    def test_append_and_view(self):
        a = _arena()
        x = _tokens(3)
        a.append(x)
        assert len(a) == 3
        np.testing.assert_array_equal(a.view(), x)

    def test_append_validates_off_axis_shape(self):
        a = _arena()
        a.append(_tokens(1))
        with pytest.raises(ShapeError):
            a.append(np.zeros((1, 3, 1, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            a.append(np.zeros((1, 2, 4), dtype=np.float32))

    def test_growth_is_amortized_doubling(self):
        stats = ArenaStats()
        a = _arena(stats)
        for _ in range(MIN_CAPACITY + 1):
            a.append(_tokens(1))
        assert a.capacity >= MIN_CAPACITY * 2
        assert stats.grow_events >= 1
        # Doubling: growth count is logarithmic, not linear, in appends.
        assert stats.grow_events <= 8

    def test_floor_sizes_a_small_first_buffer(self):
        # the draft lane's sizing: a block fits, an overflow doubles from the minimum
        a = Arena((1, 2, 0, 4), axis=2, dtype=np.float64, capacity=16)
        assert a.capacity == 16
        a.append(_tokens(17))
        assert a.capacity == MIN_CAPACITY
        lane = HybridKVCache(2, 4, source=KVCache(1))     # no owned source, no vision
        assert lane.footprint() == (2 * 16 * 2 * 4 * 8, 0)

    def test_truncate_is_pointer_only(self):
        a = _arena()
        a.append(_tokens(6))
        buf_before = a.view().base
        a.truncate(2)
        assert len(a) == 2
        assert a.view().base is buf_before
        with pytest.raises(ShapeError):
            a.truncate(3)    # cannot grow via truncate
        with pytest.raises(ShapeError):
            a.truncate(-1)

    def test_append_after_truncate_overwrites(self):
        a = _arena()
        a.append(_tokens(4, seed=1))
        a.truncate(2)
        fresh = _tokens(3, seed=2)
        a.append(fresh)
        assert len(a) == 5
        np.testing.assert_array_equal(a.view()[:, :, 2:, :], fresh)

    def test_view_is_cached_until_mutation(self):
        a = _arena()
        a.append(_tokens(2))
        v1 = a.view()
        assert a.view() is v1            # identity-stable between mutations
        assert v1.base is not None       # a view into the arena buffer, not a copy
        a.append(_tokens(1))
        assert a.view() is not v1        # append invalidates
        v2 = a.view()
        a.truncate(1)
        assert a.view() is not v2        # truncate invalidates

    def test_stats_accounting(self):
        stats = ArenaStats()
        a = _arena(stats)
        x = _tokens(2)
        a.append(x)
        assert stats.bytes_copied >= x.nbytes
        assert stats.peak_tokens == 2
        a.truncate(0)
        assert stats.peak_tokens == 2      # peak is monotone

    def test_footprint_is_capacity_and_live_rows(self):
        kv = KVCache(n_layers=1)
        kv.append(0, _tokens(3), _tokens(3))
        kv.extend_positions(np.arange(3))
        row = _tokens(1).nbytes            # one (1, 2, 1, 4) float32 K or V row
        assert kv.footprint() == (2 * MIN_CAPACITY * row + MIN_CAPACITY * 8,
                                  2 * 3 * row + 3 * 8)

    def test_combined_stats(self):
        kv = KVCache(n_layers=1)
        kv.append(0, _tokens(2), _tokens(2))
        hybrid = HybridKVCache(n_heads=2, head_dim=4)
        hybrid.append_draft(_tokens(1), _tokens(1))
        total = combined_stats(kv, hybrid, None, object())
        assert total.bytes_copied == (
            kv.arena_stats().bytes_copied + hybrid.arena_stats().bytes_copied
        )
        assert total.peak_tokens == max(
            kv.arena_stats().peak_tokens, hybrid.arena_stats().peak_tokens
        )


class TestKVCacheViews:
    """Regression: ``layer``/``positions`` are views, not copies."""

    def test_layer_returns_cached_views(self):
        cache = KVCache(n_layers=2)
        for layer in range(2):
            cache.append(layer, _tokens(3), _tokens(3))
        cache.extend_positions(np.arange(3))
        k1, v1 = cache.layer(1)
        k2, v2 = cache.layer(1)
        assert k1 is k2 and v1 is v2     # no per-call allocation
        assert k1.base is not None       # aliases arena storage
        assert cache.positions is cache.positions

    def test_mutation_invalidates_views(self):
        cache = KVCache(n_layers=1)
        cache.append(0, _tokens(3), _tokens(3))
        k1, _ = cache.layer(0)
        cache.append(0, _tokens(1), _tokens(1))
        k2, _ = cache.layer(0)
        assert k2 is not k1
        assert k2.shape[2] == 4
        cache.truncate(2)
        k3, _ = cache.layer(0)
        assert k3 is not k2
        assert k3.shape[2] == 2


class TestFirstAppendSizing:
    """A layer arena is sized from its first append, by the growth rule."""

    PREFILL = MIN_CAPACITY + 6       # like a real prefill: just past MIN_CAPACITY

    def test_prefill_sized_first_append_never_relocates(self):
        cache = KVCache(n_layers=2)
        prefill = _tokens(self.PREFILL)
        for layer in range(2):
            cache.append(layer, prefill, prefill)
        stats = cache.arena_stats()
        assert stats.grow_events == 0
        assert stats.bytes_copied == 4 * prefill.nbytes
        assert cache._keys[0].capacity == 2 * MIN_CAPACITY   # doubling rule, not exact fit

    def test_decode_copies_only_the_tokens_it_appends(self):
        # prefill + 48 generated tokens stays inside the buffer the first
        # append sized, so no byte is copied twice
        cache = KVCache(n_layers=1)
        prefill, token = _tokens(self.PREFILL), _tokens(1)
        cache.append(0, prefill, prefill)
        for _ in range(48):
            cache.append(0, token, token)
        stats = cache.arena_stats()
        assert stats.grow_events == 0
        assert stats.bytes_copied == 2 * (prefill.nbytes + 48 * token.nbytes)

    def test_small_first_append_keeps_the_minimum(self):
        cache = KVCache(n_layers=1)
        cache.append(0, _tokens(3), _tokens(3))
        assert cache._keys[0].capacity == MIN_CAPACITY


class TestHybridGatherViews:
    """Regression: ``gather`` is zero-copy — views of the lane and the source."""

    @staticmethod
    def _cache():
        source = KVCache(n_layers=2)
        for layer in range(2):
            source.append(layer, _tokens(5, seed=layer), _tokens(5, seed=layer))
        source.extend_positions(np.arange(5))
        return HybridKVCache(n_heads=2, head_dim=4, source=source, first_row=2)

    def test_gather_returns_cached_views(self):
        cache = self._cache()
        (k_txt, _), (k_dft, _) = cache.gather()
        assert np.shares_memory(k_txt, cache.source.last_layer()[0])
        assert k_txt.shape[2] == 3
        assert cache.gather()[1][0] is k_dft      # the lane's view is cached
        assert k_dft.base is not None

    def test_mutation_invalidates_gather(self):
        cache = self._cache()
        k1 = cache.gather()[1][0]
        cache.append_draft(_tokens(1), _tokens(1))
        (k_txt, _), (k2, _) = cache.gather(disable_image_kv=True)
        assert k2 is not k1
        assert k2.shape[2] == 1
        cache.source.truncate(4)                  # the source's mutations show through
        assert cache.gather()[0][0].shape[2] == 2
        cache.clear_draft()
        assert cache.gather()[-1][0].shape[2] == 0
