"""KVCache behaviour: append, truncate, segments."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.models.kv_cache import KVCache, Segments


def fill(cache: KVCache, n_tokens: int, n_heads=2, head_dim=4):
    for layer in range(cache.n_layers):
        cache.append(
            layer,
            np.random.default_rng(layer).standard_normal((1, n_heads, n_tokens, head_dim)),
            np.random.default_rng(layer + 10).standard_normal((1, n_heads, n_tokens, head_dim)),
        )
    cache.extend_positions(np.arange(cache.seq_len - n_tokens, cache.seq_len))


class TestBasics:
    def test_bad_layer_count(self):
        with pytest.raises(ValueError):
            KVCache(0)

    def test_empty_state(self):
        cache = KVCache(2)
        assert cache.seq_len == 0
        assert cache.next_position() == 0
        with pytest.raises(ShapeError):
            cache.layer(0)

    def test_append_and_grow(self):
        cache = KVCache(2)
        fill(cache, 4)
        fill(cache, 3)
        assert cache.seq_len == 7
        assert cache.next_position() == 7
        k, v = cache.last_layer()
        assert k.shape == (1, 2, 7, 4)

    def test_positions_tracked(self):
        cache = KVCache(1)
        fill(cache, 5)
        assert np.array_equal(cache.positions, np.arange(5))

    def test_shape_mismatch_kv(self):
        cache = KVCache(1)
        with pytest.raises(ShapeError):
            cache.append(0, np.zeros((1, 2, 3, 4)), np.zeros((1, 2, 3, 5)))

    def test_incompatible_append(self):
        cache = KVCache(1)
        fill(cache, 2)
        with pytest.raises(ShapeError):
            cache.append(0, np.zeros((1, 3, 1, 4)), np.zeros((1, 3, 1, 4)))


class TestTruncate:
    def test_truncates_all_layers(self):
        cache = KVCache(3)
        fill(cache, 6)
        cache.truncate(4)
        assert cache.seq_len == 4
        assert len(cache.positions) == 4
        for layer in range(3):
            assert cache.layer(layer)[0].shape[2] == 4

    def test_truncate_noop(self):
        cache = KVCache(1)
        fill(cache, 3)
        cache.truncate(3)
        assert cache.seq_len == 3

    def test_truncate_beyond_raises(self):
        cache = KVCache(1)
        fill(cache, 3)
        with pytest.raises(ShapeError):
            cache.truncate(5)

    def test_truncate_into_prefix_raises(self):
        cache = KVCache(1)
        fill(cache, 6)
        cache.set_segments(n_vision=4, n_prompt=2)
        with pytest.raises(ShapeError):
            cache.truncate(5)


class TestSegments:
    def test_segment_bookkeeping(self):
        cache = KVCache(1)
        fill(cache, 10)
        cache.set_segments(n_vision=6, n_prompt=3)
        seg = cache.segments
        assert seg.vision == (0, 6)
        assert seg.prompt == (6, 9)
        assert seg.n_vision == 6
        assert seg.n_prompt == 3
        assert seg.prefix_len == 9

    def test_segments_dataclass(self):
        seg = Segments(vision=(0, 4), prompt=(4, 7))
        assert seg.n_vision == 4
        assert seg.prefix_len == 7
