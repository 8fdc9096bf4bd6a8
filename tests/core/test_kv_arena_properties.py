"""Property tests: arena-backed caches vs. the concatenate reference spec.

Random interleavings of append / truncate / keep_rows / rollback /
gather are driven through the arena-backed
:class:`~repro.models.kv_cache.KVCache` and
:class:`~repro.core.hybrid_cache.HybridKVCache` in lock-step with the
concatenate-based reference implementations from ``repro.core.reference``;
every observable array must stay element-identical at every step.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hybrid_cache import HybridKVCache
from repro.core.reference import ReferenceHybridKVCache, ReferenceKVCache
from repro.models.kv_cache import KVCache

N_LAYERS = 2
N_HEADS = 2
HEAD_DIM = 4

kv_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 5)),
        st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
        # a verified block's commit: where its anchor row sits, and which
        # of the rows after the anchor its accepted path keeps (bit j-1)
        st.tuples(st.just("keep"), st.tuples(st.floats(0.0, 1.0), st.integers(0, 2**12 - 1))),
    ),
    min_size=1,
    max_size=30,
)

# (op, rows, flag): flag picks the ablation the step after the op checks
hybrid_ops = st.lists(
    st.one_of(
        st.tuples(st.just("context"), st.integers(1, 5), st.booleans()),
        st.tuples(st.just("draft"), st.integers(1, 3), st.booleans()),
        st.tuples(st.just("clear"), st.just(0), st.booleans()),
        st.tuples(st.just("gather"), st.just(0), st.booleans()),
    ),
    min_size=1,
    max_size=30,
)


def _block(rng, n):
    k = rng.standard_normal((1, N_HEADS, n, HEAD_DIM)).astype(np.float32)
    v = rng.standard_normal((1, N_HEADS, n, HEAD_DIM)).astype(np.float32)
    return k, v


def _assert_kv_equal(arena: KVCache, ref: ReferenceKVCache):
    assert arena.seq_len == ref.seq_len
    np.testing.assert_array_equal(arena.positions, ref.positions)
    if ref.seq_len:
        for i in range(N_LAYERS):
            for a, b in zip(arena.layer(i), ref.layer(i)):
                np.testing.assert_array_equal(a, b)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), ops=kv_ops)
def test_kv_cache_matches_reference(seed, ops):
    rng = np.random.default_rng(seed)
    arena, ref = KVCache(N_LAYERS), ReferenceKVCache(N_LAYERS)
    pos = 0
    for op, arg in ops:
        if op == "append":
            k, v = _block(rng, arg)
            for layer in range(N_LAYERS):
                arena.append(layer, k, v)
                ref.append(layer, k, v)
            positions = np.arange(pos, pos + arg)
            arena.extend_positions(positions)
            ref.extend_positions(positions)
            pos += arg
        elif op == "truncate":
            new_len = int(round(arg * arena.seq_len))
            arena.truncate(new_len)
            ref.truncate(new_len)
            pos = arena.next_position()
        elif op == "keep" and arena.seq_len:
            where, bits = arg
            start = int(where * (arena.seq_len - 1))   # no segments: the prefix is 0
            rows = np.asarray([0] + [j for j in range(1, arena.seq_len - start)
                                     if bits >> (j - 1) & 1], dtype=np.int64)
            arena.keep_rows(start, rows)
            ref.keep_rows(start, rows)
            pos = arena.next_position()
        _assert_kv_equal(arena, ref)


def _assert_hybrid_equal(arena: HybridKVCache, ref: ReferenceHybridKVCache,
                         disable_image=False, disable_text=False):
    assert (arena.context_len, arena.draft_len, arena.seq_len) == (
        ref.context_len, ref.draft_len, ref.seq_len)
    blocks = arena.gather(disable_image, disable_text)
    expected = ref.gather(disable_image, disable_text)
    assert len(blocks) == len(expected)
    assert sum(k.shape[2] for k, _ in arena.gather()) == arena.seq_len
    for (k, v), (k_ref, v_ref) in zip(blocks, expected):
        np.testing.assert_array_equal(k, k_ref)
        np.testing.assert_array_equal(v, v_ref)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), reads_target=st.booleans(), ops=hybrid_ops)
def test_hybrid_cache_matches_reference(seed, reads_target, ops):
    """Both stores: reading a target cache past its vision rows (AASD),
    or owning the context the head encodes itself (Figure 3)."""
    rng = np.random.default_rng(seed)
    if reads_target:
        n_vision = 3
        source, ref_source = KVCache(1), ReferenceKVCache(1)
        vision = _block(rng, 2)
        stores = [
            cls(N_HEADS, HEAD_DIM, source=src, first_row=n_vision, vision=vision)
            for cls, src in ((HybridKVCache, source), (ReferenceHybridKVCache, ref_source))
        ]
        # the prefill: vision rows, then one prompt row
        for src in (source, ref_source):
            src.append(0, *_block(np.random.default_rng(seed), n_vision + 1))
            src.extend_positions(np.arange(n_vision + 1))
    else:
        stores = [HybridKVCache(N_HEADS, HEAD_DIM), ReferenceHybridKVCache(N_HEADS, HEAD_DIM)]
    arena, ref = stores
    for op, n, flag in ops:
        if op == "context":
            # the engine's order: a verify drops the draft lane, then the
            # committed rows join the context
            k, v = _block(rng, n)
            for store in stores:
                store.clear_draft()
                if reads_target:    # the target's verify commit writes them
                    store.source.append(0, k, v)
                    store.source.extend_positions(store.source.seq_len - n + np.arange(n))
                else:
                    store.append_context(k, v)
        elif op == "draft":
            k, v = _block(rng, n)
            arena.append_draft(k, v)
            ref.append_draft(k, v)
        elif op == "clear":
            arena.clear_draft()
            ref.clear_draft()
        _assert_hybrid_equal(arena, ref, disable_image=flag, disable_text=not flag)
    _assert_hybrid_equal(arena, ref)
    _assert_hybrid_equal(arena, ref, disable_image=True, disable_text=True)
