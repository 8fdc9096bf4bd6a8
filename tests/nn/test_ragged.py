"""Cu-seqlen offsets, the tree mask, and the packing-stability contract.

``TestPackingStability`` pins the empirical BLAS properties the packed
serving paths depend on (see the ``repro.nn.ragged`` module docstring):
row stability under M >= 2 packing, the M == 1 gemv divergence that
forbids packing lone rows, and the lockstep ``(B, 1, K)`` identity that
the draft path uses instead.  If any of these ever fails on a new BLAS,
the packed engine paths must be re-audited before trusting token
identity.
"""

import numpy as np
import pytest

from repro.nn.ragged import cu_seqlens, row_extents, tree_blocked


class TestCuSeqlens:
    def test_offsets(self):
        cu = cu_seqlens([3, 1, 4])
        assert cu.dtype == np.int64
        assert cu.tolist() == [0, 3, 4, 8]

    def test_empty_batch(self):
        assert cu_seqlens([]).tolist() == [0]

    def test_row_extents(self):
        assert row_extents(cu_seqlens([2, 5])) == [(0, 2), (2, 7)]


class TestTreeBlocked:
    def test_chain_is_strict_upper_triangle(self):
        # A linear chain admits every earlier feed row -> exactly the
        # causal mask of a contiguous verify feed.
        blocked = tree_blocked([-1, 0, 1, 2])
        assert np.array_equal(blocked, np.triu(np.ones((5, 5), dtype=bool), k=1))

    def test_branching_example(self):
        #         anchor
        #        /      \
        #      n0        n2
        #      |
        #      n1
        blocked = tree_blocked([-1, 0, -1])
        # Every row sees itself and the anchor.
        assert not blocked.diagonal().any()
        assert not blocked[:, 0].any()
        # n1 (feed row 2) sees its parent n0 but not sibling branch n2.
        assert not blocked[2, 1] and blocked[2, 3]
        # n2 (feed row 3) is a fresh branch off the anchor: blocked from n0/n1.
        assert blocked[3, 1] and blocked[3, 2]
        # The anchor row never looks forward into the tree.
        assert blocked[0, 1:].all()

    def test_single_node(self):
        assert np.array_equal(
            tree_blocked([-1]), np.array([[False, True], [False, False]])
        )

    def test_rejects_non_dfs_parents(self):
        with pytest.raises(ValueError):
            tree_blocked([-1, 1])       # parent must precede node
        with pytest.raises(ValueError):
            tree_blocked([0])           # node 0 cannot have itself as parent
        with pytest.raises(ValueError):
            tree_blocked([-2])          # below the anchor sentinel


class TestPackingStability:
    """Empirical BLAS contract behind bitwise-exact packing (float32)."""

    @pytest.mark.parametrize("k", [16, 64, 256])
    def test_rows_stable_under_packing(self, rng, k):
        # row r of (M, K) @ (K, N) is bitwise independent of M for M >= 2
        w = rng.standard_normal((k, 32)).astype(np.float32)
        x = rng.standard_normal((8, k)).astype(np.float32)
        full = x @ w
        for m in range(2, 9):
            assert np.array_equal((x[:m] @ w)[:m], full[:m]), f"M={m} K={k}"

    def test_lone_row_takes_gemv_kernel(self, rng):
        # the M == 1 product (gemv) diverges bitwise from the same row
        # inside an M >= 2 product (gemm) once K is large; this is WHY
        # single-token draft steps must never be packed into one matrix
        k = 256
        w = rng.standard_normal((k, 32)).astype(np.float32)
        x = rng.standard_normal((4, k)).astype(np.float32)
        gemv = x[:1] @ w
        gemm_row = (x @ w)[:1]
        assert np.allclose(gemv, gemm_row)
        assert not np.array_equal(gemv, gemm_row), (
            "gemv == gemm bitwise: the lockstep draft path is then "
            "unnecessary but not incorrect — re-audit before relying on it"
        )

    @pytest.mark.parametrize("k", [64, 256])
    def test_lockstep_matches_solo_gemv(self, rng, k):
        # np.matmul((B, 1, K), (K, N)) loops the batch axis, so each
        # slice is bitwise equal to its solo (1, K) @ (K, N) call
        w = rng.standard_normal((k, 32)).astype(np.float32)
        x = rng.standard_normal((5, 1, k)).astype(np.float32)
        lockstep = np.matmul(x, w)
        for b in range(5):
            assert np.array_equal(lockstep[b], x[b] @ w), f"B-slice {b} K={k}"
