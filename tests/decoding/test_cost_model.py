"""Cost model tests: profiles, the one pricing law, validation.

The law is pinned to the eleven price methods and the two calibrated
profiles it replaced: ``_Oracle`` and ``_ORACLE_PROFILES`` below keep
their text, as a test-only reference.
"""

import math
from dataclasses import dataclass, replace
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.decoding.cost_model import PROFILES, CostModel, get_profile
from repro.errors import ConfigError


# ----------------------------------------------------------------------
# The oracle: the replaced constants and price methods, verbatim.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _OracleProfile:
    name: str
    target_step_ms: float            # one autoregressive target step
    prefill_ms: float                # target prefill (image + prompt)
    verify_base_frac: float          # parallel-verify fixed cost
    verify_per_token_frac: float     # parallel-verify per-token cost
    draft_step_frac: float           # independent 112M draft, one step
    draft_prefill_frac: float        # independent draft, own context prefill
    aasd_step_frac: float            # AASD head step at reference KV length
    aasd_per_kv_token_frac: float    # AASD extra cost per attended KV token
    aasd_reference_kv: int           # KV length included in aasd_step_frac
    projector_ms: float              # one-off KV projector application
    batch_per_seq_frac: float = 0.05        # target forward, per extra sequence
    draft_batch_per_seq_frac: float = 0.02  # AASD head step, per extra sequence
    prefill_batch_frac: float = 0.60        # target prefill, per extra request


_SIM_7B = _OracleProfile(
    name="sim-7b",
    target_step_ms=1000.0 / 31.5,
    prefill_ms=2.0 * (1000.0 / 31.5),
    verify_base_frac=0.40,
    verify_per_token_frac=0.05,
    draft_step_frac=0.25,
    draft_prefill_frac=0.50,
    aasd_step_frac=0.225,
    aasd_per_kv_token_frac=0.0009,
    aasd_reference_kv=48,
    projector_ms=0.20 * (1000.0 / 31.5),
)

_SIM_13B = replace(
    _SIM_7B,
    name="sim-13b",
    target_step_ms=1000.0 / 31.7,
    prefill_ms=2.0 * (1000.0 / 31.7),
    draft_step_frac=0.235,
    aasd_step_frac=0.21,
    projector_ms=0.20 * (1000.0 / 31.7),
)

_ORACLE_PROFILES = {p.name: p for p in (_SIM_7B, _SIM_13B)}


class _Oracle:
    def __init__(self, profile: _OracleProfile) -> None:
        self.profile = profile

    # -- target ---------------------------------------------------------
    def target_prefill(self) -> float:
        return self.profile.prefill_ms

    def target_step(self) -> float:
        return self.profile.target_step_ms

    def target_verify(self, n_tokens: int) -> float:
        if n_tokens <= 0:
            raise ConfigError(f"verify needs at least one token, got {n_tokens}")
        frac = self.profile.verify_base_frac + self.profile.verify_per_token_frac * n_tokens
        return frac * self.profile.target_step_ms

    # -- independent draft (FT/DT-LLaMA, FT/DT-LLaVA) --------------------
    def draft_prefill(self) -> float:
        return self.profile.draft_prefill_frac * self.profile.target_step_ms

    def draft_step(self) -> float:
        return self.profile.draft_step_frac * self.profile.target_step_ms

    def draft_sync(self, n_tokens: int) -> float:
        if n_tokens <= 0:
            return 0.0
        frac = self.profile.draft_step_frac * (0.5 + 0.1 * n_tokens)
        return frac * self.profile.target_step_ms

    # -- AASD speculating module -----------------------------------------
    def projector(self) -> float:
        return self.profile.projector_ms

    def aasd_step(self, kv_len: int) -> float:
        return self.batched_aasd_step((kv_len,))

    # -- batched serving (one forward shared by several requests) ---------
    def batched_prefill(self, n_requests: int) -> float:
        if n_requests <= 0:
            raise ConfigError(f"need at least one request, got {n_requests}")
        scale = 1.0 + self.profile.prefill_batch_frac * (n_requests - 1)
        return scale * self.profile.prefill_ms

    def batched_verify(self, feed_sizes: Sequence[int]) -> float:
        sizes = list(feed_sizes)
        if not sizes:
            raise ConfigError("batched verify needs at least one sequence")
        if any(n <= 0 for n in sizes):
            raise ConfigError(f"verify feeds must be positive, got {sizes}")
        frac = (
            self.profile.verify_base_frac
            + self.profile.verify_per_token_frac * sum(sizes)
            + self.profile.batch_per_seq_frac * (len(sizes) - 1)
        )
        return frac * self.profile.target_step_ms

    def batched_aasd_step(self, kv_lens: Sequence[int]) -> float:
        lens = list(kv_lens)
        if not lens:
            raise ConfigError("batched draft step needs at least one session")
        if any(kv < 0 for kv in lens):
            raise ConfigError(f"kv lengths must be >= 0, got {lens}")
        ref = self.profile.aasd_reference_kv
        extra = sum(max(0, kv - ref) for kv in lens)
        frac = (
            self.profile.aasd_step_frac
            + self.profile.aasd_per_kv_token_frac * extra
            + self.profile.draft_batch_per_seq_frac * (len(lens) - 1)
        )
        return frac * self.profile.target_step_ms


_profiles = st.sampled_from(sorted(PROFILES))
_feeds = st.lists(st.integers(1, 16), min_size=1, max_size=16)
_kv_lens = st.lists(st.integers(0, 200), min_size=1, max_size=16)
_n_requests = st.integers(1, 16)


def _pair(name):
    return CostModel(get_profile(name)), _Oracle(_ORACLE_PROFILES[name])


class TestLawMatchesReplacedMethods:
    """``price`` is bit-equal to the replaced methods for every target
    phase, the head step and the projector, and — the drafter's solo
    prices multiplied out by the old seam — for the independent draft's
    step and prefill.  The self-encoding head's sync reassociates one
    product: bit-equal on sim-7b, within 1 ulp on sim-13b."""

    @settings(max_examples=200, deadline=None)
    @given(_profiles, _feeds)
    def test_target_prefill(self, name, feeds):
        cm, old = _pair(name)
        assert cm.price("prefill", feeds) == old.batched_prefill(len(feeds))
        assert cm.target_prefill() == old.target_prefill()

    @settings(max_examples=50, deadline=None)
    @given(_profiles)
    def test_target_step(self, name):
        cm, old = _pair(name)
        assert cm.price("step", (1,)) == cm.target_step() == old.target_step()

    @settings(max_examples=200, deadline=None)
    @given(_profiles, _feeds)
    def test_target_verify(self, name, feeds):
        cm, old = _pair(name)
        assert cm.price("verify", feeds) == old.batched_verify(feeds)
        assert cm.price("verify", feeds[:1]) == old.target_verify(feeds[0])

    @settings(max_examples=200, deadline=None)
    @given(_profiles, _kv_lens)
    def test_head_step(self, name, kv_lens):
        cm, old = _pair(name)
        rows = [1] * len(kv_lens)
        assert cm.price("head", rows, kv_lens) == old.batched_aasd_step(kv_lens)
        assert cm.price("head", (1,), kv_lens[:1]) == old.aasd_step(kv_lens[0])

    @settings(max_examples=100, deadline=None)
    @given(_profiles, _n_requests)
    def test_projector(self, name, n):
        cm, old = _pair(name)
        assert cm.price("projector", [1] * n) == n * old.projector()

    @settings(max_examples=100, deadline=None)
    @given(_profiles, _n_requests)
    def test_independent_draft_step_and_prefill(self, name, n):
        cm, old = _pair(name)
        assert cm.price("draft", [1] * n) == n * old.draft_step()
        assert cm.price("draft_prefill", [1] * n) == n * old.draft_prefill()

    @settings(max_examples=100, deadline=None)
    @given(_profiles, st.integers(1, 16))
    def test_self_encoding_sync(self, name, n_tokens):
        cm, old = _pair(name)
        new, ref = cm.price("sync", (n_tokens,)), old.draft_sync(n_tokens)
        if name == "sim-7b":
            assert new == ref
        assert abs(new - ref) <= math.ulp(ref)


class TestProfiles:
    def test_known_profiles(self):
        assert set(PROFILES) == {"sim-7b", "sim-13b"}

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            get_profile("sim-1t")

    def test_calibrated_ar_speed(self):
        """Profiles encode the paper's implied AR decode speeds."""
        assert 1000.0 / get_profile("sim-7b").step.unit_ms == pytest.approx(31.5)
        assert 1000.0 / get_profile("sim-13b").step.unit_ms == pytest.approx(31.7)

    def test_validation_rejects_negative(self):
        good = get_profile("sim-7b")
        for bad in (
            replace(good, draft=replace(good.draft, unit_ms=-0.1)),
            replace(good, head=replace(good.head, ref_kv=-1)),
        ):
            with pytest.raises(ConfigError):
                CostModel(bad)

    def test_validation_rejects_zero_step(self):
        good = get_profile("sim-7b")
        bad = replace(good, step=replace(good.step, unit_ms=0.0))
        with pytest.raises(ConfigError):
            CostModel(bad)


class TestCostModel:
    @pytest.fixture()
    def cm(self):
        return CostModel(get_profile("sim-7b"))

    def test_verify_cheaper_than_sequential(self, cm):
        """Parallel verification of gamma tokens must beat gamma AR steps."""
        for gamma in (2, 3, 5, 8):
            assert cm.price("verify", (gamma,)) < gamma * cm.target_step()

    def test_verify_monotonic_in_tokens(self, cm):
        costs = [cm.price("verify", (g,)) for g in range(1, 8)]
        assert all(a < b for a, b in zip(costs, costs[1:]))

    def test_verify_needs_tokens(self, cm):
        with pytest.raises(ConfigError):
            cm.price("verify", (0,))
        with pytest.raises(ConfigError):
            cm.price("verfiy", (1,))

    def test_draft_step_cheaper_than_target(self, cm):
        assert cm.price("draft", (1,)) < cm.target_step()

    def test_aasd_step_grows_with_kv(self, cm):
        short = cm.price("head", (1,), (40,))
        long = cm.price("head", (1,), (120,))
        assert long > short

    def test_aasd_reference_kv_flat_region(self, cm):
        ref = cm.profile.head.ref_kv
        assert cm.price("head", (1,), (0,)) == cm.price("head", (1,), (ref,))

    def test_aasd_step_rejects_negative(self, cm):
        with pytest.raises(ConfigError):
            cm.price("head", (1,), (-1,))
        with pytest.raises(ConfigError):
            cm.price("head", (1, 1), (40,))   # one kv length per row

    def test_block_cost_identity(self, cm):
        """The calibration identity used in DESIGN.md: with tau ~ 2.72 and
        gamma = 3, omega lands near the paper's 2.0x."""
        gamma, tau = 3, 2.72
        block = gamma * cm.price("head", (1,), (50,)) + cm.price("verify", (gamma + 1,))
        omega = tau * cm.target_step() / block
        assert 1.7 < omega < 2.3

    def test_13b_step_slower_than_7b(self):
        assert (
            get_profile("sim-13b").step.unit_ms
            < get_profile("sim-7b").step.unit_ms * 1.01
        )


class TestTreeVerify:
    """A tree round is priced like any verify round, per fed row: each
    request feeds its anchor plus every drafted node."""

    @pytest.fixture()
    def cm(self):
        return CostModel(get_profile("sim-7b"))

    def test_rejects_empty_feed(self, cm):
        for feeds in ([], [3, 0]):
            with pytest.raises(ConfigError):
                cm.price("verify", feeds)

    def test_monotonic_in_nodes(self, cm):
        costs = [cm.price("verify", [n, 3]) for n in range(1, 10)]
        assert all(a < b for a, b in zip(costs, costs[1:]))
