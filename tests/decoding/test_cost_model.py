"""Cost model tests: profiles, calibration identities, validation."""

import pytest
from dataclasses import replace

from repro.decoding.cost_model import PROFILES, CostModel, CostProfile, get_profile
from repro.errors import ConfigError


class TestProfiles:
    def test_known_profiles(self):
        assert set(PROFILES) == {"sim-7b", "sim-13b"}

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            get_profile("sim-1t")

    def test_calibrated_ar_speed(self):
        """Profiles encode the paper's implied AR decode speeds."""
        assert 1000.0 / get_profile("sim-7b").target_step_ms == pytest.approx(31.5)
        assert 1000.0 / get_profile("sim-13b").target_step_ms == pytest.approx(31.7)

    def test_validation_rejects_negative(self):
        bad = replace(get_profile("sim-7b"), draft_step_frac=-0.1)
        with pytest.raises(ConfigError):
            CostModel(bad)

    def test_validation_rejects_zero_step(self):
        bad = replace(get_profile("sim-7b"), target_step_ms=0.0)
        with pytest.raises(ConfigError):
            CostModel(bad)


class TestCostModel:
    @pytest.fixture()
    def cm(self):
        return CostModel(get_profile("sim-7b"))

    def test_verify_cheaper_than_sequential(self, cm):
        """Parallel verification of gamma tokens must beat gamma AR steps."""
        for gamma in (2, 3, 5, 8):
            assert cm.target_verify(gamma) < gamma * cm.target_step()

    def test_verify_monotonic_in_tokens(self, cm):
        costs = [cm.target_verify(g) for g in range(1, 8)]
        assert all(a < b for a, b in zip(costs, costs[1:]))

    def test_verify_needs_tokens(self, cm):
        with pytest.raises(ConfigError):
            cm.target_verify(0)

    def test_draft_step_cheaper_than_target(self, cm):
        assert cm.draft_step() < cm.target_step()

    def test_aasd_step_grows_with_kv(self, cm):
        short = cm.aasd_step(kv_len=40)
        long = cm.aasd_step(kv_len=120)
        assert long > short

    def test_aasd_reference_kv_flat_region(self, cm):
        ref = cm.profile.aasd_reference_kv
        assert cm.aasd_step(0) == cm.aasd_step(ref)

    def test_aasd_step_rejects_negative(self, cm):
        with pytest.raises(ConfigError):
            cm.aasd_step(-1)

    def test_draft_sync_zero_tokens_free(self, cm):
        assert cm.draft_sync(0) == 0.0

    def test_block_cost_identity(self, cm):
        """The calibration identity used in DESIGN.md: with tau ~ 2.72 and
        gamma = 3, omega lands near the paper's 2.0x."""
        gamma, tau = 3, 2.72
        block = gamma * cm.aasd_step(50) + cm.target_verify(gamma + 1)
        omega = tau * cm.target_step() / block
        assert 1.7 < omega < 2.3

    def test_13b_step_slower_than_7b(self):
        assert (
            get_profile("sim-13b").target_step_ms
            < get_profile("sim-7b").target_step_ms * 1.01
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
                cm.batched_verify(feeds)

    def test_monotonic_in_nodes(self, cm):
        costs = [cm.batched_verify([n, 3]) for n in range(1, 10)]
        assert all(a < b for a, b in zip(costs, costs[1:]))
