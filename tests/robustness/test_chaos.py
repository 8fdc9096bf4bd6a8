"""Chaos harness: the four canonical storms and their invariants.

The module-scoped report runs the full quick suite once; individual
tests then pin the per-storm acceptance criteria — the headline one
being the transient-draft storm: under a 20% per-request transient
fault rate with engine fallback disabled, at least 95% of requests must
complete within deadline via the retry path, token-identical to a
fault-free run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import AASDDraftHead, DraftHeadConfig
from repro.data.tasks import make_dataset
from repro.decoding import CostModel, get_profile
from repro.errors import ChaosError
from repro.models.config import LlamaConfig, LlavaConfig, VisionConfig
from repro.models.llava import MiniLlava
from repro.robustness.chaos import (
    ChaosWorld,
    StormProfile,
    StormReport,
    assert_chaos,
    default_profiles,
    run_chaos,
    run_storm,
)


@pytest.fixture(scope="module")
def chaos_world(tokenizer):
    gen = np.random.default_rng(0)
    vocab = tokenizer.vocab_size
    target = MiniLlava(
        LlavaConfig(
            llama=LlamaConfig(vocab_size=vocab, dim=16, n_layers=1,
                              n_heads=2, mlp_hidden=24),
            vision=VisionConfig(image_size=48, patch_size=16, dim=8,
                                n_layers=1, n_heads=2, mlp_hidden=16),
        ),
        rng=gen,
    )
    head = AASDDraftHead(
        DraftHeadConfig(vocab_size=vocab, dim=16, n_heads=2, mlp_hidden=24,
                        n_vision_tokens=9, k_compressed=3),
        rng=gen,
    )
    return ChaosWorld(
        target=target,
        head=head,
        tokenizer=tokenizer,
        cost_model=CostModel(get_profile("sim-7b")),
        samples=make_dataset("coco-sim", 8, seed=4).samples,
    )


@pytest.fixture(scope="module")
def chaos_report(chaos_world, tmp_path_factory):
    work_dir = tmp_path_factory.mktemp("chaos")
    return run_chaos(chaos_world, quick=True, work_dir=work_dir)


def _storm(report, name) -> StormReport:
    by_name = {s.profile: s for s in report.storms}
    assert name in by_name, f"missing storm {name}: {sorted(by_name)}"
    return by_name[name]


def _storm_profile(name) -> StormProfile:
    return next(p for p in default_profiles(quick=True) if p.name == name)


class TestStormSuite:
    def test_every_storm_passes_every_invariant(self, chaos_report):
        for storm in chaos_report.storms:
            assert storm.passed, f"{storm.profile}: {storm.violations}"
        assert_chaos(chaos_report)   # and the aggregate raises nothing

    def test_transient_storm_meets_availability_slo(self, chaos_report):
        storm = _storm(chaos_report, "transient-draft")
        # >=95% of requests complete within deadline via retry, and every
        # surviving output is token-identical to the fault-free oracle.
        assert storm.availability >= 0.95
        assert storm.n_retries > 0
        assert storm.token_identical

    def test_latency_storm_cycles_the_breaker(self, chaos_report):
        storm = _storm(chaos_report, "latency-spike")
        assert storm.availability == 1.0
        assert storm.token_identical   # forced fallback stays AR-identical
        transitions = storm.breaker_transitions
        assert transitions, "the breaker never reacted to a 100% fault storm"
        assert (transitions[0][1], transitions[0][2]) == ("closed", "open")
        # a persistent fault storm must also fail at least one probe cycle
        assert any(src == "half-open" and dst == "open"
                   for _, src, dst in transitions)

    def test_queue_flood_sheds_instead_of_hanging(self, chaos_report):
        storm = _storm(chaos_report, "queue-flood")
        assert storm.n_shed > 0
        terminal = (storm.n_completed + storm.n_timeout
                    + storm.n_rejected + storm.n_failed)
        assert terminal == storm.n_requests
        assert storm.token_identical   # survivors are still exact

    def test_corrupt_reload_is_detected(self, chaos_report):
        storm = _storm(chaos_report, "corrupt-reload")
        assert storm.checkpoint_error is not None
        assert storm.availability == 1.0   # serving proceeds on healthy weights


class TestHarnessPlumbing:
    def test_report_roundtrips_to_json(self, chaos_report):
        payload = json.dumps(chaos_report.to_dict())
        decoded = json.loads(payload)
        assert decoded["passed"] is True
        assert len(decoded["storms"]) == len(chaos_report.storms)

    def test_storms_are_deterministic(self, chaos_world, tmp_path):
        profile = default_profiles(quick=True)[0]
        first = run_storm(profile, chaos_world, work_dir=tmp_path)
        second = run_storm(profile, chaos_world, work_dir=tmp_path)
        assert first == second

    def test_report_does_not_depend_on_work_dir(self, chaos_world, tmp_path):
        profile = _storm_profile("corrupt-reload")
        first_dir, second_dir = tmp_path / "a", tmp_path / "b"
        first_dir.mkdir()
        second_dir.mkdir()
        first = run_storm(profile, chaos_world, work_dir=first_dir)
        second = run_storm(profile, chaos_world, work_dir=second_dir)
        assert first.checkpoint_error is not None
        assert str(tmp_path) not in first.checkpoint_error
        assert first.to_dict() == second.to_dict()

    def test_corruption_storm_requires_work_dir(self, chaos_world):
        profile = StormProfile(name="corrupt", n_requests=1,
                               corrupt_reload="truncate")
        with pytest.raises(ChaosError):
            run_storm(profile, chaos_world)

    def test_assert_chaos_lists_violations(self, chaos_report):
        bad_storm = StormReport(
            profile="doctored", n_requests=1, n_completed=0, n_timeout=0,
            n_rejected=0, n_failed=1, n_retries=0, n_shed=0,
            availability=0.0, sim_ms=0.0, total_tokens=0,
            token_identical=False, breaker_transitions=(),
            checkpoint_error=None,
            violations=("output diverged", "counter mismatch"),
        )
        doctored = type(chaos_report)(storms=(bad_storm,))
        with pytest.raises(ChaosError) as excinfo:
            assert_chaos(doctored)
        message = str(excinfo.value)
        assert "[doctored] output diverged" in message
        assert "[doctored] counter mismatch" in message
