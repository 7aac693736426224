"""Service resilience campaign: arms, verdicts, determinism.

The golden freezes the full-scale campaign's numbers; these tests pin
the machinery at small scale — the run is exactly reproducible, the
arm builder covers the matrix, the SLO verdict logic flags the right
violations, and the small-scale fault arms already separate resilient
from unprotected the way the golden demands at full scale.
"""

from __future__ import annotations

import dataclasses
import json

from repro.experiments import service_resilience as sr
from repro.experiments.campaign import ArmVerdict
from repro.faults.control_faults import (
    ControlFaultScenario,
    TelemetryDropout,
)
from repro.service import ControlPlaneService, ServiceConfig

SMALL = ServiceConfig(groups=4, epochs=48, epochs_per_day=24, seed=7,
                      strand_grace_epochs=4)


def run_small(config=SMALL, scenario=None, slow=None):
    return ControlPlaneService(config, scenario=scenario,
                               slow=slow).run()


def dropout_scenario(config):
    day_ns = config.epochs_per_day * config.epoch_ns
    return ControlFaultScenario(
        name="svc_dropout_small", seed=11,
        dropout=TelemetryDropout(fraction=1.0, probability=1.0,
                                 start_ns=0.2 * day_ns,
                                 end_ns=1.6 * day_ns))


class TestDeterminism:
    def test_identical_configs_produce_identical_digests(self):
        first = run_small().digest()
        second = run_small().digest()
        assert first == second

    def test_chaos_arms_are_deterministic_too(self):
        scenario = dropout_scenario(SMALL)
        first = run_small(scenario=scenario).digest()
        second = run_small(scenario=scenario).digest()
        assert first == second

    def test_digest_is_json_safe_and_machine_independent(self):
        summary = run_small()
        digest = summary.digest()
        assert "wall_seconds" not in digest
        assert json.loads(json.dumps(digest)) == digest
        assert summary.format_line()


class TestArmMatrix:
    def test_nine_arms_cover_the_matrix(self):
        arms = sr.build_arms()
        assert len(arms) == 1 + 2 * len(sr.SCENARIOS)
        assert sr.REFERENCE in arms
        for scenario in sr.SCENARIOS:
            for resilient in (True, False):
                label = sr.arm_label(scenario, resilient)
                config, _, slow = arms[label]
                assert config.shedding is resilient
                assert config.degraded_modes is resilient
                assert config.supervised is resilient
                assert config.retries is resilient
                if scenario == "slow":
                    assert slow is not None
                else:
                    assert slow is None

    def test_unprotected_flips_every_toggle_and_nothing_else(self):
        base = sr.CAMPAIGN_CONFIG
        ablated = base.unprotected()
        changed = {name for name in base.to_dict()
                   if getattr(base, name) != getattr(ablated, name)}
        assert changed == {"shedding", "degraded_modes", "supervised",
                           "retries"}

    def test_unknown_scenario_is_rejected(self):
        import pytest
        with pytest.raises(ValueError, match="unknown scenario"):
            sr._scenario("meteor")


class TestVerdictLogic:
    def make(self, **kwargs):
        metrics = dict(partitions=0, latency_p99_ns=1e8,
                       latency_bound_ns=2.5e10, decisions_per_sec=0.8,
                       dps_floor=0.72, served_fraction=1.0)
        metrics.update(kwargs)
        return ArmVerdict(sr.CAMPAIGN, "dropout/resilient", metrics)

    def test_all_ok_when_every_slo_met(self):
        v = self.make()
        assert v.ok is True
        assert v.violations() == []
        assert v.to_dict()["slo_ok"] is True

    def test_each_slo_flags_independently(self):
        assert self.make(partitions=1).violations() == ["partitions"]
        assert self.make(latency_p99_ns=3e10).violations() \
            == ["latency"]
        assert self.make(decisions_per_sec=0.5).violations() \
            == ["throughput"]
        worst = self.make(partitions=2, latency_p99_ns=9e10,
                          decisions_per_sec=0.1)
        assert worst.violations() \
            == ["partitions", "latency", "throughput"]
        assert worst.ok is False


class TestSmallScaleSeparation:
    def test_dropout_strands_the_unprotected_arm_only(self):
        scenario = dropout_scenario(SMALL)
        resilient = run_small(scenario=scenario)
        unprotected = run_small(config=SMALL.unprotected(),
                                scenario=scenario)
        assert resilient.partitions == 0
        assert unprotected.partitions > 0
        # The ladder's fingerprints: holds within TTL, floors past it.
        assert resilient.stale_holds > 0
        assert resilient.safe_floors > 0
        assert unprotected.stale_holds == 0
        # Availability is what the floors buy.
        assert resilient.served_fraction > unprotected.served_fraction

    def test_reference_arm_is_quiet(self):
        summary = run_small()
        assert summary.partitions == 0
        assert summary.restarts == 0
        assert summary.sheds == 0
        assert summary.retry_exhausted == 0
        assert summary.decisions == SMALL.groups * SMALL.epochs
