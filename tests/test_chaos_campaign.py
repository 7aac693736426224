"""The chaos campaign's verdict machinery (no simulation required).

The campaign itself is pinned by ``tests/golden/chaos.json``; here the
pure logic is exercised with synthetic summaries: spec construction,
the per-arm SLO verdicts and their boundary semantics, the two
acceptance legs (failsafe meets SLOs / unprotected violates them) and
the JSON verdict artifact CI uploads — all through the chaos
campaign's :class:`~repro.experiments.campaign.Campaign` declaration.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.experiments.campaign import ArmVerdict, CampaignResult
from repro.experiments.chaos import (
    CAMPAIGN,
    CAMPAIGN_CONTROL,
    CAMPAIGN_DATA_SCENARIO,
    CAMPAIGN_FAULT_SEED,
    CAMPAIGN_SEED,
    INTENSITIES,
    REFERENCE,
    SLO_MAX_LATENCY_FACTOR,
    SLO_MAX_PARTITIONS,
    SLO_MAX_POWER_DELTA,
    arm_label,
    build_specs,
)


def fake_summary(latency=100.0, power=0.5, delivered=1.0, partitions=0,
                 scenario=None):
    """The minimal summary surface the verdict machinery touches."""
    return SimpleNamespace(
        mean_packet_latency_ns=latency,
        measured_power_fraction=power,
        delivered_fraction=delivered,
        faults={"partitions": partitions},
        control_plane=(None if scenario is None
                       else {"scenario": scenario, "telemetry_lost": 10,
                             "actuations_lost": 2}),
    )


def fake_result(failsafe_latency=95.0, unprotected_latency=480.0,
                failsafe_power=0.56, failsafe_partitions=0):
    by_label = {REFERENCE: fake_summary()}
    for intensity in INTENSITIES:
        by_label[arm_label(intensity, True)] = fake_summary(
            latency=failsafe_latency, power=failsafe_power,
            partitions=failsafe_partitions,
            scenario=f"ctl_chaos_{intensity}")
        by_label[arm_label(intensity, False)] = fake_summary(
            latency=unprotected_latency, power=0.4, delivered=0.6,
            scenario=f"ctl_chaos_{intensity}")
    return CampaignResult(CAMPAIGN, by_label)


class TestBuildSpecs:
    def test_seven_specs_one_per_arm(self):
        specs = build_specs()
        assert len(specs) == 7
        assert set(specs) == {REFERENCE} | {
            arm_label(i, f) for i in INTENSITIES for f in (True, False)}

    def test_reference_is_chaos_free_but_otherwise_identical(self):
        specs = build_specs()
        ref = specs[REFERENCE]
        assert ref.control_faults is None
        assert ref.failsafe is False
        assert ref.faults == CAMPAIGN_DATA_SCENARIO
        assert ref.control == CAMPAIGN_CONTROL
        for label, spec in specs.items():
            if label == REFERENCE:
                continue
            assert (spec.k, spec.n, spec.seed, spec.fault_seed) == \
                (ref.k, ref.n, ref.seed, ref.fault_seed)
            assert spec.faults == ref.faults

    def test_arms_carry_their_intensity_and_guard_flag(self):
        specs = build_specs()
        for intensity in INTENSITIES:
            for failsafe in (True, False):
                spec = specs[arm_label(intensity, failsafe)]
                assert spec.control_faults == f"ctl_chaos_{intensity}"
                assert spec.failsafe is failsafe

    def test_seeds_are_parameterizable(self):
        specs = build_specs(seed=CAMPAIGN_SEED + 1,
                            fault_seed=CAMPAIGN_FAULT_SEED + 1)
        assert specs[REFERENCE].seed == CAMPAIGN_SEED + 1
        assert specs[REFERENCE].fault_seed == CAMPAIGN_FAULT_SEED + 1


class TestArmVerdict:
    def make(self, **kw):
        metrics = dict(partitions=0, latency_factor=1.0, power_delta=0.0,
                       delivered_fraction=1.0)
        metrics.update(kw)
        return ArmVerdict(CAMPAIGN, "mid/failsafe", metrics)

    def test_each_slo_fails_independently(self):
        assert self.make(partitions=1).violations() == ["partitions"]
        assert self.make(
            latency_factor=SLO_MAX_LATENCY_FACTOR + 0.01
        ).violations() == ["latency"]
        assert self.make(
            power_delta=SLO_MAX_POWER_DELTA + 0.01
        ).violations() == ["power"]

    def test_to_dict_is_json_safe_and_rounded(self):
        v = self.make(latency_factor=1.23456, power_delta=0.098765)
        d = v.to_dict()
        assert d["latency_factor"] == 1.2346
        assert d["power_delta"] == 0.0988
        assert d["slo_ok"] is True
        assert d["violations"] == []
        assert d["label"] == "mid/failsafe"


class TestCampaignVerdict:
    def test_verdict_measures_against_the_reference(self):
        result = fake_result(failsafe_latency=120.0, failsafe_power=0.58)
        v = result.verdict(arm_label("mid", True))
        assert v.metrics["latency_factor"] == pytest.approx(1.2)
        assert v.metrics["power_delta"] == pytest.approx(0.08)
        assert v.metrics["partitions"] == 0

    def test_happy_path_both_legs_hold(self):
        result = fake_result()
        assert result.legs() == {"failsafe_ok": True,
                                 "unprotected_degraded": True}
        assert result.ok

    def test_one_bad_failsafe_arm_fails_the_campaign(self):
        result = fake_result()
        result.by_label[arm_label("high", True)] = fake_summary(
            latency=400.0, scenario="ctl_chaos_high")
        assert not result.legs()["failsafe_ok"]
        assert not result.ok

    def test_one_partition_fails_the_failsafe_leg(self):
        result = fake_result(failsafe_partitions=1)
        assert not result.legs()["failsafe_ok"]

    def test_gentle_chaos_fails_the_teeth_leg(self):
        # An unprotected arm sailing through all SLOs makes the
        # failsafe verdict vacuous: the campaign must say so.
        result = fake_result(unprotected_latency=100.0)
        result.by_label[arm_label("low", False)].delivered_fraction = 1.0
        assert result.legs() == {"failsafe_ok": True,
                                 "unprotected_degraded": False}
        assert not result.ok
        assert "campaign too gentle: low/unprotected" in "\n".join(
            result.verdict_lines())

    def test_verdict_dict_carries_bands_arms_and_booleans(self):
        d = fake_result().verdict_dict()
        assert d["slo"] == {
            "max_partitions": SLO_MAX_PARTITIONS,
            "max_latency_factor": SLO_MAX_LATENCY_FACTOR,
            "max_power_delta": SLO_MAX_POWER_DELTA,
        }
        assert len(d["arms"]) == 6
        assert {a["label"] for a in d["arms"]} == {
            arm_label(i, f) for i in INTENSITIES for f in (True, False)}
        assert d["failsafe_ok"] is True
        assert d["unprotected_degraded"] is True
        assert d["ok"] is True
        assert d["reference"]["mean_packet_latency_ns"] == 100.0

    def test_table_has_one_row_per_run_and_verdict_strings(self):
        result = fake_result()
        rows = result.rows()
        assert len(rows) == 7
        verdicts = {row[0]: row[-1] for row in rows[1:]}
        for intensity in INTENSITIES:
            assert verdicts[arm_label(intensity, True)] == "PASS"
            assert verdicts[arm_label(intensity, False)].startswith(
                "viol:")
        text = result.format_table()
        assert "failsafe vs" in text and REFERENCE in text

    def test_verdict_lines_name_both_legs(self):
        lines = "\n".join(fake_result().verdict_lines())
        assert "all SLOs met at every intensity" in lines
        assert "chaos has teeth" in lines
        broken = fake_result(failsafe_latency=400.0)
        lines = "\n".join(broken.verdict_lines())
        assert "SLO VIOLATED" in lines
