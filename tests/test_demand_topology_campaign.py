"""The demand-topology campaign's verdict machinery (no simulation).

The campaign itself is pinned by ``tests/golden/demand_topology.json``;
here the pure logic is exercised with synthetic summaries: spec
construction, the per-arm energy/latency/safety verdicts and their
gating semantics, the two acceptance legs (demand wins the gated
matrices / every arm is safe) and the JSON verdict artifact CI uploads — all through the campaign's
:class:`~repro.experiments.campaign.Campaign` declaration.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.experiments.campaign import CampaignResult
from repro.experiments.demand_topology import (
    ARMS,
    CAMPAIGN,
    CAMPAIGN_FORECASTER,
    CAMPAIGN_LOAD,
    CAMPAIGN_SEED,
    GATED_WORKLOADS,
    VERDICT_MAX_LATENCY_FACTOR,
    WORKLOADS,
    arm_label,
    build_specs,
)


def fake_summary(latency=100.0, power=0.6, delivered=1.0, partitions=0,
                 topo=None):
    """The minimal summary surface the verdict machinery touches."""
    return SimpleNamespace(
        mean_message_latency_ns=latency,
        measured_power_fraction=power,
        delivered_fraction=delivered,
        faults={"partitions": partitions},
        topo=topo,
    )


def topo_digest(dark_mean=6.0, guard_violations=0):
    return {"dark_mean": dark_mean, "guard_violations": guard_violations}


def fake_result(demand_power=0.55, demand_latency=110.0,
                demand_partitions=0, demand_guard_violations=0):
    by_label = {}
    for workload in WORKLOADS:
        by_label[arm_label(workload, "static")] = fake_summary()
        by_label[arm_label(workload, "degraded")] = fake_summary(
            latency=180.0, power=0.5, topo=topo_digest(dark_mean=16.0))
        by_label[arm_label(workload, "demand")] = fake_summary(
            latency=demand_latency, power=demand_power,
            partitions=demand_partitions,
            topo=topo_digest(
                guard_violations=demand_guard_violations))
    return CampaignResult(CAMPAIGN, by_label)


def verdict(result, workload, arm):
    return result.verdict(arm_label(workload, arm))


class TestBuildSpecs:
    def test_nine_specs_one_per_matrix_and_arm(self):
        specs = build_specs()
        assert len(specs) == 9
        assert set(specs) == {arm_label(w, a)
                              for w in WORKLOADS for a, _ in ARMS}

    def test_arms_differ_only_in_control_and_forecaster(self):
        specs = build_specs()
        for workload in WORKLOADS:
            static = specs[arm_label(workload, "static")]
            assert static.control == "epoch"
            assert static.forecaster is None
            for arm, control in ARMS:
                spec = specs[arm_label(workload, arm)]
                assert spec.control == control
                assert spec.workload == workload
                assert (spec.k, spec.n, spec.seed) == \
                    (static.k, static.n, static.seed)
                assert spec.uniform_offered_load == CAMPAIGN_LOAD

    def test_only_the_demand_arm_carries_the_forecaster(self):
        specs = build_specs()
        for workload in WORKLOADS:
            assert (specs[arm_label(workload, "demand")].forecaster
                    == CAMPAIGN_FORECASTER)
            assert specs[arm_label(workload, "degraded")].forecaster \
                is None

    def test_seed_is_parameterizable(self):
        specs = build_specs(seed=CAMPAIGN_SEED + 7)
        assert all(s.seed == CAMPAIGN_SEED + 7 for s in specs.values())


class TestArmVerdict:
    def test_winning_demand_arm_passes_every_leg(self):
        result = fake_result()
        for workload in GATED_WORKLOADS:
            v = verdict(result, workload, "demand")
            assert v.metrics["gated"] is True
            assert v.outcomes == {"energy": True, "latency": True,
                                  "safety": True}
            assert v.ok
            assert v.violations() == []

    def test_energy_leg_is_strict(self):
        # Matching static power is not saving energy.
        v = verdict(fake_result(demand_power=0.6), GATED_WORKLOADS[0],
                    "demand")
        assert v.metrics["power_delta"] == 0.0
        assert v.outcomes["energy"] is False
        assert "energy" in v.violations()
        assert not v.ok

    def test_latency_bound_is_inclusive(self):
        at_bound = fake_result(
            demand_latency=100.0 * VERDICT_MAX_LATENCY_FACTOR)
        assert verdict(at_bound, GATED_WORKLOADS[0],
                       "demand").outcomes["latency"]
        over = fake_result(
            demand_latency=100.0 * VERDICT_MAX_LATENCY_FACTOR + 1.0)
        assert not verdict(over, GATED_WORKLOADS[0],
                           "demand").outcomes["latency"]

    def test_ungated_arms_gate_on_safety_only(self):
        result = fake_result()
        degraded = verdict(result, "skewed", "degraded")
        assert degraded.metrics["gated"] is False
        # 1.8x latency and higher power than static: fails both gated
        # legs, but an ungated arm only answers for safety.
        assert degraded.metrics["latency_factor"] > \
            VERDICT_MAX_LATENCY_FACTOR
        assert list(degraded.outcomes) == ["safety"]
        assert degraded.ok
        shifting = verdict(result, "shifting", "demand")
        assert shifting.metrics["gated"] is False
        assert list(shifting.outcomes) == ["safety"]

    def test_partition_or_guard_violation_fails_any_arm(self):
        partitioned = fake_result(demand_partitions=1)
        v = verdict(partitioned, "shifting", "demand")
        assert not v.outcomes["safety"]
        assert v.violations() == ["safety"]
        violated = fake_result(demand_guard_violations=2)
        assert not verdict(violated, "skewed", "demand").ok


class TestResultVerdict:
    def test_clean_campaign_is_ok(self):
        result = fake_result()
        assert result.legs() == {"demand_wins": True,
                                 "safe_everywhere": True}
        assert result.ok

    def test_demand_loss_on_a_gated_matrix_fails(self):
        result = fake_result(demand_power=0.65)
        assert result.legs() == {"demand_wins": False,
                                 "safe_everywhere": True}
        assert not result.ok

    def test_any_unsafe_arm_fails_the_campaign(self):
        result = fake_result(demand_partitions=1)
        assert not result.legs()["safe_everywhere"]
        assert not result.ok

    def test_verdict_lines_name_failures(self):
        lines = "\n".join(fake_result(demand_power=0.65).verdict_lines())
        assert "SLO VIOLATED: skewed/demand -> energy" in lines
        ok_lines = "\n".join(fake_result().verdict_lines())
        assert "beats static on every gated matrix" in ok_lines
        assert "zero partitions" in ok_lines


class TestVerdictArtifact:
    def test_verdict_dict_shape(self):
        payload = fake_result().verdict_dict()
        assert set(payload) == {"verdict", "static", "arms",
                                "demand_wins", "safe_everywhere", "ok"}
        assert payload["verdict"]["gated_workloads"] == \
            list(GATED_WORKLOADS)
        assert set(payload["static"]) == set(WORKLOADS)
        assert len(payload["arms"]) == 9
        for arm in payload["arms"]:
            assert set(arm) == {
                "label", "power_fraction", "power_delta",
                "latency_factor", "delivered_fraction", "partitions",
                "guard_violations", "dark_mean", "gated", "ok",
                "violations"}

    def test_verdict_dict_is_json_serializable(self):
        import json

        text = json.dumps(fake_result().verdict_dict(), sort_keys=True)
        assert "demand_wins" in text

    def test_table_has_one_row_per_run(self):
        result = fake_result()
        assert len(result.rows()) == 9
        table = result.format_table()
        for workload in WORKLOADS:
            for arm, _ in ARMS:
                assert arm_label(workload, arm) in table
