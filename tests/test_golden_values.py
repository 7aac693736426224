"""Golden-value regression: frozen headline numbers must not drift.

``tests/golden/*.json`` freezes the seed repo's Table 1 part counts,
Figure 1 scenario watts and Figure 7 run digests.  Each test recomputes
the payload live (the simulations through an isolated no-cache sweep
runner, so a stale cache can never mask drift; once per session, via
the ``golden_payloads`` fixture) and compares within 1e-9.  Refresh
deliberately with ``python -m repro golden-refresh`` or ``make
golden-refresh`` after an *intentional* result change.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import golden

GOLDEN_DIR = Path(__file__).parent / "golden"


class TestGoldenFiles:
    def test_every_golden_file_exists(self):
        for name in golden.GOLDEN_BUILDERS:
            assert (GOLDEN_DIR / f"{name}.json").exists(), (
                f"missing golden file for {name}; run "
                "`python -m repro golden-refresh`")

    def test_table1_part_counts_match(self, golden_payloads):
        frozen = golden.load(GOLDEN_DIR, "table1")
        golden.assert_close(frozen, golden_payloads["table1"])

    def test_table1_headline_values(self):
        # The paper's numbers, spelled out: any regression here is a
        # modelling change, not a refactor.
        frozen = golden.load(GOLDEN_DIR, "table1")
        assert frozen["clos"]["num_hosts"] == 32768
        assert frozen["fbfly"]["num_hosts"] == 32768
        assert frozen["fbfly"]["switch_chips"] < \
            0.6 * frozen["clos"]["switch_chips"]

    def test_figure1_scenarios_match(self, golden_payloads):
        frozen = golden.load(GOLDEN_DIR, "figure1")
        golden.assert_close(frozen, golden_payloads["figure1"])

    def test_figure7_simulation_digest_matches(self, golden_payloads):
        frozen = golden.load(GOLDEN_DIR, "figure7")
        golden.assert_close(frozen, golden_payloads["figure7"])

    def test_predictive_simulation_digest_matches(self, golden_payloads):
        frozen = golden.load(GOLDEN_DIR, "predictive")
        golden.assert_close(frozen, golden_payloads["predictive"])

    def test_faults_campaign_digest_matches(self, golden_payloads):
        frozen = golden.load(GOLDEN_DIR, "faults")
        golden.assert_close(frozen, golden_payloads["faults"])

    def test_faults_campaign_verdict_frozen(self):
        # The acceptance demo, spelled out: the pinned spanning set
        # sustains the delivery floor with zero partitions on the
        # campaign where unprotected gating observably degrades.
        frozen = golden.load(GOLDEN_DIR, "faults")
        assert frozen["protected_ok"] is True
        assert frozen["degraded_detected"] is True
        pinned = frozen["runs"]["pinned"]
        gated = frozen["runs"]["gated"]
        assert pinned["delivered_fraction"] >= 0.999
        assert pinned["faults"]["partitions"] == 0
        assert (gated["faults"]["partitions"] >= 1
                or gated["faults"]["drop_bursts"] >= 1)

    def test_chaos_campaign_digest_matches(self, golden_payloads):
        frozen = golden.load(GOLDEN_DIR, "chaos")
        golden.assert_close(frozen, golden_payloads["chaos"])

    def test_chaos_campaign_verdict_frozen(self):
        # The tentpole's acceptance demo, spelled out: every failsafe
        # arm meets the SLOs (zero partitions, bounded latency and
        # power vs the fault-free reference) on the same chaos where
        # every unprotected arm violates at least one.
        frozen = golden.load(GOLDEN_DIR, "chaos")
        assert frozen["failsafe_ok"] is True
        assert frozen["unprotected_degraded"] is True
        verdict = frozen["verdict"]
        assert verdict["ok"] is True
        for arm in verdict["arms"]:
            if arm["label"].endswith("/failsafe"):
                assert arm["slo_ok"] is True
                assert arm["partitions"] == 0
                assert arm["delivered_fraction"] >= 0.999
            else:
                assert arm["slo_ok"] is False
                assert "latency" in arm["violations"]


    def test_demand_topology_campaign_digest_matches(
            self, golden_payloads):
        frozen = golden.load(GOLDEN_DIR, "demand_topology")
        golden.assert_close(frozen, golden_payloads["demand_topology"])

    def test_demand_topology_verdict_frozen(self):
        # The tentpole's acceptance demo, spelled out: the demand-aware
        # arm strictly beats static FBFLY on energy at bounded latency
        # cost on every gated matrix, and no arm — static, degraded or
        # demand-aware — ever partitions the fabric or violates the
        # connectivity guard.
        frozen = golden.load(GOLDEN_DIR, "demand_topology")
        assert frozen["demand_wins"] is True
        assert frozen["safe_everywhere"] is True
        verdict = frozen["verdict"]
        assert verdict["ok"] is True
        max_latency = verdict["verdict"]["max_latency_factor"]
        gated = set(verdict["verdict"]["gated_workloads"])
        for arm in verdict["arms"]:
            assert arm["partitions"] == 0
            assert arm["guard_violations"] == 0
            workload, _, mode = arm["label"].partition("/")
            if mode == "demand" and workload in gated:
                assert arm["power_delta"] < 0
                assert arm["latency_factor"] <= max_latency
                assert arm["dark_mean"] > 0
        # The degraded arm exists to show why static darkening is not
        # enough: it darkens more but pays for it in latency on the
        # skewed matrix.
        by_label = {a["label"]: a for a in verdict["arms"]}
        assert (by_label["skewed/degraded"]["latency_factor"]
                > by_label["skewed/demand"]["latency_factor"])

    def test_service_resilience_campaign_digest_matches(
            self, golden_payloads):
        frozen = golden.load(GOLDEN_DIR, "service_resilience")
        golden.assert_close(frozen, golden_payloads["service_resilience"])

    def test_service_resilience_verdict_frozen(self):
        # The service tentpole's acceptance demo, spelled out: every
        # resilient arm holds zero partitions, bounded p99 decision
        # latency and the decisions/sec floor under dropout, actuation
        # loss, a controller crash and a slow consumer, while every
        # unprotected arm measurably degrades on at least one SLO.
        frozen = golden.load(GOLDEN_DIR, "service_resilience")
        assert frozen["resilient_ok"] is True
        assert frozen["unprotected_degraded"] is True
        verdict = frozen["verdict"]
        assert verdict["ok"] is True
        for arm in verdict["arms"]:
            _, _, mode = arm["label"].partition("/")
            if mode == "resilient":
                assert arm["slo_ok"] is True
                assert arm["partitions"] == 0
                assert arm["latency_p99_ns"] <= arm["latency_bound_ns"]
                assert arm["decisions_per_sec"] >= arm["dps_floor"]
            else:
                assert arm["slo_ok"] is False
                assert arm["violations"]
        runs = frozen["runs"]
        # Each robustness mechanism visibly fires in its scenario: the
        # retry journal under loss, the supervisor under crash, the
        # shedding path under the slow consumer.
        assert runs["loss/resilient"]["retries"] > 0
        assert runs["crash/resilient"]["restarts"] == 1
        assert runs["slow/resilient"]["sheds"] > 0
        assert runs["slow/unprotected"]["sheds"] == 0


class TestAssertClose:
    def test_accepts_tiny_float_noise(self):
        golden.assert_close({"x": 1.0}, {"x": 1.0 + 1e-12})

    def test_rejects_real_drift(self):
        with pytest.raises(AssertionError, match=r"\$\.x"):
            golden.assert_close({"x": 1.0}, {"x": 1.001})

    def test_rejects_shape_changes(self):
        with pytest.raises(AssertionError):
            golden.assert_close({"x": 1.0}, {"x": 1.0, "y": 2.0})
        with pytest.raises(AssertionError):
            golden.assert_close([1, 2], [1, 2, 3])

    def test_rejects_type_confusion(self):
        with pytest.raises(AssertionError):
            golden.assert_close({"x": True}, {"x": 1})
        with pytest.raises(AssertionError):
            golden.assert_close({"x": None}, {"x": 0})

    def test_exact_match_for_strings_and_ints(self):
        golden.assert_close({"s": "epoch", "n": 64}, {"s": "epoch", "n": 64})
        with pytest.raises(AssertionError):
            golden.assert_close({"s": "epoch"}, {"s": "none"})


class TestRefreshRoundTrip:
    def test_refresh_writes_loadable_files(self, tmp_path):
        # Only the analytic builders (fast); figure7 is covered above.
        paths = []
        for name in ("table1", "figure1"):
            payload = golden.GOLDEN_BUILDERS[name]()
            path = tmp_path / f"{name}.json"
            import json
            path.write_text(json.dumps(payload, sort_keys=True, indent=1))
            paths.append(path)
            golden.assert_close(golden.load(tmp_path, name), payload)
        assert all(p.exists() for p in paths)
