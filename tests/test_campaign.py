"""The shared campaign machinery, checked on all four declarations.

Each campaign module is a :class:`~repro.experiments.campaign.Campaign`
value; the cases here hold for every one of them — the declaration is
self-consistent, every SLO bound is inclusive except a strict one, an
arm passing every SLO breaks a "has teeth" leg, the frozen verdicts
re-derive from the declared SLOs, and ``repro campaign`` takes exactly
the flags a campaign declares.  Campaign-specific cases live in the
per-campaign test files.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import (EXPERIMENTS, build_campaign_parser, main,
                       run_experiment)
from repro.experiments import golden, sweep as sweep_mod
from repro.experiments.campaign import ArmVerdict, campaigns
from repro.experiments.scale import SCALES

GOLDEN_DIR = Path(__file__).parent / "golden"
CAMPAIGNS = campaigns()
NAMES = list(CAMPAIGNS)

#: Every flag some campaign declares, with a value that parses.
ALL_FLAGS = {
    "--seed": ["1"], "--fault-seed": ["1"], "--scenario": ["mtbf"],
    "--single": ["reference"], "--epochs": ["1"],
    "--metrics-out": ["m.txt"], "--trace-out": ["t.json"],
    "--jobs": ["1"], "--no-cache": [], "--cache-dir": ["c"],
    "--retries": ["1"],
}


@pytest.fixture(autouse=True)
def restore_default_runner():
    """main() reconfigures the process-wide sweep runner; undo it."""
    saved = sweep_mod._default_runner
    yield
    sweep_mod._default_runner = saved


def declared_flags(campaign):
    flags = {"--" + option.replace("_", "-") for option in campaign.options}
    if campaign.service:
        return flags | {"--single", "--epochs", "--metrics-out",
                        "--trace-out"}
    return flags | {"--jobs", "--no-cache", "--cache-dir", "--retries"}


def passing_metrics(campaign):
    """Metrics sitting exactly on every SLO bound (just inside a strict
    one): the tightest values that still pass."""
    metrics = {m.name: 0 for m in campaign.metrics}
    for slo in campaign.slos:
        if isinstance(slo.bound, str):
            metrics[slo.metric] = metrics[slo.bound] = 1.0
        else:
            metrics[slo.metric] = (slo.bound - 1 if slo.comparator == "<"
                                   else slo.bound)
    return metrics


def gated_arms(campaign):
    return sorted({label for slo in campaign.slos for label in slo.arms})


class TestRegistry:
    def test_campaigns_are_the_experiments_of_kind_campaign(self):
        assert NAMES == ["fault-tolerance", "chaos-campaign",
                         "demand-topology", "service-resilience"]
        assert {name for name, (_, kind, _) in EXPERIMENTS.items()
                if kind == "campaign"} == set(NAMES)

    def test_every_campaign_has_a_golden_file(self):
        for campaign in CAMPAIGNS.values():
            assert campaign.golden_name in golden.GOLDEN_BUILDERS
            assert (GOLDEN_DIR / f"{campaign.golden_name}.json").exists()

    def test_list_labels_every_campaign_as_a_campaign(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name in NAMES:
            line = next(l for l in lines if l.startswith(name + " "))
            assert "[campaign]" in line

    @pytest.mark.parametrize("name", NAMES)
    def test_stats_json_reports_no_scale_for_a_campaign(
            self, name, monkeypatch):
        # Campaigns are seed-pinned: run() takes no scale at all, and
        # the stats entry must not claim one.
        class Result:
            def format_table(self):
                return "table"

        description, kind, _ = EXPERIMENTS[name]
        monkeypatch.setitem(EXPERIMENTS, name,
                            (description, kind, lambda: Result()))
        sink = []
        run_experiment(name, SCALES["medium"], None, stats_sink=sink)
        assert sink[0]["experiment"] == name
        assert sink[0]["scale"] is None


@pytest.mark.parametrize("name", NAMES)
class TestDeclaration:
    def test_slos_name_declared_metrics_and_built_arms(self, name):
        campaign = CAMPAIGNS[name]
        metrics = {m.name for m in campaign.metrics}
        arms = set(campaign.build())
        for slo in campaign.slos:
            assert slo.metric in metrics
            assert not isinstance(slo.bound, str) or slo.bound in metrics
            assert set(slo.arms) <= arms

    def test_every_leg_arm_is_gated(self, name):
        campaign = CAMPAIGNS[name]
        slo_names = {slo.name for slo in campaign.slos}
        for leg in campaign.legs:
            assert leg.arms
            assert set(leg.arms) <= set(gated_arms(campaign))
            assert set(leg.slos or ()) <= slo_names

    def test_exactly_at_every_bound_still_passes(self, name):
        campaign = CAMPAIGNS[name]
        metrics = passing_metrics(campaign)
        for label in gated_arms(campaign):
            verdict = ArmVerdict(campaign, label, metrics)
            assert verdict.ok, (label, verdict.violations())
            assert verdict.cell() == "PASS"

    def test_strict_bounds_fail_on_the_bound_others_hold(self, name):
        campaign = CAMPAIGNS[name]
        assert campaign.slos
        for slo in campaign.slos:
            bound = 1.0 if isinstance(slo.bound, str) else slo.bound
            metrics = {slo.metric: bound}
            if isinstance(slo.bound, str):
                metrics[slo.bound] = bound
            assert slo.holds(metrics) is (slo.comparator != "<"), slo
            past = bound + (-1 if slo.comparator == ">=" else 1)
            assert slo.holds({**metrics, slo.metric: past}) is False

    def test_a_passing_arm_breaks_a_teeth_leg(self, name):
        campaign = CAMPAIGNS[name]
        passing = passing_metrics(campaign)
        for leg in campaign.legs:
            verdict = ArmVerdict(campaign, leg.arms[0], passing)
            assert leg.holds(verdict) is leg.passes

    def test_one_violated_slo_breaks_a_passing_leg(self, name):
        campaign = CAMPAIGNS[name]
        for leg in campaign.legs:
            label = leg.arms[0]
            for slo in campaign.slos:
                if label not in slo.arms or (
                        leg.slos and slo.name not in leg.slos):
                    continue
                metrics = passing_metrics(campaign)
                step = -2 if slo.comparator == ">=" else 2
                metrics[slo.metric] += step
                verdict = ArmVerdict(campaign, label, metrics)
                assert verdict.violations(leg.slos) == [slo.name]
                assert leg.holds(verdict) is not leg.passes

    def test_parser_defaults_are_the_campaign_constants(self, name):
        campaign = CAMPAIGNS[name]
        args = build_campaign_parser().parse_args([name])
        for option, default in campaign.options.items():
            assert getattr(args, option) == default
        assert args.compare is False
        assert args.json_out is None
        assert args.run_log is None
        if campaign.service:
            assert args.single is None
        else:
            assert args.retries is None
            assert args.jobs is None

    def test_undeclared_flags_exit_2(self, name, capsys):
        campaign = CAMPAIGNS[name]
        undeclared = set(ALL_FLAGS) - declared_flags(campaign)
        assert undeclared
        for flag in sorted(undeclared):
            with pytest.raises(SystemExit) as exc:
                main(["campaign", name, flag, *ALL_FLAGS[flag]])
            assert exc.value.code == 2, flag
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_declared_flags_parse(self, name):
        campaign = CAMPAIGNS[name]
        argv = [name]
        for flag in sorted(declared_flags(campaign)):
            argv += [flag, *ALL_FLAGS[flag]]
        args = build_campaign_parser().parse_args(argv)
        assert args.name == name


class TestFrozenVerdicts:
    @pytest.mark.parametrize("name", [n for n in NAMES
                                      if "verdict" in CAMPAIGNS[n].golden])
    def test_golden_verdict_rows_rederive_from_the_slos(self, name):
        campaign = CAMPAIGNS[name]
        frozen = golden.load(GOLDEN_DIR, campaign.golden_name)["verdict"]
        holds = {leg.name: True for leg in campaign.legs}
        for row in frozen["arms"]:
            verdict = ArmVerdict(campaign, row["label"], row)
            assert set(verdict.to_dict()) == set(row)
            assert verdict.violations() == row["violations"]
            assert verdict.ok is row[campaign.ok_key]
            for leg in campaign.legs:
                if row["label"] in leg.arms:
                    holds[leg.name] &= leg.holds(verdict)
        for leg, held in holds.items():
            assert frozen[leg] is held
        assert frozen["ok"] is all(holds.values())

    def test_faults_golden_carries_scenario_and_legs_only(self):
        campaign = CAMPAIGNS["fault-tolerance"]
        frozen = golden.load(GOLDEN_DIR, campaign.golden_name)
        assert set(frozen) == {"runs", "scenario",
                               *(leg.name for leg in campaign.legs)}
        assert frozen["scenario"] == campaign.options["scenario"]


class TestCampaignCommand:
    @pytest.mark.parametrize("flag", ["--epochs", "--metrics-out",
                                      "--trace-out"])
    def test_single_only_flags_need_single(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "service-resilience", flag, *ALL_FLAGS[flag]])
        assert exc.value.code == 2
        assert f"{flag} requires --single" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--compare", "--json-out"])
    def test_whole_campaign_flags_reject_single(self, flag, capsys):
        value = ["v.json"] if flag == "--json-out" else []
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "service-resilience", "--single",
                  "reference", flag, *value])
        assert exc.value.code == 2
        assert "cannot be used with --single" in capsys.readouterr().err

    def test_unknown_campaign_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "meteor"])
        assert exc.value.code == 2

    def test_service_campaign_gate_artifact_and_run_log(
            self, tmp_path, capsys):
        from repro.obs.runrecord import read_run_log

        out = tmp_path / "verdict.json"
        log = tmp_path / "runs.jsonl"
        assert main(["campaign", "service-resilience", "--compare",
                     "--json-out", str(out), "--run-log", str(log)]) == 0
        text = capsys.readouterr().out
        assert "resilient_ok: " in text
        assert "chaos has teeth" in text
        frozen = golden.load(GOLDEN_DIR, "service_resilience")
        assert json.loads(out.read_text()) == frozen["verdict"]
        records = read_run_log(log)
        assert [r["label"] for r in records] == \
            list(CAMPAIGNS["service-resilience"].build())
        assert set(frozen["runs"]) == {r["label"] for r in records}
        assert all(r["kind"] == "service" for r in records)
