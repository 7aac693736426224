"""``repro campaign service-resilience`` and the service rows of
``repro obs summarize``.

Single-arm runs (epoch-overridden so they stay fast), run-record /
metrics / trace artifacts, and the obs rollup of service records.
The full campaign path is covered by the golden tests.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import build_campaign_parser, main
from repro.obs.runrecord import read_run_log

SERVE = ("campaign", "service-resilience")


class TestServeParser:
    def test_defaults(self):
        args = build_campaign_parser().parse_args(["service-resilience"])
        assert args.compare is False
        assert args.single is None
        assert args.json_out is None

    def test_single_with_artifacts(self, tmp_path):
        args = build_campaign_parser().parse_args(
            ["service-resilience", "--single", "slow/resilient",
             "--epochs", "48",
             "--run-log", str(tmp_path / "runs.jsonl"),
             "--metrics-out", str(tmp_path / "metrics.txt"),
             "--trace-out", str(tmp_path / "trace.json")])
        assert args.single == "slow/resilient"
        assert args.epochs == 48


class TestServeSingle:
    def test_reference_arm_runs_and_reports(self, capsys):
        assert main([*SERVE, "--single", "reference",
                     "--epochs", "24"]) == 0
        out = capsys.readouterr().out
        assert "reference:" in out
        assert "partitions=0" in out

    def test_unknown_arm_is_a_clean_error(self, capsys):
        assert main([*SERVE, "--single", "meteor/unshielded"]) == 1
        assert "unknown arm" in capsys.readouterr().err

    def test_artifacts_are_written(self, tmp_path, capsys):
        log = tmp_path / "runs.jsonl"
        metrics = tmp_path / "metrics.txt"
        trace = tmp_path / "trace.json"
        assert main([*SERVE, "--single", "dropout/resilient",
                     "--epochs", "36",
                     "--run-log", str(log),
                     "--metrics-out", str(metrics),
                     "--trace-out", str(trace)]) == 0

        records = read_run_log(log)
        assert len(records) == 1
        assert records[0]["kind"] == "service"
        assert records[0]["label"] == "dropout/resilient"
        assert records[0]["config"]["epochs"] == 36
        assert records[0]["summary"]["epochs"] == 36
        assert "wall_seconds" not in records[0]["summary"]

        text = metrics.read_text()
        assert "service_decision_latency_ns" in text
        assert "service_decisions_total" in text

        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]
        assert payload["otherData"]["groups"] == \
            records[0]["config"]["groups"]
        names = {e.get("name") for e in payload["traceEvents"]}
        assert "ingest_backlog" in names

    def test_obs_summarize_rolls_up_service_records(
            self, tmp_path, capsys):
        log = tmp_path / "runs.jsonl"
        for arm in ("reference", "crash/resilient"):
            assert main([*SERVE, "--single", arm, "--epochs", "24",
                         "--run-log", str(log)]) == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(log)]) == 0
        out = capsys.readouterr().out
        assert "service records: 2" in out
        assert "crash/resilient" in out
        assert "service health rollup:" in out
        assert "restarts=" in out
        assert "checkpoints=48" in out  # 24 per supervised arm
        assert "worst service p99 decision latency" in out
