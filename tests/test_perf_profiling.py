"""The wall-clock profiler must observe without perturbing.

Mirrors the contracts in ``test_obs_overhead.py`` for the new
:class:`repro.obs.profiling.PerfProfiler`:

1. **No perturbation**: a profiled run produces a summary digest
   bit-identical to a plain run — the profiler schedules no events and
   touches no RNG, and ``SimulationSummary.perf`` is host-measured
   data excluded from digests.
2. **Detached cost is one check**: with no profiler attached the
   engine's timing branch is a single ``is None`` test; attached mode
   stays within a generous self-relative wall-clock budget.
3. **The report is coherent**: per-phase event counts sum to the
   engine's event counter, shares sum to ~1, and the Perfetto export
   gains validating wall-clock counter tracks.
4. **The CLI surfaces it**: ``repro perf profile`` prints the phase
   table and writes the JSON report.
"""

import json
import time

from repro.cli import main
from repro.experiments.cache import summary_digest, summary_to_dict
from repro.experiments.runner import SimulationSpec, run_simulation
from repro.obs.profiling import PHASES, PerfProfiler, classify_callback
from repro.obs.session import Telemetry

SPEC = SimulationSpec(k=2, n=2, duration_ns=150_000.0, workload="uniform")


def _best_of(n, fn):
    best = float("inf")
    for _ in range(n):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestNoPerturbation:
    def test_profiled_run_is_bit_identical(self):
        plain = run_simulation(SPEC)
        profiled = run_simulation(SPEC, telemetry=Telemetry.profiled())
        assert summary_digest(profiled) == summary_digest(plain)

    def test_perf_report_excluded_from_digest_not_serialization(self):
        profiled = run_simulation(SPEC, telemetry=Telemetry.profiled())
        assert profiled.perf is not None
        # The digest strips host-measured data...
        assert "perf" not in summary_digest(profiled)
        # ...but the full serialization carries it.
        assert summary_to_dict(profiled)["perf"]["events_fired"] > 0

    def test_plain_serialization_unchanged(self):
        # With profiling detached, summaries serialize without a perf
        # key at all — cache entries and goldens stay byte-identical.
        plain = run_simulation(SPEC)
        assert plain.perf is None
        assert "perf" not in summary_to_dict(plain)

    def test_profiled_run_repeats_identically(self):
        a = run_simulation(SPEC, telemetry=Telemetry.profiled())
        b = run_simulation(SPEC, telemetry=Telemetry.profiled())
        assert summary_digest(a) == summary_digest(b)


class TestReportCoherence:
    def test_phase_events_sum_to_engine_counter(self):
        telemetry = Telemetry.profiled()
        summary = run_simulation(SPEC, telemetry=telemetry)
        report = telemetry.profiler.report()
        assert report["events_fired"] == summary.events_fired
        assert (sum(p["events"] for p in report["phases"].values())
                == summary.events_fired)

    def test_phase_shares_sum_to_one(self):
        telemetry = Telemetry.profiled()
        run_simulation(SPEC, telemetry=telemetry)
        shares = sum(p["share"]
                     for p in telemetry.profiler.report()["phases"].values())
        assert abs(shares - 1.0) < 1e-9

    def test_known_phases_observed(self):
        telemetry = Telemetry.profiled()
        run_simulation(SPEC, telemetry=telemetry)
        report = telemetry.profiler.report()
        observed = {name for name, p in report["phases"].items()
                    if p["events"] > 0}
        assert observed <= set(PHASES)
        # An epoch-controlled uniform run exercises at least channels
        # and the controller.
        assert "channel" in observed
        assert "control" in observed

    def test_rates_and_samples(self):
        telemetry = Telemetry(profile=True, profile_sample_every=8)
        run_simulation(SPEC, telemetry=telemetry)
        profiler = telemetry.profiler
        assert profiler.events_per_second() > 0
        assert profiler.sim_ns_per_wall_second() > 0
        assert len(profiler.samples) >= 2
        # Samples are monotone in all three coordinates.
        for earlier, later in zip(profiler.samples, profiler.samples[1:]):
            assert later[0] >= earlier[0]
            assert later[1] >= earlier[1]
            assert later[2] > earlier[2]

    def test_classify_callback_covers_components(self):
        from repro.sim.channel import Channel
        from repro.sim.switch import Switch

        assert classify_callback(Channel._on_tx_done) == "channel"
        assert classify_callback(Switch.__init__) == "routing"

        def free_function():
            pass
        assert classify_callback(free_function) == "other"

    def test_attach_is_exclusive(self):
        import pytest

        class _Engine:
            profiler = None

        class _Network:
            sim = _Engine()

        network = _Network()
        PerfProfiler().attach(network)
        with pytest.raises(RuntimeError):
            PerfProfiler().attach(network)


class TestTraceExport:
    def test_profiled_trace_has_wall_tracks(self, tmp_path):
        from repro.obs.trace_export import export_trace, validate_trace

        out = tmp_path / "trace.json"
        trace = export_trace(SPEC, out, profile=True)
        assert validate_trace(trace) == []
        assert trace["otherData"]["wall_samples"] > 0
        names = {e["name"] for e in trace["traceEvents"]
                 if e["ph"] == "C"}
        assert "wall_ms" in names
        assert "events_per_sec" in names

    def test_unprofiled_trace_has_no_wall_tracks(self, tmp_path):
        from repro.obs.trace_export import export_trace

        trace = export_trace(SPEC, tmp_path / "trace.json")
        assert trace["otherData"]["wall_samples"] == 0


class TestOverhead:
    def test_detached_profiling_within_budget(self):
        # Same tripwire as test_obs_overhead: the detached branch is a
        # single is-None check, so a plain run after the profiling
        # hooks landed must stay within a loose self-relative budget.
        run_simulation(SPEC)
        plain = _best_of(3, lambda: run_simulation(SPEC))
        profiled = _best_of(
            3,
            lambda: run_simulation(SPEC, telemetry=Telemetry.profiled()))
        assert profiled < plain * 3.0 + 0.5, (
            f"profiled run {profiled:.3f}s vs plain {plain:.3f}s — "
            "per-event timing is no longer cheap")


class TestProfilerUnit:
    def test_sample_every_validation(self):
        import pytest

        with pytest.raises(ValueError):
            PerfProfiler(sample_every=-1)
        # 0 is legal: it disables checkpoint sampling entirely.
        assert PerfProfiler(sample_every=0).samples == []

    def test_report_is_json_safe(self):
        telemetry = Telemetry.profiled()
        run_simulation(SPEC, telemetry=telemetry)
        json.dumps(telemetry.profiler.report())

    def test_format_table_mentions_phases(self):
        telemetry = Telemetry.profiled()
        run_simulation(SPEC, telemetry=telemetry)
        table = telemetry.profiler.format_table()
        assert "events fired" in table
        assert "channel" in table


class TestCli:
    def test_perf_profile_prints_phase_table(self, tmp_path, capsys):
        report_path = tmp_path / "perf.json"
        code = main(["perf", "profile", "--k", "2", "--n", "2",
                     "--duration-ns", "150000",
                     "--json", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "events fired" in out
        report = json.loads(report_path.read_text())
        assert report["events_fired"] > 0
        assert report["spec"]["k"] == 2
