"""Unified benchmark suite: one registry, one runner, one artifact.

Every ``benchmarks/bench_*.py`` workload used to roll its own timing
and artifact code; this module is the single harness behind them and
behind the ``repro perf`` CLI:

- a **scenario registry** (:func:`register_scenario`,
  :func:`registered_scenarios`) covering every paper experiment, the
  engine microbenchmarks, the sweep-harness cold/warm pair and the
  predictive frontier batch;
- a **suite runner** (:func:`run_suite`) executing scenarios under a
  warmup/repeat policy and emitting one schema-versioned,
  provenance-stamped document (``BENCH_suite.json``: git SHA, spec
  digests, median + IQR wall seconds, events/sec per scenario);
- a **regression detector** (:func:`compare_suites`) with per-scenario
  tolerance bands — the gate every kernel PR runs through
  (``repro perf compare --baseline``);
- an **appendable history** (:func:`append_history`) so the benchmark
  trajectory accumulates run-over-run instead of evaporating.

Scenario timings run the experiments through a private single-worker,
cache-disabled sweep runner so a suite entry always measures live
simulation, never a cache hit; engine event counts ride along on
:class:`~repro.experiments.sweep.SweepStats` so every scenario reports
events/sec from the same accounting.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Version stamp of every document this module writes (suite runs,
#: bench artifacts, history lines); bump on any layout change.
SUITE_SCHEMA_VERSION = 1

#: Default fractional tolerance band for :func:`compare_suites` —
#: deliberately wide, because wall-clock on shared CI boxes is noisy;
#: per-scenario overrides travel inside the baseline document.
DEFAULT_TOLERANCE = 0.35

#: Absolute wall-clock slack on top of the relative band.  The
#: analytic scenarios complete in tens of microseconds, where a 2x
#: swing is pure scheduler noise; a median delta smaller than this
#: never changes a verdict, regardless of ratio.
MIN_DELTA_SECONDS = 0.001

#: Directory override for benchmark artifacts (shared with the
#: ``benchmarks/`` pytest modules).
ARTIFACT_DIR_ENV = "REPRO_BENCH_DIR"

#: Scenario verdicts :func:`compare_suites` can assign.
VERDICT_IMPROVED = "improved"
VERDICT_REGRESSED = "regressed"
VERDICT_WITHIN_BAND = "within_band"
VERDICT_NEW = "new_scenario"
VERDICT_MISSING = "missing_candidate"


@dataclass
class ScenarioRun:
    """What one scenario execution produced.

    Attributes:
        events: Engine events fired by the execution (0 when the
            scenario is analytic or served purely from caches).
        sim_ns: Simulated nanoseconds advanced, when meaningful.
        payload: The underlying result object, for the ``benchmarks/``
            assertions that ride on top of the shared runner.
    """

    events: int = 0
    sim_ns: float = 0.0
    payload: Any = None


@dataclass
class Scenario:
    """One registered benchmark scenario.

    Attributes:
        name: Registry key (also the ``BENCH_suite.json`` key).
        kind: ``"micro"`` | ``"sim"`` | ``"experiment"``.
        description: One line for ``repro perf list``.
        execute: ``(scale, jobs) -> ScenarioRun``; ``jobs`` is the
            sweep worker count (the suite pins 1 for stable timing,
            the pytest benchmarks pass ``None`` for the cpu default).
        quick: Included in ``repro perf run --quick``.
        warmup / repeats: Default policy for full suite runs.
        tolerance: Fractional regression band for this scenario.
        specs: Optional ``scale -> [SimulationSpec]`` enumerating the
            exact runs behind the scenario; their content keys are
            stamped into the document as ``spec_digests``.
    """

    name: str
    kind: str
    description: str
    execute: Callable[..., ScenarioRun]
    quick: bool = False
    warmup: int = 0
    repeats: int = 1
    tolerance: float = DEFAULT_TOLERANCE
    specs: Optional[Callable[[Any], List]] = None


_SCENARIOS: Dict[str, Scenario] = {}
_defaults_registered = False


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (name collisions are errors)."""
    if scenario.name in _SCENARIOS:
        raise ValueError(
            f"benchmark scenario {scenario.name!r} already registered")
    if scenario.kind not in ("micro", "sim", "experiment"):
        raise ValueError(f"unknown scenario kind {scenario.kind!r}")
    _SCENARIOS[scenario.name] = scenario
    return scenario


def registered_scenarios() -> List[str]:
    """Sorted names of every registered scenario."""
    ensure_default_scenarios()
    return sorted(_SCENARIOS)


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name (``ValueError`` with the full list)."""
    ensure_default_scenarios()
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark scenario {name!r}; registered: "
            f"{', '.join(sorted(_SCENARIOS))}") from None


# ---------------------------------------------------------------------------
# Default scenario set
# ---------------------------------------------------------------------------

def _fresh_runner(jobs):
    """A private sweep runner: no cache, no run log, honest timing."""
    from repro.experiments.sweep import SweepRunner
    return SweepRunner(jobs=1 if jobs is None else jobs, use_cache=False)


def _experiment_execute(run_fn, kind):
    """Build an executor timing one paper experiment end to end."""
    def execute(scale, jobs=1) -> ScenarioRun:
        from repro.experiments.sweep import using_runner
        runner = _fresh_runner(jobs)
        with using_runner(runner):
            payload = run_fn(scale=scale) if kind == "sim" else run_fn()
        return ScenarioRun(events=runner.stats.events_fired,
                           payload=payload)
    return execute


def _engine_events_execute(scale, jobs=1) -> ScenarioRun:
    """bench_simulator: raw engine event-dispatch throughput."""
    from repro.sim.engine import Simulator

    sim = Simulator()
    count = 20_000

    def chain(remaining):
        if remaining:
            sim.schedule(1.0, chain, remaining - 1)

    for _ in range(8):
        sim.schedule(0.0, chain, count // 8)
    sim.run()
    return ScenarioRun(events=sim.events_fired, sim_ns=sim.now,
                       payload=sim.events_fired)


def _network_packets_specs(scale) -> List:
    from repro.experiments.runner import SimulationSpec
    return [SimulationSpec(k=3, n=3, workload="uniform",
                           duration_ns=300_000.0, seed=1,
                           control="none", uniform_offered_load=0.2,
                           message_bytes=65536)]


def _network_packets_execute(scale, jobs=1) -> ScenarioRun:
    """bench_simulator: a full fabric run, measured at the engine."""
    from repro.experiments.runner import run_simulation

    [spec] = _network_packets_specs(scale)
    summary = run_simulation(spec)
    return ScenarioRun(events=summary.events_fired,
                       sim_ns=spec.duration_ns, payload=summary)


def _sweep_specs(scale) -> List:
    from repro.experiments.runner import SimulationSpec
    base = SimulationSpec(k=2, n=2, duration_ns=200_000.0)
    return [replace(base, seed=seed) for seed in range(1, 5)]


def _sweep_execute(warm: bool):
    """bench_sweep: the harness itself, against a cold or warm cache."""
    def execute(scale, jobs=1) -> ScenarioRun:
        import tempfile
        from repro.experiments.cache import SweepCache
        from repro.experiments.sweep import SweepRunner

        specs = _sweep_specs(scale)
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            cache = SweepCache(Path(tmp) / "cache")
            if warm:
                SweepRunner(jobs=1, cache=cache).run(specs)
            runner = SweepRunner(jobs=1 if jobs is None else jobs,
                                 cache=cache)
            started = time.perf_counter()
            results = runner.run(specs)
            elapsed = time.perf_counter() - started
            stats = runner.last_stats
        return ScenarioRun(events=stats.events_fired,
                           payload={"stats": stats.to_dict(),
                                    "results": results,
                                    "seconds": elapsed})
    return execute


def _predict_frontier_specs(scale) -> List:
    from repro.experiments.runner import (
        CONTROL_ORACLE, CONTROL_PREDICT, SimulationSpec, baseline_spec)
    base = SimulationSpec(k=2, n=3, workload="uniform",
                          duration_ns=1_500_000.0)
    specs: List = []
    for load in (0.05, 0.15, 0.30):
        reactive = replace(base, uniform_offered_load=load)
        specs.extend([
            baseline_spec(reactive),
            reactive,
            replace(reactive, control=CONTROL_PREDICT, policy="ladder",
                    target_utilization=0.5, forecaster="ewma",
                    headroom=0.1),
            replace(reactive, control=CONTROL_ORACLE),
        ])
    return specs


def _predict_frontier_execute(scale, jobs=1) -> ScenarioRun:
    """bench_predict: the reactive/predictive/oracle frontier batch."""
    runner = _fresh_runner(jobs)
    results = runner.run(_predict_frontier_specs(scale))
    return ScenarioRun(events=runner.stats.events_fired,
                       payload=results)


def _service_decide_execute(scale, jobs=1) -> ScenarioRun:
    """bench_service: one fault-free day of the live control plane.

    Times the full asyncio service (ingest, decision ladder, journaled
    actuation, checkpointing) in virtual time; the payload's decision
    latency percentiles and decisions/sec are the service-health
    numbers the resilience SLOs gate on.
    """
    import dataclasses

    from repro.experiments.service_resilience import CAMPAIGN_CONFIG
    from repro.service.service import ControlPlaneService

    config = dataclasses.replace(
        CAMPAIGN_CONFIG, epochs=CAMPAIGN_CONFIG.epochs_per_day)
    summary = ControlPlaneService(config).run()
    return ScenarioRun(events=summary.decisions,
                       sim_ns=config.duration_ns, payload=summary)


#: Experiments fast enough for ``--quick`` (the analytic tables plus
#: the smallest simulation sweeps stay out — quick is a smoke gate).
_QUICK_EXPERIMENTS = frozenset(
    ["table1", "table2", "figure1", "figure5", "figure6"])


def ensure_default_scenarios() -> None:
    """Idempotently register the default scenario set.

    One scenario per paper experiment (every figure/table/ablation
    benchmark), plus the engine microbenchmarks, the sweep harness
    cold/warm pair and the predictive frontier — everything the
    ``benchmarks/bench_*.py`` modules exercise.
    """
    global _defaults_registered
    if _defaults_registered:
        return
    _defaults_registered = True

    # Local import: repro.cli imports the experiments package; pulling
    # it in lazily keeps this module importable everywhere.
    from repro.cli import EXPERIMENTS

    for name in sorted(EXPERIMENTS):
        description, kind, run_fn = EXPERIMENTS[name]
        analytic = kind == "analytic"
        register_scenario(Scenario(
            name=name,
            kind="experiment",
            description=description,
            execute=_experiment_execute(run_fn, kind),
            quick=name in _QUICK_EXPERIMENTS,
            warmup=1 if analytic else 0,
            repeats=3 if analytic else 1,
        ))

    register_scenario(Scenario(
        name="engine-events", kind="micro",
        description="raw engine event-dispatch throughput",
        execute=_engine_events_execute, quick=True,
        warmup=1, repeats=5, tolerance=0.5))
    register_scenario(Scenario(
        name="network-packets", kind="sim",
        description="one k=3 n=3 uniform-workload fabric run",
        execute=_network_packets_execute, quick=True,
        warmup=1, repeats=3, tolerance=0.5,
        specs=_network_packets_specs))
    register_scenario(Scenario(
        name="sweep-cold", kind="sim",
        description="sweep harness over 4 specs, cold cache",
        execute=_sweep_execute(warm=False), quick=True,
        warmup=0, repeats=3, specs=_sweep_specs))
    register_scenario(Scenario(
        name="sweep-warm", kind="sim",
        description="sweep harness over 4 specs, warm cache",
        execute=_sweep_execute(warm=True), quick=True,
        warmup=0, repeats=3, specs=_sweep_specs))
    register_scenario(Scenario(
        name="predict-frontier", kind="sim",
        description="reactive/predictive/oracle frontier, 3 loads",
        execute=_predict_frontier_execute, quick=False,
        warmup=0, repeats=1, specs=_predict_frontier_specs))
    register_scenario(Scenario(
        name="service-decide", kind="sim",
        description="live service, one fault-free diurnal day",
        execute=_service_decide_execute, quick=True,
        warmup=1, repeats=3, tolerance=0.5))


# ---------------------------------------------------------------------------
# Suite execution
# ---------------------------------------------------------------------------

def _iqr(values: Sequence[float]) -> float:
    """Interquartile range via the inclusive median-split convention."""
    if len(values) < 2:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    lower = ordered[:mid]
    upper = ordered[mid + 1:] if len(ordered) % 2 else ordered[mid:]
    return median(upper) - median(lower)


def spec_digests(scenario: Scenario, scale) -> Optional[List[str]]:
    """Content keys of the exact specs behind a scenario, or ``None``.

    Deterministic across processes and ``PYTHONHASHSEED`` values: the
    digests are :func:`repro.experiments.cache.spec_key` content
    hashes, so a baseline pins not just timings but *which runs* were
    timed.
    """
    if scenario.specs is None:
        return None
    from repro.experiments.cache import spec_key
    return [spec_key(spec) for spec in scenario.specs(scale)]


def run_scenario_timed(scenario: Scenario, scale,
                       warmup: Optional[int] = None,
                       repeats: Optional[int] = None) -> Dict[str, Any]:
    """Execute one scenario under the warmup/repeat policy.

    Returns its ``BENCH_suite.json`` entry: the policy actually used,
    every repeat's wall seconds, median + IQR, the (deterministic)
    event count and the derived events/sec and sim-ns-per-wall-second
    rates.
    """
    warmup = scenario.warmup if warmup is None else warmup
    repeats = scenario.repeats if repeats is None else repeats
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    for _ in range(warmup):
        scenario.execute(scale, jobs=1)
    seconds: List[float] = []
    last: Optional[ScenarioRun] = None
    for _ in range(repeats):
        started = time.perf_counter()
        last = scenario.execute(scale, jobs=1)
        seconds.append(time.perf_counter() - started)
    median_s = median(seconds)
    events = last.events if last is not None else 0
    sim_ns = last.sim_ns if last is not None else 0.0
    return {
        "kind": scenario.kind,
        "description": scenario.description,
        "quick": scenario.quick,
        "tolerance": scenario.tolerance,
        "warmup": warmup,
        "repeats": repeats,
        "repeat_seconds": seconds,
        "median_seconds": median_s,
        "iqr_seconds": _iqr(seconds),
        "events": events,
        "events_per_sec": (events / median_s
                           if events and median_s > 0 else None),
        "sim_ns": sim_ns or None,
        "sim_ns_per_wall_second": (sim_ns / median_s
                                   if sim_ns and median_s > 0 else None),
        "spec_digests": spec_digests(scenario, scale),
    }


def run_suite(names: Optional[Sequence[str]] = None, quick: bool = False,
              scale=None, warmup: Optional[int] = None,
              repeats: Optional[int] = None,
              progress: Optional[Callable[[str], None]] = None
              ) -> Dict[str, Any]:
    """Run the registered suite and return the suite document.

    Args:
        names: Explicit scenario subset; default is every registered
            scenario (or the quick set with ``quick=True``).
        quick: Restrict to scenarios marked ``quick`` — the CI smoke
            configuration.
        scale: An :class:`~repro.experiments.scale.ExperimentScale`;
            default is ``$REPRO_SCALE``.
        warmup / repeats: Policy overrides applied to every scenario
            (default: each scenario's own policy).
        progress: Optional per-scenario callback (the CLI prints one
            line per finished scenario through it).
    """
    from repro.experiments.scale import current_scale
    from repro.obs.runrecord import collect_provenance

    ensure_default_scenarios()
    scale = scale if scale is not None else current_scale()
    if names is None:
        names = [name for name in registered_scenarios()
                 if not quick or _SCENARIOS[name].quick]
    scenarios: Dict[str, Dict[str, Any]] = {}
    for name in names:
        scenario = get_scenario(name)
        entry = run_scenario_timed(scenario, scale,
                                   warmup=warmup, repeats=repeats)
        scenarios[name] = entry
        if progress is not None:
            rate = entry["events_per_sec"]
            progress(f"{name:<22s} {entry['median_seconds']:>8.3f}s"
                     + (f"  {rate:>12,.0f} ev/s" if rate else ""))
    return {
        "suite_schema": SUITE_SCHEMA_VERSION,
        "kind": "suite",
        "quick": bool(quick),
        "scale": scale.name,
        "provenance": collect_provenance(),
        "scenarios": scenarios,
    }


def write_suite(doc: Dict[str, Any], path) -> Path:
    """Write a suite document as stable, diffable JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def read_suite(path) -> Dict[str, Any]:
    """Read and validate a suite document (``ValueError`` on problems)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    problems = validate_suite(doc)
    if problems:
        raise ValueError(f"{path}: invalid suite document: "
                         + "; ".join(problems))
    return doc


def validate_suite(doc: Any) -> List[str]:
    """Schema-check a suite document; returns problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["suite document is not a JSON object"]
    if doc.get("suite_schema") != SUITE_SCHEMA_VERSION:
        problems.append(
            f"suite_schema is {doc.get('suite_schema')!r}, expected "
            f"{SUITE_SCHEMA_VERSION}")
    if doc.get("kind") != "suite":
        problems.append(f"kind is {doc.get('kind')!r}, expected 'suite'")
    if not isinstance(doc.get("provenance"), dict):
        problems.append("provenance is missing or not an object")
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        return problems + ["scenarios is missing, not an object, or empty"]
    for name, entry in scenarios.items():
        where = f"scenarios[{name}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("median_seconds", "iqr_seconds", "tolerance"):
            if not isinstance(entry.get(key), (int, float)):
                problems.append(f"{where}: bad {key} {entry.get(key)!r}")
        reps = entry.get("repeat_seconds")
        if not isinstance(reps, list) or not reps:
            problems.append(f"{where}: repeat_seconds missing or empty")
        events = entry.get("events")
        if not isinstance(events, int) or events < 0:
            problems.append(f"{where}: bad events {events!r}")
    return problems


# ---------------------------------------------------------------------------
# Regression comparison
# ---------------------------------------------------------------------------

@dataclass
class ScenarioComparison:
    """One scenario's baseline-vs-candidate verdict."""

    name: str
    verdict: str
    baseline_median: Optional[float] = None
    candidate_median: Optional[float] = None
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def ratio(self) -> Optional[float]:
        """candidate / baseline median wall seconds (None when absent)."""
        if not self.baseline_median or self.candidate_median is None:
            return None
        return self.candidate_median / self.baseline_median

    def format_line(self) -> str:
        """One aligned report line: name, verdict, medians, band."""
        ratio = self.ratio
        detail = (f"{self.baseline_median:.3f}s -> "
                  f"{self.candidate_median:.3f}s ({ratio:5.2f}x, "
                  f"band +/-{self.tolerance:.0%})"
                  if ratio is not None else "")
        return f"{self.name:<22s} {self.verdict:<17s} {detail}".rstrip()


@dataclass
class SuiteComparison:
    """The full compare result ``repro perf compare`` reports."""

    scenarios: List[ScenarioComparison] = field(default_factory=list)

    @property
    def regressions(self) -> List[ScenarioComparison]:
        """Scenarios slower than the baseline beyond their band."""
        return [c for c in self.scenarios
                if c.verdict == VERDICT_REGRESSED]

    @property
    def improvements(self) -> List[ScenarioComparison]:
        """Scenarios faster than the baseline beyond their band."""
        return [c for c in self.scenarios
                if c.verdict == VERDICT_IMPROVED]

    @property
    def ok(self) -> bool:
        """True when no scenario regressed past its band."""
        return not self.regressions

    def format_lines(self) -> List[str]:
        """Per-scenario report lines plus a one-line tally."""
        lines = [c.format_line() for c in self.scenarios]
        lines.append(
            f"{len(self.scenarios)} scenario(s): "
            f"{len(self.regressions)} regressed, "
            f"{len(self.improvements)} improved, "
            f"{sum(1 for c in self.scenarios if c.verdict == VERDICT_WITHIN_BAND)} "
            f"within band")
        return lines


def compare_suites(baseline: Dict[str, Any], candidate: Dict[str, Any],
                   tolerance: Optional[float] = None) -> SuiteComparison:
    """Verdict each scenario: improved / regressed / within band.

    A scenario regresses when its candidate median wall time exceeds
    the baseline median by more than the tolerance band (the explicit
    ``tolerance`` argument, else the band stored in the baseline
    entry, else :data:`DEFAULT_TOLERANCE`); it improves when it is
    faster by more than the band.  Either verdict additionally
    requires the absolute median delta to exceed
    :data:`MIN_DELTA_SECONDS`, so microsecond-scale scenarios cannot
    flake the gate on timer noise.  Scenarios present on only one side
    are reported (``new_scenario`` / ``missing_candidate``) but never
    fail the comparison — quick candidates legitimately cover a subset
    of a full baseline.
    """
    result = SuiteComparison()
    base = baseline.get("scenarios", {})
    cand = candidate.get("scenarios", {})
    for name in sorted(set(base) | set(cand)):
        if name not in base:
            result.scenarios.append(ScenarioComparison(
                name=name, verdict=VERDICT_NEW,
                candidate_median=cand[name].get("median_seconds")))
            continue
        if name not in cand:
            result.scenarios.append(ScenarioComparison(
                name=name, verdict=VERDICT_MISSING,
                baseline_median=base[name].get("median_seconds")))
            continue
        band = (tolerance if tolerance is not None
                else base[name].get("tolerance", DEFAULT_TOLERANCE))
        base_median = float(base[name]["median_seconds"])
        cand_median = float(cand[name]["median_seconds"])
        delta = cand_median - base_median
        if (base_median > 0 and delta > MIN_DELTA_SECONDS
                and cand_median > base_median * (1.0 + band)):
            verdict = VERDICT_REGRESSED
        elif (base_median > 0 and -delta > MIN_DELTA_SECONDS
                and cand_median < base_median * (1.0 - band)):
            verdict = VERDICT_IMPROVED
        else:
            verdict = VERDICT_WITHIN_BAND
        result.scenarios.append(ScenarioComparison(
            name=name, verdict=verdict, baseline_median=base_median,
            candidate_median=cand_median, tolerance=band))
    return result


# ---------------------------------------------------------------------------
# History and shared bench artifacts
# ---------------------------------------------------------------------------

def append_history(path, doc: Dict[str, Any]) -> Dict[str, Any]:
    """Append one compact JSONL trajectory line for a suite run.

    Each line carries the timestamp, git SHA, scale and every
    scenario's median wall seconds and events/sec — enough to plot the
    repo's performance trajectory without retaining full documents.
    """
    entry = {
        "suite_schema": SUITE_SCHEMA_VERSION,
        "timestamp": time.time(),
        "git_sha": doc.get("provenance", {}).get("git_sha"),
        "scale": doc.get("scale"),
        "quick": doc.get("quick"),
        "scenarios": {
            name: {
                "median_seconds": scenario.get("median_seconds"),
                "events_per_sec": scenario.get("events_per_sec"),
            }
            for name, scenario in doc.get("scenarios", {}).items()
        },
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def artifact_document(benchmark: str,
                      payload: Dict[str, Any]) -> Dict[str, Any]:
    """A schema-versioned, provenance-stamped bench artifact document.

    The ``benchmarks/bench_sweep.py`` / ``bench_predict.py`` artifacts
    (``BENCH_sweep.json``, ``BENCH_predict.json``) are built through
    this instead of hand-rolled dicts, so every benchmark artifact in
    CI shares one envelope.
    """
    from repro.obs.runrecord import collect_provenance

    return {
        "suite_schema": SUITE_SCHEMA_VERSION,
        "kind": "bench_artifact",
        "benchmark": benchmark,
        "provenance": collect_provenance(),
        **payload,
    }


def write_bench_artifact(filename: str, benchmark: str,
                         payload: Dict[str, Any],
                         out_dir=None) -> Path:
    """Write a bench artifact into ``$REPRO_BENCH_DIR`` (or cwd)."""
    import os

    directory = Path(out_dir if out_dir is not None
                     else os.environ.get(ARTIFACT_DIR_ENV, "."))
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / filename
    doc = artifact_document(benchmark, payload)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
