"""The benchmark's workloads: inputs from a seed, one timed batch, checks.

Each workload is a fixed batch of runs driven through the program's
public entry points -- ``run_simulation``, ``SweepRunner.run`` and
``ControlPlaneService.run``.  The batch is a pure function of the
workload seed; :data:`DEFAULT_SEED` rebuilds exactly the runs that
``tests/golden`` and ``pins.json`` pin, so every run's digest can be
compared with a reference the benchmark did not produce itself.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import benchtrace

#: The seed whose batches reproduce the pinned digests.
DEFAULT_SEED = 0

#: Scratch space (campaign caches, span dumps), inside the checkout.
WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench"

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def digest_sha(payload: Any) -> str:
    """SHA-256 of a digest's canonical JSON (floats in ``repr`` form,
    so equal hashes mean bit-identical numbers)."""
    canonical = json.loads(json.dumps(payload))
    return hashlib.sha256(json.dumps(
        canonical, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

# Each workload moves one run with the benchmark seed -- the held-out
# probe -- and keeps the others at their pinned seeds.  The pinned runs
# are checked against their reference digests at every seed, and the
# timed work barely moves with the seed: at these sizes the Search and
# Advert traces' volume alone varies by 15-25% (interquartile) between
# seeds, which would swamp the timing.

def trace_epoch_specs(seed: int):
    """Figure 8's trace half: Search and Advert, each as a full-rate
    baseline, under paired and under independent epoch control.  The
    seed moves Search under paired control."""
    from repro.experiments.runner import SimulationSpec, baseline_spec
    specs = {}
    for workload in ("search", "advert"):
        # SimulationSpec's defaults are the small scale (k=4, n=3,
        # 2 ms) and seed 1 that Figure 7's golden pins.
        paired = SimulationSpec(workload=workload)
        specs[f"{workload}/baseline"] = baseline_spec(paired)
        specs[f"{workload}/paired"] = paired
        specs[f"{workload}/independent"] = dataclasses.replace(
            paired, independent_channels=True)
    specs["search/paired"] = SimulationSpec(workload="search",
                                            seed=1 + seed)
    return specs


def uniform_saturated_specs(seed: int):
    """Uniform random 64 KB messages at 0.6 load, no controller; its
    volume varies little between seeds, so the seed moves it."""
    from repro.experiments.runner import CONTROL_NONE, SimulationSpec
    return {"uniform/saturated": SimulationSpec(
        workload="uniform", control=CONTROL_NONE,
        uniform_offered_load=0.6, message_bytes=65536,
        duration_ns=1_000_000.0, seed=1 + seed)}


def campaign_sweep_specs(seed: int):
    """Three chaos arms and three demand-topology arms.  The seed moves
    the chaos reference arm."""
    from repro.experiments import chaos, demand_topology
    chaos_specs = chaos.build_specs()
    topo_specs = demand_topology.build_specs()
    specs = {f"chaos/{label}": chaos_specs[label]
             for label in ("reference", "high/failsafe",
                           "high/unprotected")}
    specs.update({f"demand/{label}": topo_specs[label]
                  for label in ("skewed/static", "skewed/degraded",
                                "skewed/demand")})
    specs["chaos/reference"] = chaos.build_specs(
        seed=chaos.CAMPAIGN_SEED + seed)["reference"]
    return specs


def service_campaign_arms(seed: int):
    """The nine service-resilience arms.  The seed moves the reference
    arm's demand trace."""
    from repro.experiments import service_resilience
    arms = service_resilience.build_arms()
    config, scenario, slow = arms["reference"]
    arms["reference"] = (
        dataclasses.replace(config, seed=config.seed + seed),
        scenario, slow)
    return arms


def arm_key(arm) -> str:
    """Content key of one service arm (config, fault scenario, slow
    consumer): the service counterpart of ``spec_key``."""
    config, scenario, slow = arm
    return hashlib.sha256(json.dumps(
        {"config": config.to_dict(), "scenario": repr(scenario),
         "slow": repr(slow)}, sort_keys=True).encode("utf-8")).hexdigest()


def input_keys(workload: "Workload",
               seed: int = DEFAULT_SEED) -> Dict[str, str]:
    """Label -> content key of the batch's inputs at ``seed``."""
    if workload.service:
        return {label: arm_key(arm)
                for label, arm in workload.inputs(seed).items()}
    from repro.experiments.cache import spec_key
    return {label: spec_key(spec)
            for label, spec in workload.inputs(seed).items()}


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    """One batch of a workload, timed and checked."""

    wall_s: float = 0.0
    #: Harness seconds before the first run starts (pool start).
    harness_setup_s: float = 0.0
    work: int = 0
    shas: Dict[str, str] = field(default_factory=dict)
    #: ``(label, what went wrong)`` per failed check.
    problems: List[Tuple[str, str]] = field(default_factory=list)
    #: Layer metrics; filled by traced batches only.
    layers: Dict[str, float] = field(default_factory=dict)


def _sim_invariants(label: str, summary) -> List[Tuple[str, str]]:
    problems = []
    if summary.events_fired <= 0:
        problems.append((label, "fired no events"))
    if summary.messages_delivered <= 0:
        problems.append((label, "delivered no messages"))
    if not 0.0 <= summary.delivered_fraction <= 1.0:
        problems.append((label, f"delivered_fraction "
                         f"{summary.delivered_fraction} outside [0, 1]"))
    return problems


def _service_invariants(label: str, config,
                        summary) -> List[Tuple[str, str]]:
    problems = []
    if summary.epochs != config.epochs:
        problems.append((label, f"ran {summary.epochs} of "
                         f"{config.epochs} epochs"))
    if summary.decisions <= 0:
        problems.append((label, "made no decisions"))
    if not 0.0 <= summary.served_fraction <= 1.0 + 1e-9:
        problems.append((label, f"served_fraction "
                         f"{summary.served_fraction} outside [0, 1]"))
    return problems


def _sum_profiles(timings) -> Dict[str, float]:
    """Engine phase seconds/events summed over traced runs."""
    out: Dict[str, float] = {}
    for timing in timings:
        profile = timing["profile"]
        out["dispatch_s"] = out.get("dispatch_s", 0.0) \
            + profile["dispatch_seconds"]
        for phase, row in profile["phases"].items():
            out[f"{phase}.s"] = out.get(f"{phase}.s", 0.0) + row["seconds"]
            out[f"{phase}.events"] = out.get(f"{phase}.events", 0) \
                + row["events"]
    return out


def _merge_trace(into: Dict[str, Any], snapshot: Dict[str, Any]) -> None:
    counts = into.setdefault("counts", {})
    for name, value in snapshot["counts"].items():
        counts[name] = counts.get(name, 0) + value
    spans = into.setdefault("spans", {})
    for name, row in snapshot["spans"].items():
        acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        for key in acc:
            acc[key] += row[key]


def _error(exc: Exception) -> str:
    return "raised " + "".join(
        traceback.format_exception_only(type(exc), exc)).strip()


def _sim_batch(specs, runs, wall_s: float, trace,
               errors: Optional[Dict[str, str]] = None) -> Batch:
    """Fold ``{label: (summary, timings)}`` into a :class:`Batch`."""
    from repro.experiments.cache import summary_digest
    batch = Batch(wall_s=wall_s)
    for label in specs:
        if label not in runs:
            batch.problems.append(
                (label, (errors or {}).get(label, "produced no summary")))
            continue
        summary, _ = runs[label]
        batch.shas[label] = digest_sha(summary_digest(summary))
        batch.problems.extend(_sim_invariants(label, summary))
        batch.work += summary.events_fired
    if trace is not None:
        summaries = [summary for summary, _ in runs.values()]
        timings = [timing for _, timing in runs.values()]
        batch.layers = sim_layers(summaries, timings, trace)
    return batch


def sim_layers(summaries, timings, trace) -> Dict[str, float]:
    """Per-layer metrics of one traced batch of simulation runs."""
    counts = trace.get("counts", {})
    spans = trace.get("spans", {})
    profile = _sum_profiles(timings)

    def c(name):
        return counts.get(name, 0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    routed = c("switch.packets_routed")
    return {
        "engine.events": sum(s.events_fired for s in summaries),
        "engine.schedules": c("engine.schedules"),
        "engine.cancels": c("engine.cancels"),
        "engine.dispatch_s": profile.get("dispatch_s", 0.0),
        "channel.self_s": profile.get("channel.s", 0.0),
        "channel.enqueue.calls": c("channel.enqueue.calls"),
        "channel.release_credits.calls": c("channel.release_credits.calls"),
        "channel.credit_stalls": c("channel.credit_stalls"),
        "channel.reactivation_ns": c("channel.reactivation_ns"),
        "channel.set_rate.calls": c("channel.set_rate.calls"),
        "channel.set_rate.changed_frac": ratio(
            c("channel.set_rate.changed"), c("channel.set_rate.calls")),
        "switch.self_s": profile.get("routing.s", 0.0),
        "switch.receive.calls": c("switch.receive.calls"),
        "switch.packets_routed": routed,
        "switch.on_output_space.calls": calls("switch.on_output_space"),
        "switch.on_output_space.s": total("switch.on_output_space"),
        "channel.can_enqueue.calls": c("channel.can_enqueue.calls"),
        "channel.can_enqueue.true_frac": ratio(
            c("channel.can_enqueue.true"), c("channel.can_enqueue.calls")),
        "switch.can_enqueue_per_routed": ratio(
            c("channel.can_enqueue.calls"), routed),
        "switch.escapes": sum(s.escapes for s in summaries),
        "routing.calls": calls("routing"),
        "routing.s": total("routing"),
        "routing.candidates_per_call": ratio(c("routing.candidates"),
                                             calls("routing")),
        "topology.calls_per_routed": ratio(c("topology.calls"), routed),
        "host.self_s": profile.get("host.s", 0.0),
        "host.submit_message.calls": calls("host.submit_message"),
        "host.submit_message.s": total("host.submit_message"),
        "host.receive.calls": c("host.receive.calls"),
        "workload.self_s": profile.get("workload.s", 0.0),
        "workload.events": profile.get("workload.events", 0),
        "setup.fabric_s": total("setup.fabric"),
        "setup.controller_s": total("setup.controller"),
        "stats.summarize_s": sum(t["summarize_s"] for t in timings),
        "control.self_s": profile.get("control.s", 0.0),
        "faults.self_s": profile.get("faults.s", 0.0),
        "control.policy_decide.calls": c("control.policy_decide.calls"),
        "control.group_set_rate.calls": c("control.group_set_rate.calls"),
        "control.reconfigurations": sum(s.reconfigurations
                                        for s in summaries),
        "control.decision_records": calls("control.decision_log"),
        "control.decision_log.s": total("control.decision_log"),
    }


def run_sims_inprocess(specs, tracer=None) -> Batch:
    """Run a batch serially in this process, each through
    ``run_simulation``."""
    runs, errors = {}, {}
    started = perf_counter()
    for label, spec in specs.items():
        try:
            runs[label] = benchtrace.timed_run(spec, tracer=tracer)
        except Exception as exc:  # counted as a failed run, not fatal
            errors[label] = _error(exc)
    wall_s = perf_counter() - started
    trace = tracer.snapshot() if tracer is not None else None
    batch = _sim_batch(specs, runs, wall_s, trace, errors)
    if trace is not None:
        covered = sum(timing["loop_s"] + timing["summarize_s"]
                      for _, timing in runs.values())
        batch.layers["trace.unattributed_s"] = wall_s - covered - (
            batch.layers["setup.fabric_s"]
            + batch.layers["setup.controller_s"])
    return batch


def run_sims_sweep(specs, tracer=None) -> Batch:
    """Run a batch through ``SweepRunner`` into a fresh cache directory.

    Workers spool their timings to files, so the summaries the harness
    caches are exactly those of an unobserved run.
    """
    from repro.experiments.cache import spec_key
    from repro.experiments.sweep import SweepRunner
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="sweep-", dir=WORK_DIR))
    cache_dir, spool = scratch / "cache", scratch / "spool"
    spool.mkdir()
    worker = (benchtrace.sweep_worker_traced if tracer is not None
              else benchtrace.sweep_worker_timed)
    runner = SweepRunner(jobs=min(2, os.cpu_count() or 1),
                         cache_dir=cache_dir, worker_fn=worker)
    os.environ[benchtrace.SPOOL_ENV] = str(spool)
    try:
        entered = time.time()
        started = perf_counter()
        by_spec = runner.run(list(specs.values()))
        wall_s = perf_counter() - started
        cache_bytes = sum(p.stat().st_size
                          for p in cache_dir.rglob("*") if p.is_file())
        timings = {}
        for path in spool.iterdir():
            for line in path.read_text().splitlines():
                timing = json.loads(line)
                timings[timing["spec_key"]] = timing
    finally:
        del os.environ[benchtrace.SPOOL_ENV]
        shutil.rmtree(scratch, ignore_errors=True)
    runs = {label: (by_spec[spec], timings[spec_key(spec)])
            for label, spec in specs.items()
            if spec in by_spec and spec_key(spec) in timings}
    trace = None
    if tracer is not None:
        trace = {}
        for _, timing in runs.values():
            _merge_trace(trace, timing["trace"])
    batch = _sim_batch(specs, runs, wall_s, trace)
    stats = runner.last_stats
    if stats.failed or stats.retried:
        batch.problems.append(("sweep", f"retried {stats.retried} and "
                               f"failed {stats.failed} runs"))
    # Pool start and the first worker round-trip come before any run.
    first_entry = min((timing["entered_unix_s"]
                       for _, timing in runs.values()), default=entered)
    batch.harness_setup_s = max(0.0, first_entry - entered)
    if tracer is not None:
        busy: Dict[int, float] = {}
        for summary, timing in runs.values():
            busy[timing["pid"]] = busy.get(timing["pid"], 0.0) \
                + summary.wall_seconds
        parent = tracer.snapshot()["spans"]
        cache_s = sum(parent.get(name, {}).get("total_s", 0.0)
                      for name in ("cache.get", "cache.put"))
        batch.layers.update({
            "sweep.roundtrip_s": sum(wall_s - b for b in busy.values())
            / max(1, len(busy)),
            "sweep.run_max_s": stats.run_seconds_max,
            "sweep.retried": stats.retried,
            "sweep.failed": stats.failed,
            "cache.put.calls": parent.get("cache.put", {}).get("calls", 0),
            "cache.put.s": parent.get("cache.put", {}).get("total_s", 0.0),
            "cache.get.s": parent.get("cache.get", {}).get("total_s", 0.0),
            "cache.bytes": cache_bytes,
            "trace.unattributed_s": wall_s - cache_s - max(
                busy.values(), default=0.0),
        })
    return batch


def run_service(arms, tracer=None) -> Batch:
    """Run every service arm to its horizon on the virtual clock."""
    from repro.service.service import ControlPlaneService
    batch = Batch()
    summaries = {}
    started = perf_counter()
    for label, (config, scenario, slow) in arms.items():
        try:
            summaries[label] = ControlPlaneService(
                config, scenario=scenario, slow=slow).run()
        except Exception as exc:  # counted as a failed run, not fatal
            batch.problems.append((label, _error(exc)))
    batch.wall_s = perf_counter() - started
    for label, summary in summaries.items():
        batch.shas[label] = digest_sha(summary.digest())
        batch.problems.extend(
            _service_invariants(label, arms[label][0], summary))
        batch.work += summary.decisions
    if tracer is not None:
        trace = tracer.snapshot()
        batch.layers = service_layers(
            list(summaries.values()), trace, batch)
    return batch


def service_layers(summaries, trace, batch: Batch):
    """Per-layer metrics of one traced batch of service arms."""
    counts, spans = trace["counts"], trace["spans"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    ingests = calls("service.ingest")
    return {
        "service.decisions": sum(s.decisions for s in summaries),
        "service.retries": sum(s.retries for s in summaries),
        "service.restarts": sum(s.restarts for s in summaries),
        "service.ingest.calls": ingests,
        "service.ingest.s": total("service.ingest"),
        "service.ingest.accepted_frac": (
            counts.get("service.ingest.accepted", 0) / ingests
            if ingests else 0.0),
        "service.actuate.calls": calls("service.actuate"),
        "service.actuate.s": total("service.actuate"),
        "service.plant.s": total("service.plant"),
        "service.checkpoint.calls": calls("service.checkpoint"),
        "service.checkpoint.s": total("service.checkpoint"),
        "service.checkpoint.bytes": counts.get("service.checkpoint.bytes",
                                               0),
        "service.clock.s": total("service.clock"),
        "service.decide_self_s": spans.get("service.run", {}).get(
            "self_s", 0.0),
        "trace.unattributed_s": batch.wall_s - total("service.run"),
    }


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: seed -> {label: input}; labels are stable across seeds.
    inputs: Callable[[int], Dict[str, Any]]
    #: (inputs, tracer) -> Batch.
    runner: Callable[..., Batch]
    #: Wraps installed in this process for a traced batch.
    install: Callable[[benchtrace.Tracer], None]
    #: True when the inputs are service arms, not simulation specs.
    service: bool = False

    def run_batch(self, seed: int, tracer=None) -> Batch:
        return self.runner(self.inputs(seed), tracer)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("trace-epoch", trace_epoch_specs, run_sims_inprocess,
                 benchtrace.Tracer.install_sim),
        Workload("uniform-saturated", uniform_saturated_specs,
                 run_sims_inprocess, benchtrace.Tracer.install_sim),
        Workload("campaign-sweep", campaign_sweep_specs, run_sims_sweep,
                 benchtrace.Tracer.install_sweep),
        Workload("service-campaign", service_campaign_arms, run_service,
                 benchtrace.Tracer.install_service, service=True),
    )
}


def anchor_batch(workload: Workload, label: str) -> Batch:
    """The default-seed run ``label`` of ``workload``, alone and in
    this process: a held-out seed's check against a pinned digest."""
    unit = {label: workload.inputs(DEFAULT_SEED)[label]}
    if workload.service:
        return run_service(unit)
    return run_sims_inprocess(unit)


def sample_setups(workload: Workload, seed: int, repeats: int,
                  samples: Dict[str, List[float]]) -> None:
    """Time ``repeats`` set-ups of every run of the batch into
    ``samples[label]``.

    A simulation's set-up is everything ``run_simulation`` does before
    the first event (fabric, channels, controller, faults, workload); a
    service arm's is the ``ControlPlaneService`` constructor (service,
    plant, trace source).
    """
    from repro.service.service import ControlPlaneService
    for label, arm in workload.inputs(seed).items():
        for _ in range(repeats):
            if workload.service:
                config, scenario, slow = arm
                started = perf_counter()
                ControlPlaneService(config, scenario=scenario, slow=slow)
                samples[label].append(perf_counter() - started)
            else:
                samples[label].append(benchtrace.setup_seconds(arm))


def load_pins() -> Dict[str, Any]:
    """The pinned inputs, digests and layer table."""
    return json.loads(PINS_PATH.read_text())


def warm_up() -> None:
    """Import every module the workloads load lazily, and run one tiny
    simulation, so no batch pays first-use costs."""
    import repro.core.failsafe  # noqa: F401
    import repro.experiments.sweep  # noqa: F401
    import repro.faults  # noqa: F401
    import repro.faults.control_faults  # noqa: F401
    import repro.predict  # noqa: F401
    import repro.routing.restricted  # noqa: F401
    import repro.service.service  # noqa: F401
    import repro.sim.faults  # noqa: F401
    import repro.topo  # noqa: F401
    import repro.workloads.matrix  # noqa: F401
    from repro.experiments.runner import SimulationSpec
    benchtrace.timed_run(SimulationSpec(duration_ns=20_000.0))
