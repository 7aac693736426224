"""Rewrite ``perfbench/pins.json``: the benchmark's pinned inputs and
reference digests.

    python3 perfbench/pin.py

Run from the root of a source checkout, and only when a change to what
the benchmark times is intended.  For every workload it records the
content key of each default-seed input (``spec_key`` for simulation
specs, :func:`benchspec.arm_key` for service arms) and one digest per
run.  Digests of runs covered by ``tests/golden`` are taken from those
files, so the reference is not one the benchmark produced; the rest are
pinned from a live run, and every golden-covered run is run live too and
must already match its golden entry.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import benchspec  # noqa: E402

#: Why each workload is in the benchmark (also each ``why`` line of
#: BENCHMARK.json).
WHY = {
    "trace-epoch": "the paper's own path: Search and Advert traces at "
                   "6-9% load under the epoch controller, full-rate vs "
                   "paired vs independent (Figure 8)",
    "uniform-saturated": "packet hot path under a standing blocked "
                         "backlog (64 KB messages at 0.6 load); no "
                         "controller, so control changes predict no "
                         "change here",
    "campaign-sweep": "the sweep harness (workers, cache) plus restricted "
                      "routing, failsafe and topology control over six "
                      "chaos and demand-topology campaign arms",
    "service-campaign": "the live control-plane service on its virtual "
                        "clock, nine resilience arms; no packet "
                        "simulation, so sim changes predict no change",
}

#: The pinned run a held-out seed replays when none of the workload's
#: own runs is pinned at that seed (uniform-saturated is one run).
ANCHORS = {
    "trace-epoch": None,
    "uniform-saturated": ["trace-epoch", "search/paired"],
    "campaign-sweep": None,
    "service-campaign": None,
}

#: label -> (golden file, key path) for runs ``tests/golden`` covers.
GOLDEN = {
    "trace-epoch": {
        "search/paired": ("figure7", ("paired",)),
        "search/independent": ("figure7", ("independent",)),
    },
    "campaign-sweep": {
        **{f"chaos/{arm}": ("chaos", ("runs", arm))
           for arm in ("reference", "high/failsafe", "high/unprotected")},
        **{f"demand/{arm}": ("demand_topology", ("runs", arm))
           for arm in ("skewed/static", "skewed/degraded",
                       "skewed/demand")},
    },
    "service-campaign": {
        label: ("service_resilience", ("runs", label))
        for label in ("reference", "dropout/resilient",
                      "dropout/unprotected", "loss/resilient",
                      "loss/unprotected", "crash/resilient",
                      "crash/unprotected", "slow/resilient",
                      "slow/unprotected")
    },
}

#: Layer -> modules, metrics, the end-to-end metric each should move,
#: and where the layer is busy or idle.
LAYERS = [
    {"layer": "engine", "modules": ["repro.sim.engine"],
     "metrics": ["engine.events", "engine.schedules", "engine.cancels",
                 "engine.dispatch_s"],
     "moves": ["work_per_s"],
     "busy_on": ["trace-epoch", "uniform-saturated", "campaign-sweep"],
     "idle_on": ["service-campaign"]},
    {"layer": "channel", "modules": ["repro.sim.channel"],
     "metrics": ["channel.self_s", "channel.enqueue.calls",
                 "channel.release_credits.calls", "channel.credit_stalls",
                 "channel.set_rate.calls", "channel.set_rate.changed_frac",
                 "channel.reactivation_ns"],
     "moves": ["work_per_s"],
     "busy_on": ["uniform-saturated (credits)",
                 "trace-epoch (rate changes)"],
     "idle_on": ["service-campaign"]},
    {"layer": "switch + routing + topology",
     "modules": ["repro.sim.switch", "repro.routing", "repro.topology"],
     "metrics": ["switch.self_s", "switch.receive.calls",
                 "switch.packets_routed", "switch.on_output_space.calls",
                 "switch.on_output_space.s", "channel.can_enqueue.calls",
                 "channel.can_enqueue.true_frac",
                 "switch.can_enqueue_per_routed", "switch.escapes",
                 "routing.calls", "routing.s",
                 "routing.candidates_per_call",
                 "topology.calls_per_routed"],
     "moves": ["wall_s", "work_per_s"],
     "busy_on": ["uniform-saturated", "campaign-sweep",
                 "trace-epoch (moderate)"],
     "idle_on": ["service-campaign"]},
    {"layer": "host", "modules": ["repro.sim.host"],
     "metrics": ["host.self_s", "host.submit_message.calls",
                 "host.submit_message.s", "host.receive.calls"],
     "moves": ["work_per_s"],
     "busy_on": ["uniform-saturated"], "idle_on": ["service-campaign"]},
    {"layer": "workloads", "modules": ["repro.workloads"],
     "metrics": ["workload.self_s", "workload.events"],
     "moves": ["work_per_s"],
     "busy_on": ["trace-epoch"], "idle_on": ["service-campaign"]},
    {"layer": "stats + setup",
     "modules": ["repro.sim.stats", "repro.sim.fabric",
                 "repro.experiments.runner"],
     "metrics": ["setup.fabric_s", "setup.controller_s",
                 "stats.summarize_s"],
     "moves": ["setup_s", "wall_s"],
     "busy_on": ["campaign-sweep"], "idle_on": ["service-campaign"]},
    {"layer": "control", "modules": ["repro.core", "repro.topo",
                                     "repro.faults"],
     "metrics": ["control.self_s", "faults.self_s",
                 "control.policy_decide.calls",
                 "control.group_set_rate.calls",
                 "control.reconfigurations", "control.decision_records",
                 "control.decision_log.s"],
     "moves": ["wall_s"],
     "busy_on": ["trace-epoch", "campaign-sweep"],
     "idle_on": ["uniform-saturated"]},
    {"layer": "sweep harness",
     "modules": ["repro.experiments.sweep", "repro.experiments.cache"],
     "metrics": ["sweep.roundtrip_s", "sweep.run_max_s", "sweep.retried",
                 "sweep.failed", "cache.put.calls", "cache.put.s",
                 "cache.get.s", "cache.bytes"],
     "moves": ["wall_s", "setup_s"],
     "busy_on": ["campaign-sweep"],
     "idle_on": ["trace-epoch", "uniform-saturated", "service-campaign"]},
    {"layer": "service", "modules": ["repro.service"],
     "metrics": ["service.decisions", "service.ingest.calls",
                 "service.ingest.s", "service.ingest.accepted_frac",
                 "service.actuate.calls", "service.actuate.s",
                 "service.retries", "service.plant.s",
                 "service.checkpoint.calls", "service.checkpoint.s",
                 "service.checkpoint.bytes", "service.clock.s",
                 "service.decide_self_s", "service.restarts"],
     "moves": ["work_per_s"],
     "busy_on": ["service-campaign"],
     "idle_on": ["trace-epoch", "uniform-saturated", "campaign-sweep"]},
    {"layer": "tracing", "modules": ["perfbench"],
     "metrics": ["trace.overhead", "trace.unattributed_s"],
     "moves": [], "busy_on": ["all"], "idle_on": []},
]

#: Counters that must repeat exactly between two traced batches.
EXACT = ["engine.events", "channel.credit_stalls",
         "channel.reactivation_ns", "switch.packets_routed",
         "switch.escapes", "control.reconfigurations",
         "channel.can_enqueue.calls", "switch.on_output_space.calls",
         "cache.put.calls", "service.decisions", "service.retries",
         "service.restarts"]


def _golden_entry(name: str, path) -> object:
    entry = json.loads(
        (ROOT / "tests" / "golden" / f"{name}.json").read_text())
    for key in path:
        entry = entry[key]
    return entry


def main() -> int:
    from repro.experiments.service_resilience import CAMPAIGN_CONFIG
    benchspec.warm_up()
    pins = {"default_seed": benchspec.DEFAULT_SEED,
            "service_config": CAMPAIGN_CONFIG.to_dict(),
            "exact_counters": EXACT, "layers": LAYERS, "workloads": {}}
    status = 0
    for name, workload in benchspec.WORKLOADS.items():
        live = workload.run_batch(benchspec.DEFAULT_SEED)
        if live.problems:
            print(f"{name}: {live.problems}", file=sys.stderr)
            return 1
        digests = {}
        for label, sha in live.shas.items():
            source = GOLDEN.get(name, {}).get(label)
            if source is None:
                digests[label] = {"sha256": sha,
                                  "source": "perfbench/pin.py live run"}
                continue
            file, path = source
            golden = benchspec.digest_sha(_golden_entry(file, path))
            where = f"tests/golden/{file}.json:{'.'.join(path)}"
            if golden != sha:
                print(f"{name} {label}: live digest differs from {where}",
                      file=sys.stderr)
                status = 1
            digests[label] = {"sha256": golden, "source": where}
        pins["workloads"][name] = {
            "why": WHY[name],
            "input_keys": benchspec.input_keys(workload),
            "digests": digests,
            "anchor": ANCHORS[name],
        }
        print(f"{name}: pinned {len(digests)} runs "
              f"({live.wall_s:.1f} s)")
    benchspec.PINS_PATH.write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
