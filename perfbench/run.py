"""One command for the repository's benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload runs in a fresh process (``--workload all``
starts one child per workload), imports everything and warms up before
timing, then repeats its batch for about ``--seconds`` seconds and
reports the median batch.  ``--trace 1`` instead runs one untraced and
two traced batches and reports the per-layer metrics.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every run's digest is checked: a run whose input is pinned must
reproduce its digest in ``pins.json`` (golden-covered entries are taken
from ``tests/golden``), and every batch must repeat the first batch's
digests.  The seed moves one probe run per workload; at a held-out seed
its pinned check is skipped, and a workload left with no pinned run
replays one after timing.  The command exits 1 when a check fails and
2 when it cannot run: the checkout has no ``src/repro``, or the inputs
it builds no longer match ``pins.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import benchspec  # noqa: E402
from benchtrace import Tracer  # noqa: E402

#: Timed batches per run at least, however long one takes.
MIN_BATCHES = 2
#: Traced batches per traced run; their exact counters must agree.
TRACED_BATCHES = 2
#: Set-ups timed per run of the batch before and after each batch;
#: ``setup_s`` sums the per-run medians.
SETUP_REPEATS = 5


def _benchmark_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _peak_rss_mb() -> float:
    """Peak resident MB of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _check_inputs(pins) -> List[str]:
    """Differences between the inputs built now and the pinned ones."""
    problems = []
    for name, workload in benchspec.WORKLOADS.items():
        pinned = pins["workloads"][name]["input_keys"]
        built = benchspec.input_keys(workload)
        if built != pinned:
            changed = sorted(set(built) ^ set(pinned)) or sorted(
                label for label in built if built[label] != pinned[label])
            problems.append(f"{name}: inputs differ from pins.json "
                            f"({', '.join(changed)})")
    return problems


def _verify(name: str, seed: int, batches,
            pins) -> Tuple[int, int, List[str]]:
    """Check every run of ``batches``; returns (attempted, failed,
    notes)."""
    workload = benchspec.WORKLOADS[name]
    keys = benchspec.input_keys(workload, seed)
    pinned_keys = pins["workloads"][name]["input_keys"]
    # A run whose input is a pinned input must reproduce the pinned
    # digest; at a held-out seed that is the seed-independent part.
    pinned = {label: pins["workloads"][name]["digests"][label]
              for label, key in keys.items() if pinned_keys[label] == key}
    failed_runs = set()
    notes = []
    attempted = len(keys) * len(batches)
    first = batches[0].shas
    for index, batch in enumerate(batches):
        for label, what in batch.problems:
            failed_runs.add((index, label))
            notes.append(f"batch {index} {label}: {what}")
        for label, sha in batch.shas.items():
            if first.get(label) != sha:
                failed_runs.add((index, label))
                notes.append(f"batch {index} {label}: digest differs "
                             f"from batch 0 (not repeatable)")
            if label in pinned and pinned[label]["sha256"] != sha:
                failed_runs.add((index, label))
                notes.append(f"batch {index} {label}: digest differs "
                             f"from {pinned[label]['source']}")
    held_out = sorted(set(keys) - set(pinned))
    if held_out:
        notes.append(f"seed {seed} is held out: pinned-digest check "
                     f"skipped for {', '.join(held_out)}")
    if not pinned:
        owner, label = pins["workloads"][name]["anchor"]
        reference = pins["workloads"][owner]["digests"][label]
        notes.append(f"replaying pinned run {owner} {label}")
        anchor = benchspec.anchor_batch(benchspec.WORKLOADS[owner], label)
        attempted += 1
        if anchor.problems or anchor.shas.get(label) \
                != reference["sha256"]:
            failed_runs.add(("anchor", label))
            notes.append(f"anchor {owner} {label}: digest differs from "
                         f"{reference['source']}")
    return attempted, min(attempted, len(failed_runs)), notes


def _timed(workload, seed: int, seconds: float):
    """At least :data:`MIN_BATCHES` batches, then more until the next
    would overrun ``seconds``; returns them and the batch's set-up
    time.

    Set-ups are sampled before and after every batch, so their median
    spans the whole run rather than one moment of it.
    """
    samples: Dict[str, List[float]] = defaultdict(list)
    benchspec.sample_setups(workload, seed, SETUP_REPEATS, samples)
    batches = []
    started = perf_counter()
    while True:
        batches.append(workload.run_batch(seed))
        benchspec.sample_setups(workload, seed, SETUP_REPEATS, samples)
        elapsed = perf_counter() - started
        typical = statistics.median(b.wall_s for b in batches)
        if len(batches) >= MIN_BATCHES and elapsed + typical > seconds:
            break
    setup_s = sum(statistics.median(runs) for runs in samples.values()) \
        + statistics.median(b.harness_setup_s for b in batches)
    return batches, setup_s


def _metrics_timed(batches, setup_s: float) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(b.wall_s for b in batches),
        "setup_s": setup_s,
        "work_per_s": statistics.median(b.work / b.wall_s
                                        for b in batches),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _traced(workload, seed: int, exact: List[str]):
    """One untraced batch, then traced ones whose ``exact`` counters
    must agree; returns (batches, layer metrics, notes)."""
    untraced = workload.run_batch(seed)
    tracer = Tracer()
    workload.install(tracer)
    traced = []
    try:
        for _ in range(TRACED_BATCHES):
            tracer.reset()
            traced.append(workload.run_batch(seed, tracer))
    finally:
        tracer.uninstall()
    notes = []
    counters = {c: traced[0].layers[c] for c in exact
                 if c in traced[0].layers}
    for index, batch in enumerate(traced[1:], start=1):
        for counter, value in counters.items():
            if batch.layers[counter] != value:
                batch.problems.append((
                    "trace", f"exact counter {counter} = "
                    f"{batch.layers[counter]} in traced batch {index}, "
                    f"{value} in traced batch 0"))
    layers: Dict[str, float] = {}
    for counter in traced[0].layers:
        layers[counter] = statistics.mean(b.layers[counter]
                                          for b in traced)
    layers["trace.overhead"] = statistics.median(
        b.wall_s for b in traced) / untraced.wall_s - 1.0
    benchspec.WORK_DIR.mkdir(exist_ok=True)
    dump = benchspec.WORK_DIR / f"trace-{workload.name}-seed{seed}.json"
    dump.write_text(json.dumps({
        "workload": workload.name, "seed": seed,
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": [b.wall_s for b in traced],
        "layers": layers, "exact": counters,
        "spans": tracer.snapshot()}, indent=1, sort_keys=True))
    notes.append(f"spans written to {dump.relative_to(ROOT)}")
    return [untraced] + traced, layers, notes


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Benchmark one workload in this process; prints the result."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; run "
              f"from the root of a source checkout", file=sys.stderr)
        return 2
    pins = benchspec.load_pins()
    drift = _check_inputs(pins)
    if drift:
        for line in drift:
            print(f"perfbench: {line}", file=sys.stderr)
        print("perfbench: refusing to time inputs that are not the "
              "pinned ones; re-pin with perfbench/pin.py only if the "
              "change is intended", file=sys.stderr)
        return 2
    config = _benchmark_config()
    layered = {metric for row in pins["layers"] for metric in row["metrics"]}
    if {m["name"] for m in config["per_layer"]} != layered:
        print("perfbench: BENCHMARK.json per_layer and the layer table in "
              "pins.json name different metrics", file=sys.stderr)
        return 2
    benchspec.warm_up()
    workload = benchspec.WORKLOADS[name]
    if trace:
        batches, values, notes = _traced(workload, seed,
                                         pins["exact_counters"])
        declared = config["per_layer"]
        # Idle layers report zero on this workload.
        values = {m["name"]: values.get(m["name"], 0) for m in declared}
    else:
        batches, setup_s = _timed(workload, seed, seconds)
        values = _metrics_timed(batches, setup_s)
        notes = ["batch wall_s: " + " ".join(
            f"{batch.wall_s:.3f}" for batch in batches)]
        declared = config["end_to_end"]
    attempted, failed, checks = _verify(name, seed, batches,
                                        pins)
    for line in notes + checks:
        print(f"perfbench: {line}")
    print(f"perfbench: {name} seed {seed}: {len(batches)} batches, "
          f"{attempted} runs checked, {failed} failed")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh child process."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    status = 0
    for name in benchspec.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if child.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        status = max(status, child.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, row in result["metrics"].items():
            combined["metrics"][f"{name}:{metric}"] = row
            print(f"{name:18s} {metric:34s} {row['value']:>16.6g} "
                  f"{row['unit']}")
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "trace-epoch", "uniform-saturated",
                                 "campaign-sweep", "service-campaign"])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 carries the pinned digests")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = float(_benchmark_config()["run_seconds"])
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace))
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
