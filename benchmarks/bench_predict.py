"""Predictive control: the power-vs-latency frontier against the oracle.

Benchmarks the `repro predict` experiment's core comparison — the
reactive threshold controller, the EWMA predictive controller, and the
clairvoyant oracle — on the uniform workload at three offered loads.
Each point on the frontier is one full discrete-event run, so the
benchmark also tracks what a predictive sweep costs run-over-run.

Besides the pytest-benchmark timing, the benchmark records the measured
power fraction and mean/p99 latency per controller per load in
``benchmark.extra_info["frontier"]``, so ``--benchmark-json PATH``
archives how the frontier moves as the subsystem evolves.
"""

from dataclasses import replace

from conftest import measure

from repro.experiments.runner import (
    CONTROL_ORACLE,
    CONTROL_PREDICT,
    SimulationSpec,
    baseline_spec,
)
from repro.experiments.sweep import sweep

#: Offered loads the frontier is sampled at (fractions of bisection).
LOADS = (0.05, 0.15, 0.30)

BASE = SimulationSpec(k=2, n=3, workload="uniform",
                      duration_ns=1_500_000.0)


def controller_specs(load):
    reactive = replace(BASE, uniform_offered_load=load)
    return {
        "baseline": baseline_spec(reactive),
        "reactive": reactive,
        "ewma": replace(reactive, control=CONTROL_PREDICT,
                        policy="ladder", target_utilization=0.5,
                        forecaster="ewma", headroom=0.1),
        "oracle": replace(reactive, control=CONTROL_ORACLE),
    }


def frontier_point(summary):
    return {
        "measured_power_fraction": summary.measured_power_fraction,
        "ideal_power_fraction": summary.ideal_power_fraction,
        "mean_latency_ns": summary.mean_message_latency_ns,
        "p99_latency_ns": summary.p99_message_latency_ns,
        "reconfigurations": summary.reconfigurations,
    }


def test_predict_frontier(benchmark):
    specs = {load: controller_specs(load) for load in LOADS}
    results, events = measure(
        benchmark, sweep,
        [spec for by_name in specs.values() for spec in by_name.values()])
    assert events > 0

    frontier = {}
    benchmark.extra_info.update(workload=BASE.workload,
                                duration_ns=BASE.duration_ns,
                                frontier=frontier)
    for load in LOADS:
        points = {name: frontier_point(results[spec])
                  for name, spec in specs[load].items()}
        frontier[f"{load:g}"] = points

        # Sanity, not acceptance: every controlled run must save power
        # over the full-rate baseline, and latency must stay finite.
        for name, point in points.items():
            if name != "baseline":
                assert (point["measured_power_fraction"]
                        < points["baseline"]["measured_power_fraction"])
            assert point["mean_latency_ns"] > 0.0
