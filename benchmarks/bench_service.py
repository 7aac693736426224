"""Live control-plane service: decision latency and throughput.

Benchmarks the supervised asyncio service (ingest, decision ladder,
journaled actuation, checkpointing) on one fault-free diurnal day in
virtual time, so the wall cost of running the control plane is tracked
run-over-run alongside the simulator benchmarks.  The assertions pin
the two service-health numbers the resilience campaign gates on:
decision latency (p50/p99 in virtual time, a pure function of the
config's processing costs when no fault backlogs the stream) and
decisions per virtual second at the ideal fleet rate.

The latency percentiles and throughput also go into
``benchmark.extra_info``, which ``--benchmark-json PATH`` archives next
to the SLO verdict.
"""

import dataclasses

import pytest

from repro.experiments.service_resilience import CAMPAIGN_CONFIG
from repro.service.service import ControlPlaneService


def _one_day():
    config = dataclasses.replace(
        CAMPAIGN_CONFIG, epochs=CAMPAIGN_CONFIG.epochs_per_day)
    return ControlPlaneService(config).run()


def test_service_decide(benchmark):
    summary = benchmark.pedantic(_one_day, rounds=3, iterations=1,
                                 warmup_rounds=1)
    print("\n[service] " + summary.format_line())
    benchmark.extra_info.update({
        "decisions": summary.decisions,
        "decisions_per_sec": summary.decisions_per_sec,
        "latency_p50_ns": summary.latency_p50_ns,
        "latency_p99_ns": summary.latency_p99_ns,
        "latency_max_ns": summary.latency_max_ns,
        "wall_seconds": summary.wall_seconds,
    })

    config = CAMPAIGN_CONFIG
    epochs = config.epochs_per_day
    # Every group decided every epoch: the ideal fleet rate.
    assert summary.decisions == config.groups * epochs
    ideal_dps = config.groups / (config.epoch_ns / 1e9)
    assert summary.decisions_per_sec == pytest.approx(ideal_dps)

    # Fault-free latency is deterministic: the fleet's telemetry
    # records plus the tick, plus transport-settled slack well under
    # an epoch.
    floor = (config.groups * config.record_cost_ns
             + config.tick_cost_ns)
    assert summary.latency_p50_ns >= floor
    assert summary.latency_p99_ns < config.epoch_ns
    assert summary.latency_p50_ns == summary.latency_p99_ns

    # A healthy reference day never trips the robustness machinery.
    assert summary.partitions == 0
    assert summary.sheds == 0
    assert summary.restarts == 0
    assert summary.retry_exhausted == 0
