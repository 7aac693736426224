"""Simulator microbenchmarks: the engine's raw event throughput.

Not a paper figure — these track the cost of the substrate itself so
that experiment-level benchmark movements can be attributed correctly:
the bare engine dispatching a chain of no-op events, and one full
uniform-workload fabric run measured at the engine.  Each records its
event count in ``benchmark.extra_info["events"]``, so events per second
is that count over the reported time.
"""

from repro.experiments.runner import SimulationSpec, run_simulation
from repro.sim.engine import Simulator

#: Events the engine micro dispatches per round.
ENGINE_EVENTS = 20_000

#: One k=3 n=3 uniform-workload fabric run, no rate control.
NETWORK_SPEC = SimulationSpec(k=3, n=3, workload="uniform",
                              duration_ns=300_000.0, seed=1,
                              control="none", uniform_offered_load=0.2,
                              message_bytes=65536)


def _engine_events():
    sim = Simulator()

    def chain(remaining):
        if remaining:
            sim.schedule(1.0, chain, remaining - 1)

    for _ in range(8):
        sim.schedule(0.0, chain, ENGINE_EVENTS // 8)
    sim.run()
    return sim.events_fired


def test_engine_event_throughput(benchmark):
    events = benchmark.pedantic(_engine_events, rounds=5, iterations=1,
                                warmup_rounds=1)
    benchmark.extra_info["events"] = events
    assert events >= ENGINE_EVENTS


def test_network_packet_throughput(benchmark):
    summary = benchmark.pedantic(run_simulation, args=(NETWORK_SPEC,),
                                 rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info["events"] = summary.events_fired
    assert summary.messages_delivered > 0
    assert summary.events_fired > 0
