"""Ablation: lane-aware two-dimensional ladder (Section 5.2).

The refinement must match the scalar controller's power and latency
while spending far less total time in reactivation stalls — the payoff
of pricing CDR-only re-locks at ~100 ns instead of a blanket 1 us.
"""

from conftest import measure

from repro.experiments import lane_ladder


def test_lane_ladder(benchmark, scale):
    result, _ = measure(benchmark, lane_ladder.run, scale=scale)
    print("\n" + result.format_table())

    scalar = result.runs["scalar 1us"]
    lane = result.runs["lane-aware"]
    # Equal class of power savings...
    assert abs(lane.power_fraction - scalar.power_fraction) < 0.05
    # ...with a large cut in total reconfiguration stall.
    assert lane.stall_ns_total < 0.7 * scalar.stall_ns_total
    # And no loss of traffic.
    assert lane.stats.delivered_fraction() > \
        0.95 * scalar.stats.delivered_fraction()
