"""Demand-aware topology control: the third-control-axis campaign.

Static FBFLY, statically degraded, and demand-aware topology control
across skewed, shifting and diurnal traffic matrices; the campaign's
verdict (energy win on the gated matrices, bounded latency, zero
partitions) is asserted here as well as frozen in
``tests/golden/demand_topology.json``.
"""

from conftest import measure

from repro.experiments import demand_topology


def test_demand_topology(benchmark):
    result, _ = measure(benchmark, demand_topology.CAMPAIGN.run)
    print("\n" + result.format_table())
    for line in result.verdict_lines():
        print(line)

    legs = result.legs()
    # The demand-aware arm beats static power on every gated matrix
    # while staying inside the latency bound...
    assert legs["demand_wins"]
    # ...and no arm — including the aggressive static degradation —
    # ever partitions the fabric or trips the connectivity guard.
    assert legs["safe_everywhere"]
    assert result.ok
    for verdict in result.verdicts():
        assert not verdict.violations(("safety",)), verdict.label
