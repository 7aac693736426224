"""Figure 1: server vs network power scenarios."""

from conftest import measure

from repro.experiments import figure1


def test_figure1(benchmark):
    result, _ = measure(benchmark, figure1.run, rounds=3, warmup_rounds=1)
    print("\n" + result.format_table())

    scenarios = result.scenarios
    full = scenarios["full_utilization"]
    prop = scenarios["proportional_servers_15pct"]

    # Network is ~12% of power at full utilization...
    share_full = full["network_watts"] / (
        full["network_watts"] + full["server_watts"])
    assert 0.11 < share_full < 0.13

    # ...but ~50% once servers are proportional at 15% load.
    share_prop = prop["network_watts"] / (
        prop["network_watts"] + prop["server_watts"])
    assert 0.45 < share_prop < 0.52

    # And a proportional network saves ~975 kW.
    assert abs(result.network_watts_saved_at_15pct - 975_000) < 10_000
