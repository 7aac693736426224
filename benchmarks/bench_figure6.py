"""Figure 6: ITRS bandwidth trend."""

from conftest import measure

from repro.experiments import figure6


def test_figure6(benchmark):
    result, _ = measure(benchmark, figure6.run, rounds=3, warmup_rounds=1)
    print("\n" + result.format_table())
    assert result.series[-1].io_bandwidth_tbps == 160.0
    assert result.cagr > 0.2
