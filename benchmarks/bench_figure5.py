"""Figure 5: switch-chip dynamic range."""

from conftest import measure

from repro.experiments import figure5


def test_figure5(benchmark):
    result, _ = measure(benchmark, figure5.run, rounds=3, warmup_rounds=1)
    print("\n" + result.format_table())
    assert result.profile.performance_dynamic_range == 16.0
    # Slowest optical mode at 42% of full power (the paper's anchor).
    by_name = {name: optical for name, _, _, optical in result.bars}
    assert abs(by_name["1x SDR"] - 0.42) < 1e-9
    assert by_name["4x QDR"] == 1.0
