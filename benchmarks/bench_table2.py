"""Table 2: InfiniBand data-rate ladder."""

from conftest import measure

from repro.experiments import table2


def test_table2(benchmark):
    result, _ = measure(benchmark, table2.run, rounds=3, warmup_rounds=1)
    print("\n" + result.format_table())
    rates = {r.name: r.gbps for r in result.rates}
    assert rates["4x QDR"] == 40.0
    assert rates["1x SDR"] == 2.5
    assert len(rates) == 6
