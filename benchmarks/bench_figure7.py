"""Figure 7: fraction of time at each link speed (Search workload).

Shape assertions mirror the paper: a majority of link-time in the
slowest mode, and independent per-channel control spending less time at
the fast speeds than paired control.
"""

from conftest import measure

from repro.experiments import figure7


def test_figure7(benchmark, scale):
    result, _ = measure(benchmark, figure7.run, scale=scale)
    print("\n" + result.format_table())

    # "most links spend a majority of their time in the lowest
    # power/performance state"
    assert result.paired.time_at_rate.get(2.5, 0.0) > 0.5
    assert result.independent.time_at_rate.get(2.5, 0.0) > \
        result.paired.time_at_rate.get(2.5, 0.0)

    # "independently control each unidirectional channel nearly halves
    # the fraction of time spent at the faster speeds"
    assert result.fast_time(result.independent) < \
        0.8 * result.fast_time(result.paired)
