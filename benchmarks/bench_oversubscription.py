"""Section 2.1.1: the over-subscription power/performance trade."""

from conftest import measure

from repro.experiments import oversubscription


def test_oversubscription(benchmark, scale):
    result, _ = measure(benchmark, oversubscription.run, scale=scale)
    print("\n" + result.format_table())

    by_c = {}
    for p in result.points:
        by_c.setdefault(p.c, []).append(p)
    cs = sorted(by_c)

    # Network watts per host fall monotonically with concentration.
    watts = [by_c[c][0].network_watts_per_host for c in cs]
    assert watts == sorted(watts, reverse=True)

    # At low load, every build delivers; at high load, the 2:1 build
    # saturates while the balanced build does not.
    low = min(p.offered_load for p in result.points)
    high = max(p.offered_load for p in result.points)
    for c in cs:
        low_point = [p for p in by_c[c] if p.offered_load == low][0]
        assert low_point.delivered_fraction > 0.9
    balanced_high = [p for p in by_c[cs[0]] if p.offered_load == high][0]
    oversub_high = [p for p in by_c[cs[-1]] if p.offered_load == high][0]
    assert balanced_high.delivered_fraction > 0.9
    assert oversub_high.delivered_fraction < \
        0.8 * balanced_high.delivered_fraction
