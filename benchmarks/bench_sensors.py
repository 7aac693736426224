"""Ablation: congestion sensors (Section 3.2/3.3).

The paper's claim under test: utilization alone is a sufficient demand
estimator — richer sensors must not beat it by a meaningful margin.
"""

from conftest import measure

from repro.experiments import sensors
from repro.power.channel_models import IdealChannelPower


def test_sensor_ablation(benchmark, scale):
    result, _ = measure(benchmark, sensors.run, scale=scale)
    print("\n" + result.format_table())

    utilization = result.runs["utilization"]
    for run in result.runs.values():
        # No sensor saves meaningfully more power than plain utilization.
        assert run.stats.power_fraction(IdealChannelPower()) > \
            0.8 * utilization.stats.power_fraction(IdealChannelPower())
    # And utilization keeps throughput at least on par with the best.
    best_delivery = max(r.stats.delivered_fraction()
                        for r in result.runs.values())
    assert utilization.stats.delivered_fraction() > 0.95 * best_delivery
