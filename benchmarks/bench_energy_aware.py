"""Ablation: energy-aware routing (Section 5.1's open problem)."""

from conftest import measure

from repro.experiments import energy_aware
from repro.power.channel_models import IdealChannelPower


def test_energy_aware_routing(benchmark, scale):
    result, _ = measure(benchmark, energy_aware.run, scale=scale)
    print("\n" + result.format_table())

    aware = result.runs["energy-aware"]
    plain = result.runs["adaptive"]
    # Consolidation must not cost power or lose traffic.
    assert aware.power_fraction(IdealChannelPower()) <= \
        1.1 * plain.power_fraction(IdealChannelPower())
    assert aware.delivered_fraction() > 0.95 * plain.delivered_fraction()
