"""Ablation: the epoch controller on FBFLY vs a folded-Clos (Section 3.2).

Both fabrics must save large amounts of power with the same controller —
the paper's mechanisms are topology-portable — while each keeps its
throughput relative to its own baseline.
"""

from conftest import measure

from repro.experiments import topology_comparison
from repro.power.channel_models import IdealChannelPower


def test_topology_comparison(benchmark, scale):
    result, _ = measure(benchmark, topology_comparison.run, scale=scale)
    print("\n" + result.format_table())

    for run in result.fabrics.values():
        assert run.controlled.power_fraction(IdealChannelPower()) < 0.4
        assert run.controlled.delivered_fraction() > \
            0.9 * run.baseline.delivered_fraction()

    fbfly = result.fabrics["fbfly"]
    fat_tree = result.fabrics["fat-tree"]
    # Both fabrics should land in the same savings class.
    ratio = (fbfly.controlled.power_fraction(IdealChannelPower())
             / fat_tree.controlled.power_fraction(IdealChannelPower()))
    assert 0.3 < ratio < 3.0
