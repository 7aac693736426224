"""Section 5.1: dynamic topologies (mesh <-> torus <-> FBFLY).

Static pinned modes show the power/bisection tradeoff; the dynamic
controller walks the ladder with offered load.
"""

from conftest import measure

from repro.core.dynamic_topology import TopologyMode
from repro.experiments import dynamic_topology
from repro.experiments.scale import ExperimentScale


def _dyn_scale(scale):
    """Dynamic topologies need k >= 4 for express links to exist."""
    if scale.k >= 4:
        return scale
    return ExperimentScale(scale.name, k=4, n=scale.n,
                           duration_ns=scale.duration_ns)


def test_dynamic_topology(benchmark, scale):
    result, _ = measure(benchmark, dynamic_topology.run,
                        scale=_dyn_scale(scale))
    print("\n" + result.format_table())

    mesh = [p for p in result.static_points if p.label == "static-mesh"]
    fbfly = [p for p in result.static_points if p.label == "static-fbfly"]

    # Mesh burns the least link power but saturates at high load.
    assert max(p.power_true_off for p in mesh) < 1.0
    assert all(p.power_true_off == 1.0 for p in fbfly)
    assert (min(p.delivered_fraction for p in mesh)
            < min(p.delivered_fraction for p in fbfly))

    # The dynamic controller upgrades its mode as load grows...
    lowest, highest = result.dynamic_points[0], result.dynamic_points[-1]
    assert (highest.mode_time_fractions[TopologyMode.FBFLY]
            > lowest.mode_time_fractions[TopologyMode.FBFLY])
    # ...while saving power at low load and still delivering traffic.
    assert lowest.power_true_off < 0.9
    assert all(p.delivered_fraction > 0.8 for p in result.dynamic_points)
