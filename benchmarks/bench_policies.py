"""Ablation: Section 5.2 better heuristics.

Compares the paper's threshold policy against aggressive, hysteresis and
predictive variants on the Search workload with independent channels.
"""

from conftest import measure

from repro.experiments import policies


def test_policy_ablation(benchmark, scale):
    result, _ = measure(benchmark, policies.run, scale=scale)
    print("\n" + result.format_table())

    for summary in result.by_policy.values():
        # Every policy must deliver large savings on a 6%-load trace.
        assert summary.measured_power_fraction < 0.7
        assert summary.ideal_power_fraction < 0.35

    # The aggressive policy reconfigures less than one-step threshold
    # (it skips the intermediate rungs), per the Section 5.2 hypothesis.
    assert (result.by_policy["aggressive"].reconfigurations
            < result.by_policy["threshold"].reconfigurations)
