"""Demand-aware topology campaign: does a third control axis pay?

The Section 5.1 proposal — power whole links off as the traffic matrix
allows, not just rate them down — is only worth its complexity if it
beats the alternatives under matrices with exploitable structure.
This campaign compares three arms over one pinned fabric:

- **static** — the full FBFLY under the paper's epoch rate controller
  (``control="epoch"``): every link powered, rates scaled.
- **degraded** — the static torus degradation (``degraded_topo``):
  express links off at t=0, topology frozen, rates scaled.  Cheap, but
  blind to where the demand actually is.
- **demand** — the
  :class:`~repro.topo.controller.DemandAwareTopologyController`
  (``demand_topo``): per-epoch demand matrix, EWMA-forecast decisions,
  connectivity-guarded power-off, hysteresis, rates co-scheduled.

across three structured traffic matrices
(:mod:`repro.workloads.matrix`): **skewed** (Zipf hot pairs, most
links idle), **shifting** (the hot pairs relocate every phase) and
**diurnal** (fabric-wide day/night intensity swings).

The verdict (frozen in ``tests/golden/demand_topology.json``, gating
``repro campaign demand-topology --compare``):

- on every **gated** matrix (skewed, diurnal), the demand arm's energy
  is *strictly below* the static arm's, at mean message latency at
  most :data:`VERDICT_MAX_LATENCY_FACTOR` x static;
- across **all** arms and matrices: zero partitions (the BFS detector
  attached to every topology run) and zero connectivity-guard
  violations — deliberate power-off never cost reachability.

The shifting matrix is reported but not energy-gated: relocating hot
pairs is the adversarial case (hysteresis pays reactivation on every
phase change), and the requirement there is safety, not savings.

The campaign fabric, load and seeds are fixed (independent of
``--scale``) because the verdict is a property of seeded runs, not a
scaling trend.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments.campaign import Campaign, Leg, Metric, Slo
from repro.experiments.report import pct, us
from repro.experiments.runner import SimulationSpec

#: Verdict: demand-arm mean message latency at most this factor of the
#: same matrix's static arm.
VERDICT_MAX_LATENCY_FACTOR = 1.3

#: Verdict: partitions recorded by the BFS detector must be zero.
VERDICT_MAX_PARTITIONS = 0

#: The campaign's fixed parameters (the verdict is seed-pinned).
CAMPAIGN_K = 4
CAMPAIGN_N = 3
CAMPAIGN_LOAD = 0.25
CAMPAIGN_DURATION_NS = 2_000_000.0
CAMPAIGN_SEED = 3
CAMPAIGN_INJECT_FRACTION = 0.5
CAMPAIGN_POLICY = "ladder"
#: Forecaster driving the demand arm's topology decisions (the
#: :mod:`repro.predict` registry name carried by ``spec.forecaster``).
CAMPAIGN_FORECASTER = "ewma"

#: Traffic matrices swept, in report order.
WORKLOADS: Tuple[str, ...] = ("skewed", "shifting", "diurnal")

#: Matrices whose energy/latency verdict legs gate the exit status.
GATED_WORKLOADS: Tuple[str, ...] = ("skewed", "diurnal")

#: Arms per matrix: (label, control mode).
ARMS: Tuple[Tuple[str, str], ...] = (
    ("static", "epoch"),
    ("degraded", "degraded_topo"),
    ("demand", "demand_topo"),
)


def arm_label(workload: str, arm: str) -> str:
    """Canonical label for one campaign run."""
    return f"{workload}/{arm}"


def build_specs(seed: int = CAMPAIGN_SEED) -> Dict[str, SimulationSpec]:
    """Label -> spec for the campaign's nine runs."""
    specs: Dict[str, SimulationSpec] = {}
    for workload in WORKLOADS:
        for arm, control in ARMS:
            specs[arm_label(workload, arm)] = SimulationSpec(
                k=CAMPAIGN_K, n=CAMPAIGN_N, workload=workload,
                duration_ns=CAMPAIGN_DURATION_NS, seed=seed,
                control=control, policy=CAMPAIGN_POLICY,
                uniform_offered_load=CAMPAIGN_LOAD,
                inject_fraction=CAMPAIGN_INJECT_FRACTION,
                forecaster=(CAMPAIGN_FORECASTER if arm == "demand"
                            else None),
            )
    return specs


#: Every run, and the demand arms whose energy/latency legs gate exit.
ALL_ARMS = tuple(arm_label(w, arm) for w in WORKLOADS for arm, _ in ARMS)
GATED_ARMS = tuple(arm_label(w, "demand") for w in GATED_WORKLOADS)


def _static(label: str) -> str:
    """The static arm a run is measured against: its matrix's."""
    return arm_label(label.partition("/")[0], "static")


def _dash_static(verdict, text: str) -> str:
    return "-" if verdict.label == _static(verdict.label) else text


def _header(result) -> Dict[str, object]:
    """The verdict artifact's bounds and per-matrix static baselines."""
    static = {w: result.by_label[arm_label(w, "static")]
              for w in WORKLOADS}
    return {
        "verdict": {
            "max_latency_factor": VERDICT_MAX_LATENCY_FACTOR,
            "max_partitions": VERDICT_MAX_PARTITIONS,
            "gated_workloads": list(GATED_WORKLOADS),
        },
        "static": {w: {
            "measured_power_fraction": round(
                s.measured_power_fraction, 4),
            "mean_message_latency_ns": round(
                s.mean_message_latency_ns, 2),
        } for w, s in static.items()},
    }


CAMPAIGN = Campaign(
    name="demand-topology",
    description="demand-aware topology control vs static "
                "FBFLY/degraded under structured matrices",
    golden_name="demand_topology",
    build=build_specs,
    options={"seed": CAMPAIGN_SEED},
    reference=_static,
    metrics=(
        Metric("power_fraction", lambda a: a.run.measured_power_fraction,
               4),
        Metric("power_delta",
               lambda a: (a.run.measured_power_fraction
                          - a.ref.measured_power_fraction), 4),
        Metric("latency_factor",
               lambda a: (a.run.mean_message_latency_ns
                          / a.ref.mean_message_latency_ns), 4),
        Metric("delivered_fraction", lambda a: a.run.delivered_fraction,
               4),
        Metric("partitions",
               lambda a: (a.run.faults or {}).get("partitions", 0)),
        Metric("guard_violations",
               lambda a: (a.run.topo or {}).get("guard_violations", 0)),
        Metric("dark_mean",
               lambda a: (a.run.topo or {}).get("dark_mean", 0.0), 4),
        Metric("gated", lambda a: a.label in GATED_ARMS),
    ),
    slos=(
        Slo("energy", "power_delta", "<", 0.0, GATED_ARMS),
        Slo("latency", "latency_factor", "<=",
            VERDICT_MAX_LATENCY_FACTOR, GATED_ARMS),
        Slo("safety", "partitions", "<=", VERDICT_MAX_PARTITIONS,
            ALL_ARMS),
        Slo("safety", "guard_violations", "<=", 0, ALL_ARMS),
    ),
    legs=(
        Leg("demand_wins", GATED_ARMS, passes=True,
            held="beats static on every gated matrix"),
        Leg("safe_everywhere", ALL_ARMS, passes=True, slos=("safety",),
            held="zero partitions and zero guard violations across "
                 "all arms"),
    ),
    header=_header,
    title=f"Demand-aware topology: k={CAMPAIGN_K} n={CAMPAIGN_N} FBFLY, "
          f"{pct(CAMPAIGN_LOAD, digits=0)} load — static vs degraded vs "
          f"demand-aware across structured traffic matrices",
    table=(
        ("Arm", lambda v: v.label),
        ("Power", lambda v: pct(v.metrics["power_fraction"])),
        ("dPower", lambda v: _dash_static(
            v, f"{v.metrics['power_delta']:+.3f}")),
        ("Mean lat", lambda v: us(v.run.mean_message_latency_ns)),
        ("vs static", lambda v: _dash_static(
            v, f"{v.metrics['latency_factor']:.2f}x")),
        ("Delivered", lambda v: pct(v.run.delivered_fraction, digits=3)),
        ("Dark", lambda v: f"{v.metrics['dark_mean']:.1f}"),
        ("Partitions", lambda v: v.metrics["partitions"]),
        ("GuardViol", lambda v: v.metrics["guard_violations"]),
        ("Verdict", lambda v: v.cell()),
    ),
    ok_key="ok",
)
