"""Control-plane chaos campaign: does the failsafe keep its SLOs?

:mod:`repro.faults.control_faults` breaks the *control plane* —
telemetry reports lost or stale in flight, actuation commands dropped,
the controller crashing and restarting cold — while the data plane
stays healthy.  This campaign sweeps that chaos across three
intensities (``ctl_chaos_low`` / ``mid`` / ``high``) over a fixed
fabric and asks one question per intensity: with the
:class:`~repro.core.failsafe.FailsafeGuard` attached, does the fabric
still meet its service-level objectives — and does the same fabric
*without* the guard observably violate them (proving the chaos has
teeth)?

Seven seeded runs: one fault-free **reference** plus, per intensity,
an **unprotected** arm (chaos, no guard) and a **failsafe** arm
(chaos + guard).  Every arm — including the reference — runs the
``"quiet"`` data-plane scenario so restricted routing, drop accounting
and BFS partition detection are attached on identical footing (a
gating controller can dark links entirely on its own), under the
``fault_pinned`` control mode whose spanning set is the availability
story of the previous campaign.

The three SLOs, all measured against the fault-free reference:

- **zero partitions** — control-plane chaos must never disconnect the
  fabric;
- **bounded latency inflation** — mean packet latency at most
  :data:`SLO_MAX_LATENCY_FACTOR` x the reference (lost telemetry reads
  as zero demand; an unguarded controller slams loaded links to
  minimum rate and queues explode);
- **bounded energy overshoot** — measured power fraction at most
  :data:`SLO_MAX_POWER_DELTA` above the reference (the guard holds and
  floors rates; safety must not silently cost the whole
  energy-proportionality win).

The golden pins the verdict: every failsafe arm meets all three SLOs,
and every unprotected arm violates at least one (empirically: the
latency SLO, by ~3x the bound, with 35-60% of traffic undelivered).

The campaign fabric, load and seeds are fixed (independent of
``--scale``) because the verdict is a property of one seeded fault
process, not a scaling trend.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments.campaign import Campaign, Leg, Metric, Slo
from repro.experiments.report import pct, us
from repro.experiments.runner import SimulationSpec

#: SLO: partitions recorded by the BFS detector must be exactly zero.
SLO_MAX_PARTITIONS = 0

#: SLO: mean packet latency at most this factor of the fault-free
#: reference.  Failsafe arms measure 0.93-0.97x (queue-pressure relief
#: runs held links slightly hotter than the adaptive reference);
#: unprotected arms measure 4.3-4.8x.
SLO_MAX_LATENCY_FACTOR = 1.5

#: SLO: measured power fraction at most this much above the reference
#: (absolute).  Failsafe arms measure +0.04..+0.09.
SLO_MAX_POWER_DELTA = 0.15

#: The campaign's fixed parameters (the verdict is seed-pinned).
CAMPAIGN_K = 6
CAMPAIGN_N = 2
CAMPAIGN_LOAD = 0.25
CAMPAIGN_DURATION_NS = 2_000_000.0
CAMPAIGN_SEED = 3
CAMPAIGN_FAULT_SEED = 7
CAMPAIGN_INJECT_FRACTION = 0.5
CAMPAIGN_CONTROL = "fault_pinned"
CAMPAIGN_DATA_SCENARIO = "quiet"

#: Chaos intensities swept, in report order.
INTENSITIES: Tuple[str, ...] = ("low", "mid", "high")

#: Reference arm label.
REFERENCE = "reference"


def arm_label(intensity: str, failsafe: bool) -> str:
    """Canonical label for one campaign arm."""
    return f"{intensity}/{'failsafe' if failsafe else 'unprotected'}"


def build_specs(seed: int = CAMPAIGN_SEED,
                fault_seed: int = CAMPAIGN_FAULT_SEED,
                ) -> Dict[str, SimulationSpec]:
    """Label -> spec for the campaign's seven runs."""
    base = dict(
        k=CAMPAIGN_K, n=CAMPAIGN_N, workload="uniform",
        duration_ns=CAMPAIGN_DURATION_NS, seed=seed,
        control=CAMPAIGN_CONTROL, policy="ladder",
        uniform_offered_load=CAMPAIGN_LOAD,
        inject_fraction=CAMPAIGN_INJECT_FRACTION,
        faults=CAMPAIGN_DATA_SCENARIO, fault_seed=fault_seed,
    )
    specs = {REFERENCE: SimulationSpec(**base)}
    for intensity in INTENSITIES:
        for failsafe in (False, True):
            specs[arm_label(intensity, failsafe)] = SimulationSpec(
                **base, control_faults=f"ctl_chaos_{intensity}",
                failsafe=failsafe)
    return specs


#: Arms per guard setting, report order.
FAILSAFE_ARMS = tuple(arm_label(i, True) for i in INTENSITIES)
UNPROTECTED_ARMS = tuple(arm_label(i, False) for i in INTENSITIES)
CHAOS_ARMS = UNPROTECTED_ARMS + FAILSAFE_ARMS


def _cp(verdict) -> Dict:
    return verdict.run.control_plane or {}


CAMPAIGN = Campaign(
    name="chaos-campaign",
    description="control-plane chaos sweep: failsafe SLOs vs "
                "unprotected degradation",
    golden_name="chaos",
    build=build_specs,
    options={"seed": CAMPAIGN_SEED, "fault_seed": CAMPAIGN_FAULT_SEED},
    reference=lambda label: REFERENCE,
    metrics=(
        Metric("partitions",
               lambda a: (a.run.faults or {}).get("partitions", 0)),
        Metric("latency_factor",
               lambda a: (a.run.mean_packet_latency_ns
                          / a.ref.mean_packet_latency_ns), 4),
        Metric("power_delta",
               lambda a: (a.run.measured_power_fraction
                          - a.ref.measured_power_fraction), 4),
        Metric("delivered_fraction", lambda a: a.run.delivered_fraction,
               4),
    ),
    slos=(
        Slo("partitions", "partitions", "<=", SLO_MAX_PARTITIONS,
            CHAOS_ARMS),
        Slo("latency", "latency_factor", "<=", SLO_MAX_LATENCY_FACTOR,
            CHAOS_ARMS),
        Slo("power", "power_delta", "<=", SLO_MAX_POWER_DELTA,
            CHAOS_ARMS),
    ),
    legs=(
        Leg("failsafe_ok", FAILSAFE_ARMS, passes=True,
            held="all SLOs met at every intensity"),
        Leg("unprotected_degraded", UNPROTECTED_ARMS, passes=False,
            held="every intensity violates an SLO (chaos has teeth)"),
    ),
    header=lambda result: {
        "slo": {
            "max_partitions": SLO_MAX_PARTITIONS,
            "max_latency_factor": SLO_MAX_LATENCY_FACTOR,
            "max_power_delta": SLO_MAX_POWER_DELTA,
        },
        "reference": {
            "mean_packet_latency_ns": round(
                result.by_label[REFERENCE].mean_packet_latency_ns, 2),
            "measured_power_fraction": round(
                result.by_label[REFERENCE].measured_power_fraction, 4),
        },
    },
    title=f"Control-plane chaos: k={CAMPAIGN_K} FBFLY, uniform "
          f"{pct(CAMPAIGN_LOAD, digits=0)} load, {CAMPAIGN_CONTROL} "
          f"control — failsafe vs unprotected across chaos intensity",
    table=(
        ("Arm", lambda v: v.label),
        ("Chaos", lambda v: _cp(v).get("scenario", "-")),
        ("Mean lat", lambda v: us(v.run.mean_packet_latency_ns)),
        ("vs ref", lambda v: f"{v.metrics['latency_factor']:.2f}x"),
        ("Power", lambda v: pct(v.run.measured_power_fraction)),
        ("dPower", lambda v: ("-" if v.label == REFERENCE
                              else f"{v.metrics['power_delta']:+.3f}")),
        ("Delivered", lambda v: pct(v.run.delivered_fraction, digits=3)),
        ("Partitions", lambda v: v.metrics["partitions"]),
        ("Lost tel/act", lambda v: (
            "-" if v.label == REFERENCE
            else f"{_cp(v).get('telemetry_lost', 0)}/"
                 f"{_cp(v).get('actuations_lost', 0)}")),
        ("SLO", lambda v: v.cell()),
    ),
)
