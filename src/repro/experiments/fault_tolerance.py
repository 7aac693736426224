"""Fault campaign: graceful degradation vs. a pinned spanning set.

Section 1 of the paper notes that a deactivated link is
indistinguishable from a faulty one to the routing algorithm — so an
energy-proportional fabric must stay *available* when real faults land
on top of deliberate rate scaling.  This experiment runs one seeded
MTBF/MTTR campaign (random Weibull link faults plus stuck-at-zero
utilization sensors; see the ``"mtbf"`` scenario in
:mod:`repro.faults.scenario`) over a k=8 flattened butterfly at 25%
uniform load, under three control planes:

- **baseline** — the paper's reactive epoch controller on the healthy
  fabric (what the campaign costs in the first place);
- **fault_gated** — an aggressive power-gating controller that trusts
  its sensors; the stuck sensors lure it into powering off loaded
  links, and together with the injected faults it partitions the
  fabric and drops traffic;
- **fault_pinned** — the same gating policy guarded by a
  :class:`~repro.core.gating.ConnectivityGuard` pinning the
  per-dimension ring at minimum-rate-on, with a queue-occupancy
  sensor cross-check.

The verdict the golden pins: the pinned controller sustains
>= 99.9% delivery with zero partitions on the campaign where the
unprotected controller records partitions and drop bursts.

The campaign fabric, load and seeds are fixed (independent of
``--scale``) because the verdict is a property of one seeded fault
process, not a scaling trend.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.experiments.campaign import Campaign, Leg, Metric, Slo
from repro.experiments.report import pct, us
from repro.experiments.runner import CONTROL_EPOCH, SimulationSpec

#: Delivery floor the protected controller must sustain.
DELIVERY_FLOOR = 0.999

#: The campaign's fixed parameters (the verdict is seed-pinned).
CAMPAIGN_K = 8
CAMPAIGN_N = 2
CAMPAIGN_LOAD = 0.25
CAMPAIGN_DURATION_NS = 2_500_000.0
CAMPAIGN_INJECT_FRACTION = 0.4

#: Controller label -> (control mode, scenario) rows, report order.
CONTROLLERS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("baseline", CONTROL_EPOCH, None),
    ("gated", "fault_gated", "mtbf"),
    ("pinned", "fault_pinned", "mtbf"),
)


def build_specs(scenario: str = "mtbf", seed: int = 1,
                fault_seed: int = 1,
                ) -> Dict[str, SimulationSpec]:
    """Label -> spec for the campaign's three runs."""
    specs = {}
    for label, control, spec_scenario in CONTROLLERS:
        specs[label] = SimulationSpec(
            k=CAMPAIGN_K, n=CAMPAIGN_N, workload="uniform",
            duration_ns=CAMPAIGN_DURATION_NS, seed=seed,
            control=control, policy="ladder",
            uniform_offered_load=CAMPAIGN_LOAD,
            inject_fraction=CAMPAIGN_INJECT_FRACTION,
            faults=(scenario if spec_scenario is not None else None),
            fault_seed=(fault_seed if spec_scenario is not None else 0),
        )
    return specs


def _faults(summary) -> Dict:
    return summary.faults or {}


CAMPAIGN = Campaign(
    name="fault-tolerance",
    description="seeded fault campaign: gated vs pinned spanning-set "
                "availability",
    golden_name="faults",
    build=build_specs,
    options={"scenario": "mtbf", "seed": 1, "fault_seed": 1},
    metrics=(
        Metric("delivered_fraction", lambda a: a.run.delivered_fraction,
               4),
        Metric("partitions",
               lambda a: _faults(a.run).get("partitions", 0)),
        Metric("drop_bursts",
               lambda a: _faults(a.run).get("drop_bursts", 0)),
    ),
    slos=(
        Slo("delivery", "delivered_fraction", ">=", DELIVERY_FLOOR,
            ("pinned",)),
        Slo("partitions", "partitions", "<=", 0, ("gated", "pinned")),
        Slo("drop_bursts", "drop_bursts", "<=", 0, ("gated",)),
    ),
    legs=(
        Leg("protected_ok", ("pinned",), passes=True,
            held="the pinned spanning set holds >= 99.9% delivery with "
                 "zero partitions"),
        Leg("degraded_detected", ("gated",), passes=False,
            held="unprotected gating observably degrades"),
    ),
    title=f"Fault campaign ({{scenario}}): k={CAMPAIGN_K} FBFLY, uniform "
          f"{pct(CAMPAIGN_LOAD, digits=0)} load — availability under "
          f"faults + stuck sensors",
    table=(
        ("Controller", lambda v: v.label),
        ("Delivered", lambda v: pct(v.run.delivered_fraction, digits=3)),
        ("Drops", lambda v: _faults(v.run).get("dropped_packets", 0)),
        ("Bursts", lambda v: v.metrics["drop_bursts"]),
        ("Partitions", lambda v: v.metrics["partitions"]),
        ("Faults", lambda v: _faults(v.run).get("faults_applied", 0)),
        ("Gated off", lambda v: _faults(v.run).get("gated_offs", "-")),
        ("Pin holds", lambda v: _faults(v.run).get("pinned_holds", "-")),
        ("Power", lambda v: pct(v.run.measured_power_fraction)),
        ("Mean lat", lambda v: us(v.run.mean_message_latency_ns)),
        ("Verdict", lambda v: v.cell()),
    ),
    golden=("scenario",),
)
