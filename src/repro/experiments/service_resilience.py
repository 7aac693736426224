"""Service resilience campaign: does the live control plane stay up?

The chaos campaign (:mod:`repro.experiments.chaos`) stresses the
*policy* under control-plane faults inside the discrete-event
simulator.  This campaign stresses the *service* — the long-running
supervised asyncio process in :mod:`repro.service` — under the same
fault DSL pointed at its streams: telemetry dropout on the ingest
queue, decision loss on the actuation transport, the decision loop
killed outright, and a slow consumer backing the bounded queue up.

Nine seeded runs over a two-virtual-hour diurnal trace (720 epochs of
10 s): one fault-free **reference** plus, per scenario, a
**resilient** arm (shedding + degraded modes + retry journal +
supervisor, i.e. :class:`~repro.service.service.ServiceConfig`
defaults) and an **unprotected** arm
(:meth:`~repro.service.service.ServiceConfig.unprotected`: every
robustness feature off, the naive controller the chaos DSL documents).

The three service-level objectives, per arm:

- **zero partitions** — no group may sit powered-off under offered
  demand past the strand grace (the availability failure mode:
  an unprotected controller reads lost telemetry as idleness and
  gates live groups dark);
- **bounded p99 decision latency** — at most
  :data:`SLO_MAX_LATENCY_FACTOR` x the reference p99 or the absolute
  :data:`SLO_LATENCY_FLOOR_EPOCHS` floor, whichever is larger (a
  backlogged consumer must shed rather than decide on ancient data);
- **decision throughput floor** — decisions per virtual second at
  least :data:`SLO_MIN_DPS_FRACTION` of the ideal rate (a dead loop
  with no supervisor stops deciding; the deadman restart must keep
  the rate up).

The golden pins the verdict: every resilient arm meets all three
SLOs and every unprotected arm violates at least one (empirically:
dropout strands 38 groups dark, loss 9, a crash halves throughput and
strands 4, the slow consumer walks p99 to ~1090 virtual seconds).

Everything is seed-pinned and virtual-time, so the verdict is exact
and independent of ``--scale``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.experiments.campaign import Campaign, Leg, Metric, Slo
from repro.experiments.report import pct
from repro.faults.control_faults import (
    ControlFaultScenario,
    ControllerCrash,
    DecisionLoss,
    TelemetryDropout,
)
from repro.service.faults import SlowConsumer
from repro.service.service import ServiceConfig

#: SLO: stranded-dark partitions must be exactly zero.
SLO_MAX_PARTITIONS = 0

#: SLO: p99 decision latency at most this factor of the reference p99
#: (reference measures 170 ms: 8 record costs + tick cost).
SLO_MAX_LATENCY_FACTOR = 2.0

#: Absolute latency floor in epochs — the shedding arm under a slow
#: consumer legitimately runs behind (measures ~1.5 epochs); a decision
#: older than this acts on a different diurnal phase.
SLO_LATENCY_FLOOR_EPOCHS = 2.5

#: SLO: decisions per virtual second at least this fraction of ideal
#: (ideal = groups / epoch seconds; a crashed, unsupervised loop stops
#: deciding and lands at ~0.4x).
SLO_MIN_DPS_FRACTION = 0.9

#: The campaign's fixed parameters (the verdict is seed-pinned).
CAMPAIGN_SEED = 3
CAMPAIGN_FAULT_SEED = 11
CAMPAIGN_CONFIG = ServiceConfig(seed=CAMPAIGN_SEED)

#: The p99 latency floor and the decisions/sec floor (ideal = groups /
#: epoch seconds) in absolute units.
LATENCY_FLOOR_NS = SLO_LATENCY_FLOOR_EPOCHS * CAMPAIGN_CONFIG.epoch_ns
DPS_FLOOR = SLO_MIN_DPS_FRACTION * (CAMPAIGN_CONFIG.groups
                                    / (CAMPAIGN_CONFIG.epoch_ns / 1e9))

#: Virtual ns in one diurnal day of the campaign trace.
_DAY_NS = CAMPAIGN_CONFIG.epochs_per_day * CAMPAIGN_CONFIG.epoch_ns

#: Fault scenarios swept, report order.
SCENARIOS: Tuple[str, ...] = ("dropout", "loss", "crash", "slow")

#: Reference arm label.
REFERENCE = "reference"


def arm_label(scenario: str, resilient: bool) -> str:
    """Canonical label for one campaign arm."""
    return f"{scenario}/{'resilient' if resilient else 'unprotected'}"


def _scenario(name: str) -> Tuple[Optional[ControlFaultScenario],
                                  Optional[SlowConsumer]]:
    """The chaos DSL scenario and/or slow-consumer fault for one arm."""
    if name == "dropout":
        return ControlFaultScenario(
            name="svc_dropout", seed=CAMPAIGN_FAULT_SEED,
            dropout=TelemetryDropout(
                fraction=0.6, probability=0.95,
                start_ns=0.2 * _DAY_NS, end_ns=2.4 * _DAY_NS)), None
    if name == "loss":
        return ControlFaultScenario(
            name="svc_loss", seed=CAMPAIGN_FAULT_SEED,
            loss=DecisionLoss(probability=0.5, start_ns=0.1 * _DAY_NS),
            dropout=TelemetryDropout(
                fraction=0.6, probability=0.95,
                start_ns=0.75 * _DAY_NS, end_ns=2.25 * _DAY_NS)), None
    if name == "crash":
        return ControlFaultScenario(
            name="svc_crash", seed=CAMPAIGN_FAULT_SEED,
            crashes=(ControllerCrash(time_ns=1.2 * _DAY_NS,
                                     restart_after_epochs=None),)), None
    if name == "slow":
        return None, SlowConsumer(cost_ns=1.8e9,
                                  start_ns=0.3 * _DAY_NS,
                                  end_ns=1.8 * _DAY_NS)
    raise ValueError(f"unknown scenario {name!r}")


def build_arms() -> Dict[str, Tuple[ServiceConfig,
                                    Optional[ControlFaultScenario],
                                    Optional[SlowConsumer]]]:
    """Label -> (config, scenario, slow) for the nine runs."""
    arms = {REFERENCE: (CAMPAIGN_CONFIG, None, None)}
    for name in SCENARIOS:
        scenario, slow = _scenario(name)
        arms[arm_label(name, False)] = (
            CAMPAIGN_CONFIG.unprotected(), scenario, slow)
        arms[arm_label(name, True)] = (CAMPAIGN_CONFIG, scenario, slow)
    return arms


#: Arms per protection setting, report order.
RESILIENT_ARMS = tuple(arm_label(s, True) for s in SCENARIOS)
UNPROTECTED_ARMS = tuple(arm_label(s, False) for s in SCENARIOS)
FAULT_ARMS = UNPROTECTED_ARMS + RESILIENT_ARMS


def _header(result) -> Dict[str, object]:
    """The verdict artifact's SLO bands and reference measurements."""
    ref = result.verdict(REFERENCE)
    return {
        "slo": {
            "max_partitions": SLO_MAX_PARTITIONS,
            "max_latency_factor": SLO_MAX_LATENCY_FACTOR,
            "latency_floor_epochs": SLO_LATENCY_FLOOR_EPOCHS,
            "min_dps_fraction": SLO_MIN_DPS_FRACTION,
            "latency_bound_ns": round(ref.metrics["latency_bound_ns"], 2),
            "dps_floor": round(DPS_FLOOR, 4),
        },
        "reference": {
            "latency_p99_ns": round(ref.run.latency_p99_ns, 2),
            "decisions_per_sec": round(ref.run.decisions_per_sec, 4),
            "served_fraction": round(ref.run.served_fraction, 6),
        },
    }


CAMPAIGN = Campaign(
    name="service-resilience",
    description="live control-plane service: resilient vs unprotected "
                "SLOs under stream chaos",
    golden_name="service_resilience",
    build=build_arms,
    options={},
    reference=lambda label: REFERENCE,
    metrics=(
        Metric("partitions", lambda a: a.run.partitions),
        Metric("latency_p99_ns", lambda a: a.run.latency_p99_ns, 2),
        Metric("latency_bound_ns",
               lambda a: max(SLO_MAX_LATENCY_FACTOR * a.ref.latency_p99_ns,
                             LATENCY_FLOOR_NS), 2),
        Metric("decisions_per_sec", lambda a: a.run.decisions_per_sec, 4),
        Metric("dps_floor", lambda a: DPS_FLOOR, 4),
        Metric("served_fraction", lambda a: a.run.served_fraction, 4),
    ),
    slos=(
        Slo("partitions", "partitions", "<=", SLO_MAX_PARTITIONS,
            FAULT_ARMS),
        Slo("latency", "latency_p99_ns", "<=", "latency_bound_ns",
            FAULT_ARMS),
        Slo("throughput", "decisions_per_sec", ">=", "dps_floor",
            FAULT_ARMS),
    ),
    legs=(
        Leg("resilient_ok", RESILIENT_ARMS, passes=True,
            held="all SLOs met under every fault"),
        Leg("unprotected_degraded", UNPROTECTED_ARMS, passes=False,
            held="every scenario violates an SLO (chaos has teeth)"),
    ),
    header=_header,
    title=f"Service resilience: {CAMPAIGN_CONFIG.groups} groups, "
          f"{CAMPAIGN_CONFIG.epochs} x "
          f"{CAMPAIGN_CONFIG.epoch_ns / 1e9:.0f}s epochs diurnal replay "
          f"— resilient vs unprotected service across fault scenarios",
    table=(
        ("Arm", lambda v: v.label),
        ("p99 lat", lambda v: f"{v.run.latency_p99_ns / 1e6:.0f} ms"),
        ("Dec/s", lambda v: f"{v.run.decisions_per_sec:.2f}"),
        ("Partitions", lambda v: v.run.partitions),
        ("Shed/Rty/Rst",
         lambda v: f"{v.run.sheds}/{v.run.retries}/{v.run.restarts}"),
        ("Served", lambda v: pct(v.run.served_fraction, digits=2)),
        ("Energy", lambda v: pct(v.run.mean_rate_fraction)),
        ("SLO", lambda v: v.cell()),
    ),
    service=True,
)
