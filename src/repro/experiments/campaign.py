"""Declarative verdict campaigns: arms, SLOs and acceptance legs as data.

Section 1 of the paper notes that routing cannot tell a powered-down
link from a failed one, so every power-off scheme must stay available
when faults land on top of it.  Four campaigns check that story —
:mod:`~repro.experiments.fault_tolerance`,
:mod:`~repro.experiments.chaos`,
:mod:`~repro.experiments.demand_topology` and
:mod:`~repro.experiments.service_resilience` — and all four have one
shape, which this module runs:

- **arms** — named runs, each a :class:`SimulationSpec` (executed
  through the sweep harness) or a live-service ``(config, scenario,
  slow)`` tuple (executed on the service's virtual clock);
- **metrics** — an arm's measured quantities, computed from its
  summary and the summary of the arm it is measured against
  (:attr:`Campaign.reference`), with the rounding of the verdict row;
- **SLOs** — ``metric comparator bound`` predicates naming the arms
  they gate; several predicates may share one SLO name;
- **acceptance legs** — "every arm of this set meets its SLOs" or
  "every arm of this set violates at least one" (the chaos has
  teeth); the campaign is ``ok`` when every leg holds.

A campaign module declares one :class:`Campaign`; :meth:`Campaign.run`
returns a :class:`CampaignResult`, which renders the table, the
verdict lines, the JSON verdict artifact and the golden payload.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, NamedTuple,
                    Optional, Tuple, Union)

from repro.experiments.cache import summary_digest
from repro.experiments.report import format_table
from repro.experiments.sweep import sweep

#: SLO comparator -> predicate ``(value, bound) -> met``.
COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "<=": operator.le, "<": operator.lt, ">=": operator.ge}


class ArmRun(NamedTuple):
    """What a metric is measured from: one arm and its reference."""

    label: str
    run: Any                        # the arm's summary
    ref: Any                        # the reference arm's summary


@dataclass(frozen=True)
class Metric:
    """One measured quantity of an arm: a column of its verdict row."""

    name: str
    measure: Callable[[ArmRun], Any]
    digits: Optional[int] = None    # JSON rounding; None keeps as is


@dataclass(frozen=True)
class Slo:
    """One SLO predicate, ``metric comparator bound``, on the arms it
    gates.  ``bound`` is a number or the name of another metric of the
    same arm (a bound derived from the reference arm)."""

    name: str
    metric: str
    comparator: str
    bound: Union[float, str]
    arms: Tuple[str, ...]

    def holds(self, metrics: Mapping[str, Any]) -> bool:
        """Whether one arm's metrics meet this predicate."""
        bound = (metrics[self.bound] if isinstance(self.bound, str)
                 else self.bound)
        return COMPARATORS[self.comparator](metrics[self.metric], bound)


@dataclass(frozen=True)
class Leg:
    """One acceptance leg over a set of arms.

    ``passes=True``: every arm meets the SLOs gating it (only those
    named in ``slos``, when given).  ``passes=False``: every arm
    violates at least one.  ``held`` says what a holding leg shows.
    """

    name: str
    arms: Tuple[str, ...]
    passes: bool
    held: str
    slos: Optional[Tuple[str, ...]] = None

    def holds(self, verdict: "ArmVerdict") -> bool:
        """Whether one arm's verdict satisfies this leg."""
        return bool(verdict.violations(self.slos)) != self.passes


@dataclass
class ArmVerdict:
    """One arm's metrics and the outcome of every SLO gating it."""

    campaign: "Campaign"
    label: str
    metrics: Dict[str, Any]
    run: Any = None

    @property
    def outcomes(self) -> Dict[str, bool]:
        """SLO name -> met, for the SLOs gating this arm, in order."""
        out: Dict[str, bool] = {}
        for slo in self.campaign.slos:
            if self.label in slo.arms:
                out[slo.name] = (out.get(slo.name, True)
                                 and slo.holds(self.metrics))
        return out

    def violations(self, slos: Optional[Tuple[str, ...]] = None
                   ) -> List[str]:
        """Names of the violated SLOs (restricted to ``slos``)."""
        return [name for name, met in self.outcomes.items()
                if not met and (slos is None or name in slos)]

    @property
    def ok(self) -> bool:
        """Every SLO gating this arm met."""
        return not self.violations()

    def cell(self) -> str:
        """The table's verdict cell: ``-`` for an ungated arm."""
        if not self.outcomes:
            return "-"
        return "PASS" if self.ok else "viol:" + ",".join(self.violations())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe verdict row (the CI artifact rows)."""
        out: Dict[str, Any] = {"label": self.label}
        for metric in self.campaign.metrics:
            value = self.metrics[metric.name]
            out[metric.name] = (value if metric.digits is None
                                else round(value, metric.digits))
        out[self.campaign.ok_key] = self.ok
        out["violations"] = self.violations()
        return out


@dataclass(frozen=True)
class Campaign:
    """One seed-pinned verdict campaign, declared as data.

    ``options`` maps each keyword of ``build`` to its pinned default;
    each becomes a ``repro campaign`` flag.  ``reference`` maps an arm
    label to the label of the arm its metrics are measured against.
    ``title`` may name options as ``{option}`` fields.  ``header``
    builds the verdict artifact's blocks besides the arm rows and legs;
    ``golden`` names what the golden payload carries besides the run
    digests and the legs: ``"verdict"`` or an option name.
    """

    name: str
    description: str
    golden_name: str
    build: Callable[..., Dict[str, Any]]
    options: Dict[str, Any]
    metrics: Tuple[Metric, ...]
    slos: Tuple[Slo, ...]
    legs: Tuple[Leg, ...]
    title: str
    table: Tuple[Tuple[str, Callable[[ArmVerdict], object]], ...]
    header: Optional[Callable[["CampaignResult"], Dict[str, Any]]] = None
    reference: Optional[Callable[[str], str]] = None
    service: bool = False
    ok_key: str = "slo_ok"
    golden: Tuple[str, ...] = ("verdict",)

    def run(self, **options: Any) -> "CampaignResult":
        """Run every arm (``options`` override the pinned defaults)."""
        options = {**self.options, **options}
        arms = self.build(**options)
        if self.service:
            from repro.service.service import ControlPlaneService
            by_label = {
                label: ControlPlaneService(config, scenario=scenario,
                                           slow=slow).run()
                for label, (config, scenario, slow) in arms.items()}
        else:
            results = sweep(list(arms.values()))
            by_label = {label: results[spec]
                        for label, spec in arms.items()}
        return CampaignResult(self, by_label, arms, options)


@dataclass
class CampaignResult:
    """A campaign's runs plus the per-arm verdicts and the legs."""

    campaign: Campaign
    by_label: Dict[str, Any]
    arms: Dict[str, Any] = field(default_factory=dict)
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.options = {**self.campaign.options, **self.options}

    # -- verdict ---------------------------------------------------------

    def verdict(self, label: str) -> ArmVerdict:
        """One arm's metrics, measured against its reference arm."""
        campaign = self.campaign
        ref = (self.by_label[campaign.reference(label)]
               if campaign.reference is not None else None)
        arm = ArmRun(label, self.by_label[label], ref)
        return ArmVerdict(
            campaign, label,
            {m.name: m.measure(arm) for m in campaign.metrics}, arm.run)

    def verdicts(self) -> List[ArmVerdict]:
        """Verdicts of every arm some SLO gates, in run order."""
        return [v for v in map(self.verdict, self.by_label) if v.outcomes]

    def legs(self) -> Dict[str, bool]:
        """Leg name -> whether the acceptance leg holds."""
        return {leg.name: all(leg.holds(self.verdict(label))
                              for label in leg.arms)
                for leg in self.campaign.legs}

    @property
    def ok(self) -> bool:
        """The campaign's exit-status verdict: every leg holds."""
        return all(self.legs().values())

    # -- reporting -------------------------------------------------------

    def rows(self) -> List[List[object]]:
        """One table row per arm, in run order."""
        return [[cell(v) for _, cell in self.campaign.table]
                for v in map(self.verdict, self.by_label)]

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        return format_table(
            [header for header, _ in self.campaign.table], self.rows(),
            title=self.campaign.title.format(**self.options))

    def verdict_lines(self) -> List[str]:
        """The SLOs, then one pass/fail line per acceptance leg."""
        campaign = self.campaign
        lines = ["SLOs: " + ", ".join(
            f"{s.name} ({s.metric} {s.comparator} {s.bound})"
            for s in campaign.slos)]
        for leg in campaign.legs:
            verdicts = [self.verdict(label) for label in leg.arms]
            shown = [m for m in campaign.metrics if any(
                m.name in (s.metric, s.bound)
                and set(leg.arms) & set(s.arms)
                and (leg.slos is None or s.name in leg.slos)
                for s in campaign.slos)]
            measured = ", ".join(
                f"{m.name} "
                f"{_span([v.metrics[m.name] for v in verdicts], m.digits)}"
                for m in shown)
            failing = [v for v in verdicts if not leg.holds(v)]
            if not failing:
                outcome = leg.held
            elif leg.passes:
                outcome = "SLO VIOLATED: " + "; ".join(
                    f"{v.label} -> {','.join(v.violations(leg.slos))}"
                    for v in failing)
            else:
                outcome = ("campaign too gentle: "
                           + ", ".join(v.label for v in failing)
                           + " met every SLO")
            lines.append(f"{leg.name}: {measured} — {outcome}")
        return lines

    def verdict_dict(self) -> Dict[str, Any]:
        """The JSON verdict artifact (CI uploads this)."""
        header = self.campaign.header
        return {**(header(self) if header else {}),
                "arms": [v.to_dict() for v in self.verdicts()],
                **self.legs(), "ok": self.ok}

    def golden_payload(self) -> Dict[str, Any]:
        """What ``tests/golden`` freezes: every run's digest, the legs
        and the extras the campaign names."""
        service = self.campaign.service
        payload: Dict[str, Any] = {
            "runs": {label: (summary.digest() if service
                             else summary_digest(summary))
                     for label, summary in self.by_label.items()},
            **self.legs()}
        for key in self.campaign.golden:
            payload[key] = (self.verdict_dict() if key == "verdict"
                            else self.options[key])
        return payload


def _span(values: List[Any], digits: Optional[int]) -> str:
    """``lo..hi`` of one metric over a leg's arms (``lo`` if equal)."""
    if digits is not None:
        values = [round(v, digits) for v in values]
    lo, hi = min(values), max(values)
    return f"{lo:g}" if lo == hi else f"{lo:g}..{hi:g}"


def campaigns() -> Dict[str, Campaign]:
    """Every declared campaign by name, in report order."""
    from repro.experiments import (chaos, demand_topology,
                                   fault_tolerance, service_resilience)
    return {c.name: c for c in (
        fault_tolerance.CAMPAIGN, chaos.CAMPAIGN,
        demand_topology.CAMPAIGN, service_resilience.CAMPAIGN)}
