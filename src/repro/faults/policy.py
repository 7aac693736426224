"""Fault-aware rate control: gating with a pinned ring.

Two controllers, built on the link-gating
:class:`~repro.core.gating.LinkGatingController`:

- ``fault_gated`` — an *aggressive* power-gating controller: a group
  whose sensor estimate stays below ``GatingConfig.off_estimate`` for
  ``idle_epochs`` consecutive epochs is drained and powered fully off,
  then probed awake after ``sleep_epochs``.  It trusts its sensor
  completely, which is the unprotected failure mode: a stuck-at-zero
  sensor (or a fault taking out the detour links) lets rate-scaling
  cooperate with faults to disconnect the fabric.
- ``fault_pinned`` — the same gating policy, but a
  :class:`~repro.core.gating.ConnectivityGuard` pins the per-dimension
  **ring** at minimum-rate-on — exactly the paper's Section 5.1 torus
  degradation.  Gating requests against pinned links are refused
  (``pinned_hold``), so whatever the sensors claim and whatever links
  fault out, the controller itself never removes the last usable path.
  The ring is what :class:`~repro.routing.restricted.
  RestrictedAdaptiveRouting` falls back on (it only ever offers the
  direct hop or an adjacent ring step), so pinning it keeps every
  restricted route realizable.

Gating power events are recorded with ``changed=False`` reasons
(``gated_off`` / ``gated_wake`` / ``pinned_hold``) so the transition
audit — ``transition_counts`` summing exactly to ``reconfigurations``
— is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.controller import ControllerConfig
from repro.core.gating import ConnectivityGuard, LinkGatingController
from repro.obs.decisions import (
    Decision,
    GATED_OFF,
    GATED_WAKE,
    PINNED_HOLD,
    classify_reason,
)


@dataclass(frozen=True)
class GatingConfig:
    """Power-gating aggressiveness.

    Attributes:
        off_estimate: Sensor estimates at or below this count as idle.
        idle_epochs: Consecutive idle epochs before gating off.
        sleep_epochs: Epochs to stay off before probing awake.
    """

    off_estimate: float = 0.05
    idle_epochs: int = 3
    sleep_epochs: int = 8


class FaultAwareEpochController(LinkGatingController):
    """Epoch controller with idle-streak power gating.

    With ``guard=None`` this is the unprotected ``fault_gated``
    controller; with a :class:`~repro.core.gating.ConnectivityGuard`
    it is ``fault_pinned``.  Everything else — epoch cadence, sensors,
    policy, the rate ladder — is the base reactive controller.
    """

    def __init__(self, network, policy=None,
                 config: ControllerConfig = ControllerConfig(),
                 groups=None, sensor=None, decision_log=None,
                 gating: GatingConfig = GatingConfig(),
                 guard: Optional[ConnectivityGuard] = None,
                 name: str = "fault_gated"):
        super().__init__(network, guard=guard, policy=policy,
                         config=config, groups=groups, sensor=sensor,
                         decision_log=decision_log, name=name)
        self.gating = gating
        self._idle: Dict[str, int] = {}
        self._asleep: Dict[str, int] = {}
        self.gated_offs = 0
        self.gated_wakes = 0
        self.pinned_holds = 0

    # ------------------------------------------------------------------

    def _reset_volatile_state(self) -> None:
        """Cold restart forgets gating bookkeeping: :meth:`_power_pass`
        only probes dark groups awake, so a gated-off link stays dark
        until the failsafe guard recovers it."""
        super()._reset_volatile_state()
        self._idle.clear()
        self._asleep.clear()

    def release_gate(self, name: str) -> None:
        """Also forget the sleep count and the stale idle streak accrued
        while telemetry was dark, so the group is not re-gated at once."""
        super().release_gate(name)
        self._asleep.pop(name, None)
        self._idle[name] = 0

    # ------------------------------------------------------------------

    def _power_pass(self) -> None:
        """Pre-epoch housekeeping: drain, sleep, wake, re-pin."""
        ladder = self.network.config.ladder
        for group in self.groups:
            name = group.name
            if name not in self._dark:
                continue
            if all(ch.is_off for ch in group.channels):
                self._asleep[name] = self._asleep.get(name, 0) + 1
                if self._asleep[name] >= self.gating.sleep_epochs:
                    self._wake(group, ladder)
            else:
                # Still draining toward off; finish what has drained.
                for ch in group.channels:
                    ch.finish_drain()
        if self.guard is not None:
            self._refresh_guard()
            # The guard may now need a link gating already took down
            # (or started draining): bring it back.
            self._wake_pinned(ladder)

    def _wake(self, group, ladder) -> bool:
        lit = super()._wake(group, ladder)
        self._asleep.pop(group.name, None)
        self._idle[group.name] = 0
        if lit:
            self.gated_wakes += 1
            self._log_power_event(group, GATED_WAKE, old_rate=None,
                                  new_rate=ladder.min_rate)
        return lit

    # ------------------------------------------------------------------

    def _decide_lit(self, group, reading, ladder, now, log) -> None:
        name = group.name
        estimate = self.sensor.estimate(group, reading)
        # Sensor cross-check: a link whose output queue is backing up
        # is not idle, whatever its (possibly stuck) sensor claims.
        # The queue occupancy is measured in the switch itself, not the
        # sensor path, so it stays honest under sensor faults — this is
        # what lets a pinned ring ramp up under detour pressure instead
        # of being held at the minimum rate by a stuck-at-zero sensor.
        estimate = max(estimate, reading.queue_fraction)
        current = group.current_rate
        new_rate = self.policy.decide(group, current, estimate, ladder)
        changed = group.set_rate(new_rate, self.config.reactivation_ns)
        if changed:
            self.reconfigurations += 1
        if log is not None:
            log.record(Decision(
                time_ns=now, controller=self.name, group=name,
                channels=tuple(ch.name for ch in group.channels),
                old_rate=current, new_rate=new_rate,
                reason=classify_reason(current, new_rate, changed,
                                       estimate, ladder, self.policy),
                changed=changed, estimate=estimate,
                utilization=reading.utilization,
                queue_fraction=reading.queue_fraction,
                credit_stalls=reading.credit_stalls,
                reactivation_ns=(self.config.reactivation_ns
                                 if changed else 0.0),
            ))
        # Gating bookkeeping runs on the *estimate*: the controller
        # trusts its sensor, stuck or not — that trust is the hazard
        # the pinned ring exists to bound.
        if estimate <= self.gating.off_estimate:
            self._idle[name] = self._idle.get(name, 0) + 1
        else:
            self._idle[name] = 0
        if self._idle.get(name, 0) < self.gating.idle_epochs:
            return
        if self._endpoints.get(name) is None:
            return  # never gate host links
        if self._pinned(group):
            self.pinned_holds += 1
            self._idle[name] = 0
            self._log_power_event(group, PINNED_HOLD,
                                  old_rate=group.current_rate,
                                  new_rate=group.current_rate)
            return
        self._power_off(group)
        self._idle[name] = 0
        self.gated_offs += 1
        self._log_power_event(group, GATED_OFF, old_rate=current,
                              new_rate=None)

    # ------------------------------------------------------------------

    def faults_summary(self) -> Dict[str, object]:
        """JSON-safe campaign-side accounting for the run summary."""
        return {
            "controller": self.name,
            "gated_offs": self.gated_offs,
            "gated_wakes": self.gated_wakes,
            "pinned_holds": self.pinned_holds,
            "gated_now": len(self._dark),
            "pinned_links": (len(self.guard.pinned)
                             if self.guard is not None else 0),
        }
