"""Link gating: powering inter-switch link groups fully off (§5.1).

Both power-off controllers —
:class:`~repro.faults.policy.FaultAwareEpochController` (idle-streak
gating) and :class:`~repro.topo.controller.DemandAwareTopologyController`
(demand-matrix topology control) — sit on this module:

- :class:`ConnectivityGuard`: pins the per-dimension ring and vetoes
  any power-off that would leave the usable links disconnected;
- :class:`LinkGatingController`: the shared dark-link bookkeeping, the
  pre-epoch pass hook and the ``changed=False`` power-event records.

The channel decides whether it is lit, from its off-claims
(:meth:`repro.sim.channel.Channel.claim_off`): the controller claims a
group off under its ``name``, finishes its drains at the epoch boundary
and releases the claim to wake it; a link a fault also claims stays off.

The dark set is the controller's volatile memory of its claims: a cold
restart forgets it while the claims stay on the channels — the
stranded-group hazard :class:`repro.core.failsafe.FailsafeGuard`
journals power events to recover from (it releases the controller's
claim and calls :meth:`LinkGatingController.release_gate`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.controller import EpochController
from repro.obs.decisions import Decision
from repro.topology.mesh_torus import torus_link_set

Link = Tuple[int, int]


class ConnectivityGuard:
    """Connectivity oracle for deliberate power-off decisions.

    Two checks.  The **pinned ring** — each dimension's
    adjacent-coordinate ring (:func:`~repro.topology.mesh_torus.
    torus_link_set`), re-pinned each epoch over the links that are not
    fault-dark — is never powered off.  And a power-off is vetoed unless
    the links that would remain *usable* (lit, not fault-dark, not
    already dark) still connect every switch: once faults land on the
    ring, the faulted pinned link is unavailable, and the guard must
    refuse to remove whatever unpinned link carries its detours.
    """

    def __init__(self, network):
        self.ring: FrozenSet[Link] = torus_link_set(network.topology)
        self.num_switches = network.topology.num_switches
        self.pinned: FrozenSet[Link] = frozenset()
        #: Post-decision connectivity self-checks that failed.  Stays
        #: zero unless the guard itself is broken; campaign verdicts
        #: gate on it.
        self.violations = 0

    def refresh(self, available: Iterable[Link]) -> FrozenSet[Link]:
        """Re-pin the ring over the currently available links.

        ``available`` excludes fault-dark links — the guard pins what
        it can still actually hold on; a faulted ring segment is
        routed around by the unpinned remainder until repair.
        """
        self.pinned = self.ring.intersection(available)
        return self.pinned

    def connected(self, usable: Set[Link]) -> bool:
        """Do ``usable`` links connect all switches (BFS)?"""
        if self.num_switches <= 1:
            return True
        adjacency: Dict[int, List[int]] = {}
        for a, b in usable:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for peer in adjacency.get(node, ()):
                if peer not in seen:
                    seen.add(peer)
                    frontier.append(peer)
        return len(seen) == self.num_switches

    def may_power_off(self, link: Link, usable: Set[Link]) -> bool:
        """May ``link`` go dark, given the currently usable links?

        ``usable`` must already exclude fault-dark and dark links; the
        check is that ``link`` is unpinned and the remainder *without*
        it stays connected.
        """
        return link not in self.pinned and self.connected(usable - {link})


class LinkGatingController(EpochController):
    """Epoch controller that can power inter-switch link groups off.

    Subclasses implement :meth:`_power_pass`, which runs before the
    rate pass each epoch, so rate control immediately sees (and skips)
    the groups it darkened.  Rate decisions for lit groups go through
    :meth:`_decide_lit` (the base reactive decision unless overridden).

    Args:
        guard: Optional :class:`ConnectivityGuard`; ``None`` gates
            without any connectivity protection.
        Everything else as :class:`~repro.core.controller.
        EpochController`.
    """

    def __init__(self, network, guard: Optional[ConnectivityGuard] = None,
                 **kwargs):
        super().__init__(network, **kwargs)
        self.guard = guard
        #: group name -> undirected link endpoints (inter-switch groups
        #: only; host-link groups are never gated or pinned).
        self._endpoints: Dict[str, Link] = {}
        by_channel = {id(ch): key for key, ch
                      in network.switch_channel_map().items()}
        for group in self.groups:
            key = by_channel.get(id(group.channels[0]))
            if key is not None:
                a, b = key
                self._endpoints[group.name] = (min(a, b), max(a, b))
        #: Groups this controller darkened (draining toward off, or off).
        self._dark: Set[str] = set()
        if guard is not None:
            self._refresh_guard()

    # -- link bookkeeping ----------------------------------------------

    def _candidates(self):
        """Inter-switch groups, in stable group order."""
        return [g for g in self.groups
                if self._endpoints.get(g.name) is not None]

    def _fault_dark(self, group) -> bool:
        """Down for reasons outside our own power-off decisions?  Any
        other owner's claim is, even on a group we darkened; so is a
        claim of ours that ``_dark`` no longer accounts for."""
        if group.name in self._dark:
            return any(ch.claims - {self.name} for ch in group.channels)
        return any(not ch.usable for ch in group.channels)

    def _usable_links(self) -> Set[Link]:
        """Links routing can use right now: no owner claims them off."""
        return {self._endpoints[group.name]
                for group in self._candidates()
                if all(ch.usable for ch in group.channels)}

    def _refresh_guard(self) -> None:
        self.guard.refresh([self._endpoints[group.name]
                            for group in self._candidates()
                            if not self._fault_dark(group)])

    def _pinned(self, group) -> bool:
        if self.guard is None:
            return False
        link = self._endpoints.get(group.name)
        return link is not None and link in self.guard.pinned

    # -- crash semantics -------------------------------------------------

    def _reset_volatile_state(self) -> None:
        """Cold restart forgets which groups *we* darkened — the
        stranded-dark-group hazard the failsafe guard recovers."""
        super()._reset_volatile_state()
        self._dark.clear()

    def release_gate(self, name: str) -> None:
        """Forget a group whose claim an external actor released (the
        failsafe guard, after recovering a stranded group), so the
        controller does not immediately re-drain it."""
        self._dark.discard(name)

    # -- the epoch loop ------------------------------------------------

    def _on_epoch(self) -> None:
        if self._stopped:
            return
        self._power_pass()
        super()._on_epoch()

    def _power_pass(self) -> None:
        """Pre-epoch pass: finish drains, wake, power off."""
        raise NotImplementedError

    def _decide_group(self, group, reading, ladder, now, log) -> None:
        if group.name in self._dark:
            # Draining toward off; no rate decisions until it sleeps.
            return
        self._decide_lit(group, reading, ladder, now, log)

    def _decide_lit(self, group, reading, ladder, now, log) -> None:
        """Rate decision for a group this controller has not darkened."""
        super()._decide_group(group, reading, ladder, now, log)

    # -- actuation ------------------------------------------------------

    def _finish_drains(self) -> None:
        for group in self._candidates():
            if group.name in self._dark:
                for ch in group.channels:
                    ch.finish_drain()

    def _wake_pinned(self, ladder) -> None:
        """Wake dark groups the guard now pins: faults made them part
        of the last spanning set."""
        for group in self._candidates():
            if group.name in self._dark and self._pinned(group):
                self._wake(group, ladder)

    def _power_off(self, group) -> None:
        """Claim the group off (it drains first) and remember it dark."""
        for ch in group.channels:
            ch.claim_off(self.name)
        self._dark.add(group.name)

    def _wake(self, group, ladder) -> bool:
        """Release our claim and forget the group; True if a channel lit
        (at the ladder minimum) — one a fault still claims stays off."""
        lit = [ch.release(self.name, self.config.reactivation_ns,
                          rate_gbps=ladder.min_rate)
               for ch in group.channels]
        self._dark.discard(group.name)
        return any(lit)

    def _log_power_event(self, group, reason: str,
                         old_rate: Optional[float],
                         new_rate: Optional[float],
                         reactivation_ns: float = 0.0,
                         forecast: Optional[float] = None) -> None:
        """Audit a power event as a ``changed=False`` record, so the
        rate-transition audit (``transition_counts`` summing to
        ``reconfigurations``) is untouched."""
        if self.decision_log is None:
            return
        self.decision_log.record(Decision(
            time_ns=self.network.sim.now, controller=self.name,
            group=group.name,
            channels=tuple(ch.name for ch in group.channels),
            old_rate=old_rate, new_rate=new_rate, reason=reason,
            changed=False, reactivation_ns=reactivation_ns,
            forecast_gbps=forecast))
