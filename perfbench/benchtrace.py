"""Run-time instrumentation for the traced benchmark run.

Everything here lives outside the program: :class:`Tracer` wraps the
layers' public entry points (class attributes, patched while a traced
batch runs and restored afterwards), keeps every span and count in
memory, and hands back plain dicts.  The timed runs use only
:class:`RunProbe` without a profiler, which records two timestamps and
installs nothing on the hot path.

A span's *self* time is its duration minus the time of the spans it
called, so nested layers are not counted twice.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional


class SetupDone(Exception):
    """Raised by a setup-only :class:`RunProbe` at the first event."""


class RunProbe:
    """Duck-types :class:`repro.obs.session.Telemetry` for one run.

    ``run_simulation`` calls :meth:`attach` after it has built the
    fabric, controller and fault layers; ``Fabric.run`` then calls
    :meth:`begin_run` just before the first event and
    :meth:`finalize_run` after the last one.  :meth:`begin_run`
    removes the probe from the engine again, so the event loop runs
    exactly as it does without telemetry, unless a real
    :class:`~repro.obs.profiling.PerfProfiler` is given (traced runs).
    """

    def __init__(self, profiler=None, tracer: Optional["Tracer"] = None,
                 setup_only: bool = False):
        from repro.obs.decisions import DecisionLog
        # The same counters-only audit log run_simulation builds itself.
        self.decision_log = DecisionLog(max_records=0)
        self.profiler = profiler
        self.tracer = tracer
        self.setup_only = setup_only
        self.network = None
        self.started = perf_counter()
        self.loop_started: Optional[float] = None
        self.loop_ended: Optional[float] = None

    def attach(self, network) -> None:
        self.network = network
        network.sim.profiler = self

    def begin_run(self, network) -> None:
        network.sim.profiler = None
        if self.setup_only:
            self.loop_started = perf_counter()
            raise SetupDone()
        if self.profiler is not None:
            self.profiler.attach(network)
            self.profiler.begin_run(network)
        self.loop_started = perf_counter()

    def finalize_run(self, network) -> None:
        if self.profiler is not None:
            self.profiler.finalize_run(network)
        if self.tracer is not None:
            self.tracer.harvest_network(network)
        self.loop_ended = perf_counter()

    def timings(self, returned: float) -> Dict[str, float]:
        """Setup, event-loop and summarize seconds of the finished run."""
        if self.loop_started is None or self.loop_ended is None:
            raise RuntimeError(
                "Fabric.run no longer calls the engine profiler's "
                "begin_run/finalize_run hooks; the setup timer is blind")
        return {
            "setup_s": self.loop_started - self.started,
            "loop_s": self.loop_ended - self.loop_started,
            "summarize_s": returned - self.loop_ended,
        }


def timed_run(spec, tracer: Optional["Tracer"] = None):
    """``run_simulation(spec)``; returns ``(summary, timings)``.

    With a tracer, the engine's :class:`PerfProfiler` report rides on
    the timings instead of ``summary.perf``, so the summary is the one
    an unobserved run returns.
    """
    from repro.experiments.runner import run_simulation
    profiler = None
    if tracer is not None:
        from repro.obs.profiling import PerfProfiler
        profiler = PerfProfiler(sample_every=0)
    probe = RunProbe(profiler=profiler, tracer=tracer)
    entered = time.time()
    summary = run_simulation(spec, telemetry=probe)
    timings = probe.timings(perf_counter())
    timings["entered_unix_s"] = entered
    timings["pid"] = os.getpid()
    if profiler is not None:
        timings["profile"] = summary.perf
        summary.perf = None
    return summary, timings


def setup_seconds(spec) -> float:
    """Host seconds ``run_simulation(spec)`` takes to reach its first
    event; the run is abandoned there."""
    from repro.experiments.runner import run_simulation
    probe = RunProbe(setup_only=True)
    try:
        run_simulation(spec, telemetry=probe)
    except SetupDone:
        return probe.loop_started - probe.started
    raise RuntimeError("run_simulation finished without reaching the "
                       "engine's begin_run hook")


#: Environment variable naming the directory sweep workers spool their
#: timings to (one JSON line per run, one file per worker process).
SPOOL_ENV = "PERFBENCH_SPOOL"


def _spool(spec, timings) -> None:
    from repro.experiments.cache import spec_key
    timings["spec_key"] = spec_key(spec)
    path = os.path.join(os.environ[SPOOL_ENV], f"{os.getpid()}.jsonl")
    with open(path, "a", encoding="utf-8") as out:
        out.write(json.dumps(timings) + "\n")


def sweep_worker_timed(spec):
    """``SweepRunner`` worker for timed campaign batches."""
    summary, timings = timed_run(spec)
    _spool(spec, timings)
    return summary


#: The per-process tracer of a traced campaign worker.
_worker_tracer: Optional["Tracer"] = None


def sweep_worker_traced(spec):
    """``SweepRunner`` worker for traced campaign batches.

    Installs the wrappers once per worker process and spools the run's
    spans and counts with its timings.
    """
    global _worker_tracer
    if _worker_tracer is None:
        _worker_tracer = Tracer()
        _worker_tracer.install_sim()
    _worker_tracer.reset()
    summary, timings = timed_run(spec, tracer=_worker_tracer)
    timings["trace"] = _worker_tracer.snapshot()
    _spool(spec, timings)
    return summary


class Tracer:
    """In-memory spans and counts around the layers' entry points."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.span_calls: Counter = Counter()
        self.span_total: Dict[str, float] = defaultdict(float)
        self.span_self: Dict[str, float] = defaultdict(float)
        self._stack: List[float] = []
        self._patches: List[tuple] = []

    # -- wrappers ------------------------------------------------------

    def span(self, name: str, fn: Callable,
             on_result: Optional[Callable[[Any], None]] = None
             ) -> Callable:
        """``fn`` timed as span ``name``; ``on_result`` sees its value."""
        stack = self._stack
        total, own, calls = self.span_total, self.span_self, self.span_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                children = stack.pop()
                total[name] += elapsed
                own[name] += elapsed - children
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def counted(self, name: str, fn: Callable,
                true_name: Optional[str] = None) -> Callable:
        """``fn`` with a call count (and a count of truthy results)."""
        counts = self.counts
        if true_name is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[name] += 1
                if result:
                    counts[true_name] += 1
                return result
        return wrapper

    def patch(self, owner: Any, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until
        :meth:`uninstall`."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Zero every span and count (wrappers stay installed)."""
        self.counts.clear()
        self.span_calls.clear()
        self.span_total.clear()
        self.span_self.clear()
        self._stack.clear()

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict copy of the spans and counts."""
        return {
            "counts": dict(self.counts),
            "spans": {name: {"calls": self.span_calls[name],
                             "total_s": self.span_total[name],
                             "self_s": self.span_self[name]}
                      for name in self.span_calls},
        }

    # -- the layers ------------------------------------------------------

    def install_sim(self) -> None:
        """Wrap the packet simulator's layers (engine to control)."""
        from repro.core import policies
        from repro.core.grouping import ChannelGroup
        from repro.experiments import runner
        from repro.obs.decisions import DecisionLog
        from repro.routing.adaptive import MinimalAdaptiveRouting
        from repro.routing.restricted import RestrictedAdaptiveRouting
        from repro.sim.channel import Channel
        from repro.sim.engine import Event, Simulator
        from repro.sim.fabric import Fabric
        from repro.sim.host import Host
        from repro.sim.switch import Switch
        from repro.topology.flattened_butterfly import FlattenedButterfly

        counted, span, patch = self.counted, self.span, self.patch
        patch(Simulator, "schedule_at",
              lambda f: counted("engine.schedules", f))
        patch(Event, "cancel", lambda f: counted("engine.cancels", f))

        patch(Channel, "enqueue",
              lambda f: counted("channel.enqueue.calls", f))
        patch(Channel, "release_credits",
              lambda f: counted("channel.release_credits.calls", f))
        patch(Channel, "can_enqueue",
              lambda f: counted("channel.can_enqueue.calls", f,
                                "channel.can_enqueue.true"))
        patch(Channel, "set_rate",
              lambda f: counted("channel.set_rate.calls", f,
                                "channel.set_rate.changed"))

        patch(Switch, "receive", lambda f: counted("switch.receive.calls", f))
        patch(Switch, "on_output_space",
              lambda f: span("switch.on_output_space", f))
        counts = self.counts

        def note_candidates(result) -> None:
            counts["routing.candidates"] += len(result)
        for strategy in (MinimalAdaptiveRouting, RestrictedAdaptiveRouting):
            patch(strategy, "__call__",
                  lambda f: span("routing", f, on_result=note_candidates))
        for method in ("coordinate", "switch_index", "host_switch",
                       "peer_in_dimension", "differing_dimensions"):
            patch(FlattenedButterfly, method,
                  lambda f: counted("topology.calls", f))

        patch(Host, "submit_message",
              lambda f: span("host.submit_message", f))
        patch(Host, "receive", lambda f: counted("host.receive.calls", f))

        patch(Fabric, "__init__", lambda f: span("setup.fabric", f))
        patch(runner, "build_controller",
              lambda f: span("setup.controller", f))

        for cls in vars(policies).values():
            if isinstance(cls, type) and "decide" in cls.__dict__ \
                    and cls.__module__ == policies.__name__ \
                    and cls.__name__ != "RatePolicy":
                patch(cls, "decide",
                      lambda f: counted("control.policy_decide.calls", f))
        patch(ChannelGroup, "set_rate",
              lambda f: counted("control.group_set_rate.calls", f))
        patch(DecisionLog, "record", lambda f: span("control.decision_log", f))

    def harvest_network(self, network) -> None:
        """Add a finished run's exact fabric counters to the counts."""
        counts = self.counts
        for channel in network.all_channels():
            counts["channel.credit_stalls"] += channel.stats.credit_stalls
            counts["channel.reactivation_ns"] += \
                channel.stats.reactivation_ns_total
        counts["switch.packets_routed"] += sum(
            switch.packets_routed for switch in network.switches)

    def install_sweep(self) -> None:
        """Wrap the sweep harness's cache (parent process only)."""
        from repro.experiments.cache import SweepCache
        self.patch(SweepCache, "get", lambda f: self.span("cache.get", f))
        self.patch(SweepCache, "put", lambda f: self.span("cache.put", f))

    def install_service(self) -> None:
        """Wrap the live service's ingest, actuation, plant, checkpoint
        and clock entry points."""
        from repro.service import checkpoint
        from repro.service.clock import VirtualClock
        from repro.service.plant import FabricPlant
        from repro.service.service import ControlPlaneService
        from repro.service.streams import TelemetryStream
        from repro.service.transport import ActuationTransport

        counts, span, patch = self.counts, self.span, self.patch

        def note_accepted(result) -> None:
            if result:
                counts["service.ingest.accepted"] += 1

        def note_bytes(result) -> None:
            counts["service.checkpoint.bytes"] += len(result)

        patch(TelemetryStream, "offer",
              lambda f: span("service.ingest", f, on_result=note_accepted))
        patch(ActuationTransport, "send",
              lambda f: span("service.actuate", f))
        for method in ("step", "telemetry", "apply"):
            patch(FabricPlant, method, lambda f: span("service.plant", f))
        patch(checkpoint.MemoryCheckpointStore, "save",
              lambda f: span("service.checkpoint", f))
        patch(checkpoint, "encode_checkpoint",
              lambda f: span("service.checkpoint.encode", f,
                             on_result=note_bytes))
        for method in ("advance_to", "next_wake"):
            patch(VirtualClock, method, lambda f: span("service.clock", f))
        patch(ControlPlaneService, "run", lambda f: span("service.run", f))
