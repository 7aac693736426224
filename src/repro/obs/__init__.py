"""Unified telemetry layer: metrics, decision audit, provenance, traces.

The paper's headline results hinge on *why* the epoch controller picked
each rate transition, yet end-of-run aggregates alone cannot answer
that.  This package is the machine-readable observation layer every
other subsystem reports through:

- :mod:`repro.obs.metrics` — a :class:`~repro.obs.metrics.MetricsRegistry`
  of counters, gauges and fixed-bucket histograms, plus a text dump.
- :mod:`repro.obs.instrument` — a
  :class:`~repro.obs.instrument.FabricProbe` wiring the registry into
  the engine, channels, switches and hosts through the same
  near-zero-cost ``is None``-check hooks the packet tracer uses.
- :mod:`repro.obs.decisions` — a
  :class:`~repro.obs.decisions.DecisionLog` auditing every epoch
  controller decision (sensor reading, old -> new rate, reason) into a
  bounded ring buffer with optional JSONL spill.
- :mod:`repro.obs.runrecord` — provenance-stamped JSONL run records
  (canonical spec, cache key, cached flag, git SHA, ``REPRO_*`` env)
  appended by the sweep harness so any figure traces back to the exact
  runs that produced it.
- :mod:`repro.obs.session` — a :class:`~repro.obs.session.Telemetry`
  bundle attaching all of the above to one in-process run.
- :mod:`repro.obs.trace_export` — Chrome trace-event JSON export
  (per-channel rate tracks, epoch boundaries, power samples and, when
  profiled, wall-time counter tracks) loadable in Perfetto /
  ``chrome://tracing``.
- :mod:`repro.obs.profiling` — a
  :class:`~repro.obs.profiling.PerfProfiler` timing every engine event
  and attributing wall-clock to hot-path phases (routing, channel,
  control, faults, ...), surfaced as ``SimulationSummary.perf`` and
  by ``repro perf profile``.  The repository's benchmark of record,
  ``perfbench/run.py``, reads the same profiler.

Only the dependency-free core (metrics, decisions, profiling) is
re-exported here; import :mod:`repro.obs.runrecord`,
:mod:`repro.obs.session` and :mod:`repro.obs.trace_export` directly —
they depend on :mod:`repro.experiments` and importing them from the
package root would cycle.
"""

from repro.obs.decisions import Decision, DecisionLog
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profiling import PerfProfiler

__all__ = [
    "Counter",
    "Decision",
    "DecisionLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PerfProfiler",
]
