"""Benchmark harness configuration.

Each ``bench_*.py`` file regenerates one table or figure of the paper
(plus ablations and the simulator, sweep, predictive and service
layers), wrapped in pytest-benchmark so the cost of every experiment is
tracked run-over-run while its shape assertions run.  The experiments
go through :func:`measure`, which pins a private single-worker sweep
runner with the cache off, so a warm ``~/.cache/repro/sweeps`` can never
turn a benchmark into a cache read.  What a file wants archived beside
its timings goes into ``benchmark.extra_info``, which
``--benchmark-json PATH`` writes out.

The repository's measurement of record (pinned digests, exact
per-layer counters, measured spread) is ``python3 perfbench/run.py``;
see ``perfbench/README.md``.

Scale comes from ``REPRO_SCALE`` (small | medium | paper), as everywhere
else.  Results print with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import pytest

from repro.experiments.scale import current_scale
from repro.experiments.sweep import SweepRunner, using_runner


@pytest.fixture(scope="session")
def scale():
    return current_scale()


def measure(benchmark, fn, *args, rounds=1, warmup_rounds=0, **kwargs):
    """Benchmark ``fn(*args, **kwargs)`` on a private sweep runner.

    Every round gets a fresh ``SweepRunner(jobs=1, use_cache=False)``,
    so each round simulates live.  Returns ``(result, events)``: the
    last round's result and the engine events its sweeps fired (0 for
    analytic experiments and for those that run networks without the
    sweep runner), which also land in ``benchmark.extra_info["events"]``.
    """
    def execute():
        runner = SweepRunner(jobs=1, use_cache=False)
        with using_runner(runner):
            result = fn(*args, **kwargs)
        return result, runner.stats.events_fired

    result, events = benchmark.pedantic(
        execute, rounds=rounds, iterations=1, warmup_rounds=warmup_rounds)
    benchmark.extra_info["events"] = events
    return result, events
