"""Sweep harness overhead: cold execution vs warm persistent cache.

The figure benchmarks (`bench_figure7/8/9.py`) route through the sweep
harness implicitly; this file benchmarks the harness itself on a batch
of small runs, demonstrating the executed-vs-cache-hit accounting and
the warm-cache fast path that makes figure re-runs near-instant.  Each
round builds its cache in a fresh temporary directory; the warm round
primes it with one cold sweep first.

Each benchmark records the batch size and its ``SweepStats`` counters
in ``benchmark.extra_info``, which ``--benchmark-json PATH`` archives.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from repro.experiments.cache import SweepCache, summary_digest
from repro.experiments.runner import SimulationSpec
from repro.experiments.sweep import SweepRunner

#: The batch every benchmark here sweeps: four seeds of one small spec.
SPECS = [replace(SimulationSpec(k=2, n=2, duration_ns=200_000.0),
                 seed=seed) for seed in range(1, 5)]


def _sweep(warm):
    """Sweep ``SPECS`` on a fresh cache; prime it first when ``warm``."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        cache = SweepCache(Path(tmp) / "cache")
        if warm:
            SweepRunner(jobs=1, cache=cache).run(SPECS)
        runner = SweepRunner(jobs=1, cache=cache)
        results = runner.run(SPECS)
    return results, runner.last_stats.to_dict()


def _benchmark_sweep(benchmark, warm):
    results, stats = benchmark.pedantic(_sweep, args=(warm,), rounds=3,
                                        iterations=1)
    benchmark.extra_info.update(specs=len(SPECS), stats=stats)
    return results, stats


def test_sweep_cold(benchmark):
    results, stats = _benchmark_sweep(benchmark, warm=False)
    print("\n[sweep cold] executed=%d cache_hits=%d" %
          (stats["executed"], stats["cache_hits"]))

    assert stats["executed"] == len(SPECS)
    assert stats["cache_hits"] == 0
    assert set(results) == set(SPECS)
    assert stats["events_fired"] > 0


def test_sweep_warm_cache(benchmark):
    results, stats = _benchmark_sweep(benchmark, warm=True)
    print("\n[sweep warm] executed=%d cache_hits=%d" %
          (stats["executed"], stats["cache_hits"]))

    assert stats["executed"] == 0
    assert stats["cache_hits"] == len(SPECS)
    assert set(results) == set(SPECS)
    # Warm runs fire no engine events — everything comes from disk.
    assert stats["events_fired"] == 0


def test_sweep_warm_matches_cold(tmp_path):
    cache_dir = tmp_path / "cache"
    cold = SweepRunner(jobs=1, cache=SweepCache(cache_dir)).run(SPECS)
    warm = SweepRunner(jobs=1, cache=SweepCache(cache_dir)).run(SPECS)
    for spec in SPECS:
        assert summary_digest(warm[spec]) == summary_digest(cold[spec])
