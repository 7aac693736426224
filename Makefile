# Developer entry points.  PYTHONPATH=src everywhere: the repo runs
# from a source checkout without installation.

PY := PYTHONPATH=src python
JOBS ?= 4

.PHONY: test bench perfbench smoke-sweep campaigns golden-refresh \
	clean-cache

test:            ## tier-1 test suite
	$(PY) -m pytest -x -q

bench:           ## every figure benchmark (regenerates and asserts each)
	$(PY) -m pytest benchmarks/ --benchmark-only

perfbench:       ## the benchmark of record: every workload, digest-gated
	python3 perfbench/run.py

smoke-sweep:     ## quick parallel sweep: figure 7 with 2 workers
	$(PY) -m repro figure7 --jobs 2

SIM_CAMPAIGNS := fault-tolerance chaos-campaign demand-topology

campaigns:       ## every verdict campaign, each gated on its verdict
	for c in $(SIM_CAMPAIGNS); do \
		$(PY) -m repro campaign $$c --compare --jobs $(JOBS) || exit 1; \
	done
	$(PY) -m repro campaign service-resilience --compare

golden-refresh:  ## deliberately regenerate tests/golden/*.json
	$(PY) -m repro golden-refresh --no-cache
	@git --no-pager diff --stat tests/golden || true

clean-cache:     ## drop the persistent sweep cache
	rm -rf $${REPRO_CACHE_DIR:-$$HOME/.cache/repro/sweeps}
