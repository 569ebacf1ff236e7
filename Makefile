# Convenience targets; everything is also runnable directly with pytest.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test lint bench bench-smoke figures claims docs examples all clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

# static checks (config in pyproject.toml [tool.ruff]); install with
# `pip install -e .[lint]`
lint:
	$(PYTHON) -m ruff check src tests benchmarks examples tools

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# tiny-parameter smoke run of the move-evaluation, core-perf,
# runtime-overhead, batch-kernel, parallel, service, migration,
# topology, routing and fleet benches (used by CI): exercises both pricing
# code paths, the compiled-vs-legacy parity check, the legacy-loop
# parity of the search runtime, the batch-vs-scalar parity of the
# vectorized kernel, the 2-worker process pool (GA restarts/portfolio +
# workers=1 identity), the transition-aware-vs-blind drift replay, the
# naive-vs-rebalancing Abilene link-failure replay, and the batched
# route-compile comparison plus scoped invalidation vs the from-scratch
# rebuild oracle, tests.oracles.rebuild_routes_on_link_events, and the
# fleet surge replay's compile/rebind/route-read counters (the
# deterministic ratio, Dijkstra-count and compile-count floors ARE
# asserted), without asserting the hardware perf floors; then the
# end-to-end benchmark's self-tests (one-unit runs of every workload:
# correctness oracle, repeatable digests, traced == untraced decisions)
bench-smoke:
	BENCH_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_move_eval.py benchmarks/bench_core_perf.py benchmarks/bench_runtime.py benchmarks/bench_batch_eval.py benchmarks/bench_parallel.py benchmarks/bench_service_queue.py benchmarks/bench_migration.py benchmarks/bench_topology.py benchmarks/bench_routing.py benchmarks/bench_fleet.py --benchmark-disable -q
	$(PYTHON) -m pytest benchmarks/e2e/test_e2e.py -q

figures:
	$(PYTHON) -m repro figures --output benchmarks/output

claims:
	$(PYTHON) -m repro claims

docs:
	$(PYTHON) tools/gen_api_docs.py

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

all: install test bench claims docs

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
