# One-word entry points for the tier-1 and presubmit commands.
#
#   make test        — tier-1: the full suite at the paper's 24h budgets
#   make smoke       — presubmit: same suite (conformance matrix
#                      included), campaigns compressed to 2 simulated
#                      hours / 1 repetition (claim gates skipped)
#   make bench       — the evaluation benchmarks only (regenerates
#                      BENCH_*.json)
#   make test-matrix — the cross-protocol conformance matrix plus the
#                      channel-fault/differential-oracle, live-network
#                      (socket/serve), block-probe parity, coverage-impl
#                      parity and batched-execution identity suites
#   make fleet-demo  — a small synced 4-shard fleet in /tmp, rendered
#                      with the per-shard/merged summary table
#   make sessions-demo — the stateful session-fuzzing walkthrough
#                      (examples/fuzz_sessions.py on IEC 104)

PY ?= python
PYTEST_ARGS ?= -x -q
FLEET_DEMO_DIR ?= /tmp/peachstar-fleet-demo
SESSIONS_DEMO_HOURS ?= 8

export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test smoke bench test-matrix fleet-demo sessions-demo

test:
	$(PY) -m pytest $(PYTEST_ARGS)

smoke:
	REPRO_BENCH_HOURS=2 REPRO_BENCH_REPS=1 $(PY) -m pytest $(PYTEST_ARGS)

bench:
	$(PY) -m pytest benchmarks $(PYTEST_ARGS)

test-matrix:
	$(PY) -m pytest tests/protocols/test_conformance.py tests/channel \
		tests/net tests/runtime/test_probes.py \
		tests/runtime/test_vector_parity.py tests/core/test_batching.py \
		$(PYTEST_ARGS)

fleet-demo:
	rm -rf $(FLEET_DEMO_DIR)
	$(PY) -m repro.cli fleet libmodbus --shards 4 --sync-every 100 \
		--hours 4 --workspace $(FLEET_DEMO_DIR) --jobs 4

sessions-demo:
	$(PY) examples/fuzz_sessions.py $(SESSIONS_DEMO_HOURS)
