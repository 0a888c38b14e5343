.PHONY: install test bench bench-full ledger-smoke ledger-pairs examples lint clean

PYTHON ?= python

install:
	$(PYTHON) -m pip install -e ".[dev]"

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -x -q -m "not slow"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# All four perf-ledger workloads at a tenth of the size (< 30 s); exits
# non-zero on a failed correctness check or a leaked process / shm segment.
ledger-smoke:
	$(PYTHON) benchmarks/ledger/run.py --smoke

# The evidence a perf PR owes: alternating parent/change whole-ledger
# pairs (~6 min a pair), compare.py's verdicts, per-pair wins for CLAIM.
# WORKLOAD=train_seq runs that workload only (~40 s a side): development
# pairs, not the PR's claim.
PARENT ?= HEAD~1
PAIRS ?= 10
CLAIM ?= train_seq:tweets_per_s
ledger-pairs:
	$(PYTHON) tools/ledger_pairs.py --parent $(PARENT) --pairs $(PAIRS) --claim $(CLAIM) \
		$(if $(WORKLOAD),--workload $(WORKLOAD))

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/realtime_moderation.py
	$(PYTHON) examples/distributed_firehose.py
	$(PYTHON) examples/related_behaviors.py
	$(PYTHON) examples/session_detection.py
	$(PYTHON) examples/drift_laboratory.py

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples

clean:
	find . -type d -name __pycache__ -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis .bench_work/bench_results
