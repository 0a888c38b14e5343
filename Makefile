.PHONY: install test bench bench-full ledger-smoke examples lint clean

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
	rm -rf .pytest_cache .hypothesis benchmarks/results
