PYTHON ?= python

.PHONY: test verify bench bench-apps bench-flow bench-weighted \
	bench-batch bench-serving bench-dynamic bench-distributed \
	check-bench examples results

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Deterministic tests plus reference-parity smoke runs of the benchmarks.
verify:
	sh scripts/verify.sh

# Regenerate the committed experiment tables: the benchmark suite
# writes them into the gitignored benchmarks/out/ (so a plain test run
# never touches tracked files); this copies them over benchmarks/results/.
results:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ -q
	cp benchmarks/out/*.txt benchmarks/results/

# Full CSR-vs-reference benchmark: rewrites BENCH_backend.json at the
# repository root.
bench:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_backend.py

# Full applications benchmark: rewrites BENCH_applications.json.
bench-apps:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_applications.py

# Flow-engine verification benchmark: exhaustive fault-set sweep vs
# Dinic witness certificates, verdict parity asserted per instance.
# Full mode rewrites BENCH_flow.json; CI runs it with QUICK=--quick.
bench-flow:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_flow.py $(QUICK)

# Weighted-engine parity smoke: the bucket-queue / bidirectional
# Dijkstra scenarios only, quick instances, CSR answers asserted equal
# to the dict reference per scenario.  Never writes the JSON reports.
bench-weighted:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_backend.py --quick --only verif
	PYTHONPATH=src $(PYTHON) benchmarks/bench_applications.py --quick --only oracle

# Batch-engine parity smoke: only the multi-source scenarios (batched
# oracle distances + batched routing tables), quick instances, CSR
# answers asserted equal to the dict reference per scenario.  Never
# writes the JSON reports.
bench-batch:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_applications.py --quick --only multi

# Serving load test: open-loop throughput and p50/p99 latency through
# the multi-process worker pool, healthy vs a 10% seeded chaos
# injection (SIGKILLs + deadline-overrunning stalls), every completed
# answer audited bit-identical against the in-process engine.  Full
# mode rewrites BENCH_serving.json; CI runs it with QUICK=--quick.
bench-serving:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_serving.py $(QUICK)

# Dynamic-snapshot churn benchmark: delta-overlay streaming updates vs
# a from-scratch CSR freeze after every batch, per-batch answer parity
# asserted per instance.  Full mode rewrites BENCH_dynamic.json; CI
# runs it with QUICK=--quick.
bench-dynamic:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_dynamic.py $(QUICK)

# Parallel CONGEST execution benchmark: distributed constructions on
# the substrate worker pool vs the sequential simulator, bit-identical
# outputs (spanner edges + RunStats) asserted per row.  Full mode
# rewrites BENCH_distributed.json; CI runs it with QUICK=--quick.
bench-distributed:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_distributed.py $(QUICK)

# Validate the committed BENCH_*.json reports: schema, full-run (not
# --quick) provenance, and identical_outputs on every instance.
check-bench:
	$(PYTHON) scripts/check_bench_json.py

# Run every example end to end with DeprecationWarning promoted to an
# error, so the repository's own snippets never lean on a deprecated API.
examples:
	@for ex in examples/*.py; do \
		echo "== $$ex"; \
		PYTHONPATH=src $(PYTHON) -W error::DeprecationWarning $$ex \
			> /dev/null || exit 1; \
	done
	@echo "examples: OK"
