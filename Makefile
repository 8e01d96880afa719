# Developer entry points. `make check` is what CI runs: lint (when ruff is
# installed), the tier-1 suite, the scheduler-equivalence gate (the timer
# wheel must be bit-identical to its tests/oracles/ reference, a
# self-rescheduling timer, and the binary-heap event queue must pop in
# (time, seq) order; the heap has no oracle), the benchmark
# regression gate (a quick kernel-bench smoke pass — which re-verifies the
# send hot-path speedup, the swim_full checksums and the seeded-run
# determinism checksum — compared against the
# committed full-mode BENCH_kernel.json),
# the chaos smoke gate (the fault-injection layer stays deterministic and
# inert when unused), the focusbench smoke pass (the BENCHMARK.json
# yardstick still runs against this tree) and the hotspots smoke pass (the
# profiler's wrappers and named protocol methods still match the code).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check lint test scheduler-equivalence global-state-gate \
        bench-gate bench-kernel \
        bench-kernel-smoke bench chaos-smoke bench-shards bench-shards-smoke \
        bench-overload bench-overload-smoke focusbench-smoke digest-diff \
        hotspots hotspots-smoke lockstep figures census

check: lint test scheduler-equivalence global-state-gate bench-gate chaos-smoke \
       focusbench-smoke hotspots-smoke

# Gated on availability: ruff is a dev convenience, not a runtime
# dependency, and the offline test image does not ship it. CI installs it.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check . && ruff format --check .; \
	else \
		echo "lint: ruff not installed, skipping (pip install ruff)"; \
	fi

# Also part of `test`; kept as a named gate so scheduler changes can be
# validated in isolation (and so CI logs show the equivalence pass by name).
scheduler-equivalence:
	$(PYTHON) -m pytest tests/test_sim_scheduler.py -q

# Cross-simulation isolation: two seeded sims in one process must checksum
# identically in both run orders (no interpreter-global mutable state), and
# run_until's inclusive-bound rule must hold on the event queue.
# Part of `test` too; named so the sweep is visible in CI logs.
global-state-gate:
	$(PYTHON) -m pytest tests/test_global_state.py \
		tests/test_run_until_boundary.py -q

test:
	$(PYTHON) -m pytest -x -q

bench-kernel-smoke:
	$(PYTHON) benchmarks/bench_kernel.py --quick

bench-shards-smoke:
	$(PYTHON) benchmarks/bench_shards.py --quick

bench-overload-smoke:
	$(PYTHON) benchmarks/bench_overload.py --quick

# Regenerate the quick-mode results and diff them against the committed
# full-mode baselines; see benchmarks/gate.py for what is compared. The
# GATE_SUMMARY hook lets CI append the verdict to $GITHUB_STEP_SUMMARY.
bench-gate: bench-kernel-smoke bench-shards-smoke bench-overload-smoke
	$(PYTHON) benchmarks/gate.py \
		--shards-baseline BENCH_shards.json \
		--shards-candidate BENCH_shards.quick.json \
		--overload-baseline BENCH_overload.json \
		--overload-candidate BENCH_overload.quick.json \
		$(if $(GATE_SUMMARY),--summary $(GATE_SUMMARY))

# Fault-injection determinism gate: the seeded failure scenario's resilience
# report must be byte-stable and match the committed BENCH_chaos.json, and an
# empty fault plan must leave the kernel determinism checksum untouched.
chaos-smoke:
	$(PYTHON) benchmarks/chaos_smoke.py

# The BENCHMARK.json yardstick's own smoke pass (~10 s): a src/ change must
# not break benchmarks/focusbench unnoticed.
focusbench-smoke:
	$(PYTHON) -m pytest benchmarks/focusbench -q

# "Byte stream unchanged" as a command: one smoke focusbench rep per workload
# and seed on the committed files of BASE and on this tree, digests side by
# side, non-zero exit on any difference. Nothing is pinned, so a change that
# moves bytes on purpose reports it here instead of editing a constant.
BASE ?= HEAD~1
digest-diff:
	$(PYTHON) benchmarks/digest_diff.py --base $(BASE) \
		$(if $(DIGEST_SUMMARY),--summary $(DIGEST_SUMMARY))

# One level below the focusbench ledger: the top functions of one workload's
# steady phase by self time, with calls/event, and the share of gossip
# deliveries that were re-deliveries. Informational; nothing is gated on its
# numbers.
WORKLOAD ?= group_mesh
hotspots:
	PYTHONHASHSEED=0 $(PYTHON) -m benchmarks.hotspots --workload $(WORKLOAD)

# The same report on a smoke-size group_mesh, serve_ramp, trace_replay and
# churn_moves (~1 s each), for its own checks: the tool wraps and names
# private protocol methods, so a rename or a moved call fails here instead of
# silently zeroing a row, serve_ramp makes the RPC calls its deadline rows and
# cyclic-garbage check need (group_mesh makes almost none), trace_replay runs
# the probe rounds and Serf queries whose events its sum must account for,
# and churn_moves is the one smoke pass that reaches the store: its static
# queries, registrations and deregistrations.
hotspots-smoke:
	PYTHONHASHSEED=0 $(PYTHON) -m benchmarks.hotspots --workload group_mesh \
		--scale smoke --top 5
	PYTHONHASHSEED=0 $(PYTHON) -m benchmarks.hotspots --workload serve_ramp \
		--scale smoke --top 5
	PYTHONHASHSEED=0 $(PYTHON) -m benchmarks.hotspots --workload trace_replay \
		--scale smoke --top 5
	PYTHONHASHSEED=0 $(PYTHON) -m benchmarks.hotspots --workload churn_moves \
		--scale smoke --top 5

# A/B of the steady phase against BASE on a box whose speed drifts: both
# trees built in two child processes, their steady phases run alternately
# one sim-time slice at a time, CPU time per slice. Prints per rep both
# totals, the ratio, slices won, events and peak RSS. Informational; no gate.
SEED ?= 42
REPS ?= 3
lockstep:
	$(PYTHON) benchmarks/lockstep.py --base $(BASE) --workload $(WORKLOAD) \
		--seed $(SEED) --reps $(REPS)

# Which function bodies in src/repro a product path reaches, which only
# tier-1 reaches, and which nothing reaches: per file, in lines, from stdlib
# cProfile in every process (~15 min). Informational; nothing is gated on it.
census:
	$(PYTHON) benchmarks/census.py

bench-kernel:
	$(PYTHON) benchmarks/bench_kernel.py

# Full-mode shard scale-out sweep (~15 min); regenerates BENCH_shards.json.
bench-shards:
	$(PYTHON) benchmarks/bench_shards.py

# Full-mode saturation-knee sweep (~2 min); regenerates BENCH_overload.json.
bench-overload:
	$(PYTHON) benchmarks/bench_overload.py

# The paper's figures, tables and ablations (~4 min): the bench_*.py tests,
# each asserting its figure's shape and printing its rows. The nightly
# workflow runs this. FIGURES="fig3 or fig8b" selects tests by name (-k).
figures:
	$(PYTHON) -m pytest benchmarks/bench_*.py --benchmark-only -q -s \
		-p no:cacheprovider $(if $(FIGURES),-k "$(FIGURES)")

# Full paper-figure regeneration (~10 minutes); see benchmarks/README.md.
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s
