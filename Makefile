# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: test race lint lint-fix-check bench microbench quick distributed chaos traces

# test builds everything and runs the full suite (tier-1 gate).
test:
	$(GO) build ./...
	$(GO) test ./...

# race runs the suite under the race detector at reduced scale.
race:
	$(GO) test -race -short ./internal/... .

# LINT_FACTCACHE holds serialized cross-package fact summaries so
# unchanged packages skip fact recomputation (CI restores it with
# actions/cache).
LINT_FACTCACHE := .lintcache/facts

# lint runs the simlint suite (docs/LINT.md): determinism, unit-safety,
# event-queue discipline and metrics-registration analyzers.
lint:
	$(GO) run ./cmd/simlint -time -factcache $(LINT_FACTCACHE) ./...

# lint-fix-check is lint plus stale-escape-hatch detection: justified
# //simlint: annotations that no longer suppress anything fail the run.
lint-fix-check:
	$(GO) run ./cmd/simlint -unused -time -factcache $(LINT_FACTCACHE) ./...

# bench runs the repository benchmark (bench/) at seeds 1-3, traced and
# pinned to one CPU, and writes the ledger BENCH_<UTC date>.json
# (docs/PERFORMANCE.md documents the schema and how to read it).
bench:
	bash scripts/bench_ledger.sh

# microbench runs the per-subsystem benchmarks with benchstat-friendly
# output (pipe two runs into benchstat to compare).
microbench:
	$(GO) test -run '^$$' -bench . -benchmem -count 5 ./internal/event ./internal/memctrl

# quick regenerates the quick-scale Fig1/Table1 artifacts with the
# protocol sanitizer enabled.
quick:
	$(GO) run ./cmd/ropexp -exp fig1,tab1 -quick -check -stats-out quick-stats.json

# distributed runs the distributed-campaign byte-identity gate:
# coordinator + 2 workers, one SIGKILLed mid-run, artifact compared
# against a single-process golden (docs/ROBUSTNESS.md).
distributed:
	sh scripts/distributed_ci.sh

# traces runs the trace-format gate: every committed zoo trace must
# validate, round-trip .ropt -> text -> .ropt byte-identically, and a
# checked replay must match the committed golden (docs/TRACES.md).
traces:
	sh scripts/traces_ci.sh

# chaos runs the heavier in-tree chaos test through the real binaries
# (3 workers: one SIGKILLed, one SIGSTOP-wedged, plus a replacement).
chaos:
	$(GO) test -run TestFaultDistributedWorkerLossByteIdentical -v -count=1 .
