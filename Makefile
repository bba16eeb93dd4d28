GO ?= go

.PHONY: all build vet test race check chaos chaos-mc chaos-scale partition-race metrics-smoke transport-race bench bench-update perfbench-test docs-lint

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fast feedback: skip the long experiment sweeps.
test:
	$(GO) test -short ./...

# Full suite under the race detector (CI entry point).
race:
	$(GO) test -race ./...

# Fault-injection matrix: the chaos, crash, lifecycle/lease/eviction and
# registry-failover suites under the race detector, swept over several
# deterministic seeds (DFI_CHAOS_SEED is read by the core test env;
# -count=1 defeats caching so every seed really runs).
CHAOS_SEEDS ?= 11 1 7 42
chaos:
	@for seed in $(CHAOS_SEEDS); do \
		echo "== chaos seed $$seed =="; \
		DFI_CHAOS_SEED=$$seed $(GO) test -race -count=1 \
			-run 'Chaos|Crash|Lifecycle|Lease|Evict|Reattach|Rejoin|Replicated|Remove|Promise|Accept|Ballot' \
			./internal/core/ ./internal/registry/ ./internal/consensus/... || exit 1; \
	done

# Ordered-multicast fault matrix: source crash under leases, gap
# agreement between survivors, target eviction + sequencer-snapshot
# rejoin, and the unsupported-operation surface, swept over the chaos
# seeds (each seed changes which UD sends are lost and therefore which
# sequences need agreement).
chaos-mc:
	@for seed in $(CHAOS_SEEDS); do \
		echo "== chaos-mc seed $$seed =="; \
		DFI_CHAOS_SEED=$$seed $(GO) test -race -count=1 \
			-run 'TestChaosOrderedMulticast|TestOrderedReplicate|TestReplicateMulticast|TestMulticastUnsupportedOps|TestGapNackLimitValidation' \
			./internal/core/ || exit 1; \
	done

# Connection-scaling matrix: the shared-ring suites — core mux
# (shuffle over shared rings, many flows on one node pair, eviction
# reroute, batched lease keepalive, admission), the sharedring
# credit-conservation property tests, and the O(1000)-flow scale sweep
# (throughput within 10% of the 100-flow baseline, sublinear lease
# traffic) — under the race detector across the chaos seeds. -short
# keeps the sweep at 256 flows per seed; one full-scale seed runs the
# acceptance geometry (1000 flows, 100k tuples).
chaos-scale:
	@for seed in $(CHAOS_SEEDS); do \
		echo "== chaos-scale seed $$seed =="; \
		DFI_CHAOS_SEED=$$seed $(GO) test -race -count=1 -short \
			-run 'TestChaosScaleSharedFlows|TestSharedRing' \
			./internal/core/ ./internal/transport/sharedring/ || exit 1; \
	done
	@echo "== chaos-scale full (seed 1) =="
	DFI_CHAOS_SEED=1 $(GO) test -race -count=1 -timeout 600s \
		-run 'TestChaosScaleSharedFlows' ./internal/core/

# Partitioner + membership focus: the packages behind consistent-hash
# routing, rebalance and endpoint re-attach, under the race detector
# (fast enough to run on every change; the full suite lives in `race`).
# Includes the metrics package and the core scrape suite: a scraper
# goroutine hammering Stats()/Summary/exposition while flows run is
# exactly what the race detector must see.
partition-race:
	$(GO) test -race -count=1 ./internal/core/... ./internal/registry/... ./internal/metrics/...

# Ops-plane smoke: run dfiflow with a live metrics endpoint, scrape
# /metrics, /status and /events, and assert the exposition parses and
# the scraped counters equal the end-of-run printed Stats() summary.
metrics-smoke:
	$(GO) test -race -count=1 -run 'TestMetricsSmoke|TestTraceSummary|TestEventsOut' ./cmd/dfiflow/

# Transport layer under the race detector: the conformance suite on
# both backends (DES fabric + chanloop), the chanloop quickstart-shaped
# e2e flow on real goroutines moving real bytes, and the dfiflow
# -transport=chan CLI coverage. This is the backend-agnosticism gate:
# the same core data path must deliver identical payloads without the
# sim kernel serializing anything.
transport-race:
	$(GO) test -race -count=1 ./internal/transport/...
	$(GO) test -race -count=1 -run 'TestTransportConformance' ./internal/fabric/
	$(GO) test -race -count=1 -run 'TestChanTransport' ./cmd/dfiflow/

# Figure benchmarks behind the bench-regression harness. `bench` fails
# when wall-clock ns/op regresses >10% against the committed baseline
# (override with BENCH_TOLERANCE=0.25; BENCH_WALLCLOCK=advisory demotes
# wall-clock regressions to warnings for cross-host runs like CI), when
# any virtual-time metric (GiB/s, mpi-over-dfi, ...) drifts at all —
# virtual drift means the change altered simulated behavior — or when a
# baseline benchmark is missing from the run (so a rename or pattern typo
# cannot pass the gate vacuously), or when allocs/op grows against the
# recorded baseline (allocation regressions are how the zero-alloc data
# path decays). `bench-update` re-records the current section of the
# baseline file (history stays frozen). All outputs land under the
# ignored bench/ directory so a run can never dirty the tree.
BENCH_PATTERN ?= Fig7aShuffleBandwidth|Fig8aReplicateNaive|Fig8bReplicateMulticast|Fig11CollectiveShuffle|ChanloopShuffle
BENCH_FILE ?= BENCH_PR13.json
BENCH_DIR ?= bench

bench:
	@mkdir -p $(BENCH_DIR)
	$(GO) build -o bin/dfibench ./cmd/dfibench
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count=1 . | tee $(BENCH_DIR)/bench.out
	./bin/dfibench benchjson -compare $(BENCH_FILE) < $(BENCH_DIR)/bench.out

bench-update:
	@mkdir -p $(BENCH_DIR)
	$(GO) build -o bin/dfibench ./cmd/dfibench
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count=1 . | tee $(BENCH_DIR)/bench.out
	./bin/dfibench benchjson -update $(BENCH_FILE) < $(BENCH_DIR)/bench.out

# The perfbench module (BENCHMARK.json's runner) is its own Go module, so
# `go build ./...` never compiles it; vet and test it here so a change in
# internal/ cannot break the benchmark silently.
perfbench-test:
	cd perfbench && $(GO) vet . && $(GO) test .

# Documentation hygiene: every package has a godoc package comment,
# every relative Markdown link/anchor resolves (GitHub slug rules;
# external URLs are not fetched, so the check is offline-deterministic),
# the transport packages document every exported symbol, and
# docs/OPERATIONS.md covers every dfiflow/dfibench flag.
docs-lint:
	$(GO) run ./cmd/docslint

check: build vet race chaos-mc chaos-scale metrics-smoke transport-race perfbench-test docs-lint
