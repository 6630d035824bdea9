# Developer / CI entry points. `make bench` records the serving
# trajectory to BENCH_PR10.json (throughput + adaptive refinement +
# continuous monitoring + mixed read/write interference + NN
# refinement + observability overhead + durable WAL ingestion +
# sharded-fleet scaling); BENCH_PR1..9.json stay checked in as the
# previous revisions' baselines. `make bench-regression` replays the
# same profile and fails (exit 3) if io-bound batch QPS, C-IUQ
# refinement latency, ingestion updates/sec, mixed-workload throughput
# (either side), refinement allocs/op, the NN adaptive sample savings /
# qualifying-set equality / shared-kernel speedup, the observability
# no-trace latency / allocs / trace overhead, the durable updates/sec
# per fsync policy / checkpoint / recovery wall-clock, or the sharded
# fleet's aggregate throughput / 4-shard speedup floor regress more
# than the tolerance against the checked-in BENCH_PR10.json — the CI
# perf gate.
# `make apicheck` gates the public API surface against api/repro.txt.

GO ?= go

BENCH_PROFILE = -exp exp-throughput,exp-adaptive,exp-continuous,exp-mixed,exp-nn,exp-obs,exp-durability,exp-sharded \
	-points 8000 -rects 10000 -queries 64 -workers 1,2,4 \
	-threshold 0.1,0.5,0.9 -adaptive-samples 2048 -nn-samples 2000 \
	-standing 64 -update-batches 40 -batch-size 32 -readers 2 \
	-shard-counts 1,2,4,8 -shard-clients 2

.PHONY: all build test race bench bench-sharded bench-regression cluster-smoke soak fuzz-smoke lint apicheck apiupdate

all: build test race

build:
	$(GO) build ./...
	$(GO) vet ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# The concurrency surfaces under sustained -race repetition — the CI
# soak job: the continuous-query monitor plus the MVCC snapshot
# overlap tests (slow pinned evaluations racing update floods), and
# the crash-recovery property sweep (≥100 randomized kill points, each
# recovery checked bit-exact against an uninterrupted reference).
soak:
	$(GO) test -race -run Monitor -count=3 ./internal/monitor/...
	$(GO) test -race -run Snapshot -count=3 ./internal/core/
	$(GO) test -run 'TestCrashRecoveryProperty|TestCheckpointFaultInjection' -count=3 ./internal/core/

# Modest dataset sizes so the bench target finishes in about a minute
# while still exercising realistic candidate sets.
bench: build
	$(GO) run ./cmd/ildq-bench $(BENCH_PROFILE) -json BENCH_PR10.json
	$(GO) test ./internal/bench -run xxx -bench 'BenchmarkRefine|BenchmarkThroughput' -benchtime 1s

# Just the horizontal-scaling curve: aggregate QPS and updates/sec of
# tile-partitioned io-bound fleets at 1/2/4/8 shards.
bench-sharded: build
	$(GO) run ./cmd/ildq-bench -exp exp-sharded \
		-points 8000 -rects 10000 -queries 64 \
		-update-batches 40 -batch-size 32 -shard-counts 1,2,4,8 -shard-clients 2

# Re-run the recorded profile and gate against the checked-in
# baseline. The fresh numbers land in BENCH_CI.json (uploaded as a CI
# artifact, where multi-core runners also record worker scaling).
bench-regression: build
	$(GO) run ./cmd/ildq-bench $(BENCH_PROFILE) -json BENCH_CI.json \
		-baseline BENCH_PR10.json -regress 0.20

# Multi-process sharded smoke: boot ildq-router over real ildq-serve
# shard processes, replay a mixed workload through both the fleet and
# a single reference engine, and fail unless every answer is
# bit-exact. The CI sharded job runs this.
cluster-smoke: build
	$(GO) run ./examples/cluster -shards 2 -rounds 3

# Short fuzzing smoke: the R-tree op-stream and node-codec targets,
# the WAL frame codec, and the HTTP request/update decoders.
fuzz-smoke:
	$(GO) test -fuzz=FuzzRTree -fuzztime=30s ./internal/index/rtree
	$(GO) test -fuzz=FuzzNodeRoundTrip -fuzztime=15s ./internal/index/rtree
	$(GO) test -fuzz=FuzzDecodeNode -fuzztime=15s ./internal/index/rtree
	$(GO) test -fuzz=FuzzWALRecord -fuzztime=15s ./internal/wal
	$(GO) test -fuzz=FuzzRequestJSON -fuzztime=15s ./internal/serve
	$(GO) test -fuzz=FuzzUpdateJSON -fuzztime=15s ./internal/serve

# API-surface gate: the public facade (package repro) is a reviewed
# artifact. apicheck regenerates the surface with `go doc -all` and
# fails when it drifts from the checked-in api/repro.txt — growing or
# changing the surface means updating that file in the same PR
# (`make apiupdate`), which makes every surface change a reviewed
# decision. Wired into the CI lint job.
apicheck:
	@$(GO) doc -all . > api/repro.txt.new; \
	if ! diff -u api/repro.txt api/repro.txt.new; then \
		rm -f api/repro.txt.new; \
		echo ""; \
		echo "public API surface drifted from api/repro.txt;"; \
		echo "review the diff above and run 'make apiupdate' to accept."; \
		exit 1; \
	fi; rm -f api/repro.txt.new
	@echo "api surface matches api/repro.txt"

apiupdate:
	$(GO) doc -all . > api/repro.txt

# Mirrors the CI lint job: gofmt, vet, apicheck, and staticcheck when
# installed (CI installs staticcheck@2025.1.1; offline dev
# environments fall back to gofmt+vet+apicheck).
lint: apicheck
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi
