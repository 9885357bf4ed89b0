# Tier-1 gate plus the race-sensitive packages. `make` = build+vet+test.

GO ?= go

.PHONY: all build vet test race check loc bench sched-bench bench-compare remote-bench remote-bench-compare obs-smoke obs-bench cluster-smoke trace-smoke stm-bench stm-bench-compare stm-smoke diag-smoke top-smoke sample-bench vm-bench vm-bench-compare vm-smoke vm-fuzz stingmark-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The fabric, cluster, tuple-space, and observability packages carry the
# concurrency-critical paths (wire callbacks, cancel tokens, fan-out
# racing, hash-bin locking, lock-free histograms, the trace ring); run
# them under the race detector on every check. stm rides along for its
# remote-commit torture test, which drives the fabric client's write path;
# scheme because its Env cells are the memory both engines share.
race:
	$(GO) test -race ./internal/remote/... ./internal/cluster/... ./internal/tspace/... ./internal/sio/... ./internal/obs/... ./internal/core/... ./internal/vm/... ./internal/stm/... ./internal/scheme/...

check: build vet test race

# Code lines (non-test .go, neither blank nor //-only) per package and in
# total — the one counting rule deletion PRs quote.
loc:
	./scripts/loc.sh

bench:
	$(GO) test -bench BenchmarkRemoteTuplePingPong -run xxx ./internal/remote/
	$(GO) run ./cmd/stingbench -table remote

# Regenerate the scheduler-core table and refresh the committed baseline.
sched-bench:
	$(GO) run ./cmd/stingbench -table sched -json BENCH_sched.json

# Rerun the scheduler table and fail on >10% ns/op regression against the
# committed BENCH_sched.json baseline.
bench-compare:
	./scripts/bench_compare.sh

# Regenerate the remote fabric table (ping-pong RTTs + the Put
# saturation sweep) and refresh the committed baseline. The
# remote/sat rows carry the ≥5× pipelined-vs-serial acceptance gate;
# the codec allocs/op gate lives in the -benchmem benchmarks below.
remote-bench:
	$(GO) test -run xxx -bench 'BenchmarkCodec' -benchmem ./internal/remote/
	$(GO) run ./cmd/stingbench -table remote -json BENCH_remote.json

# Rerun the remote table and fail on >10% ns/op regression against the
# committed BENCH_remote.json baseline (advisory in CI).
remote-bench-compare:
	./scripts/remote_compare.sh

# Boot stingd -http, scrape /metrics + /healthz + /debug/trace, grep for
# the required metric families.
obs-smoke:
	./scripts/obs_smoke.sh

# Boot stingd with a tight stall SLO, plant a hot key and a stalled
# waiter, assert /debug/diag surfaces both and the flight recorder dumps.
diag-smoke:
	./scripts/diag_smoke.sh

# Boot a 3-shard stingd cluster, drive keyed + wildcard ops through the
# sting CLI, assert all shards healthy with zero misroutes.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Boot a 2-shard cluster with SLO evaluation on (one objective engineered
# to breach), drive traffic, and assert /debug/slo + the /readyz gate +
# the stingtop -once -json rollup (cluster p99 from merged buckets,
# merged count = shard sum).
top-smoke:
	./scripts/top_smoke.sh

# The sampler-overhead ablation (EXPERIMENTS.md): remote ping-pong with
# the time-series sampler + SLO engine off vs on at a 10ms interval.
sample-bench:
	$(GO) run ./cmd/stingbench -table remote -sample

# Boot a 2-shard cluster with causal tracing on, run a traced op from the
# sting CLI, merge all span dumps with tracecat, and assert the stitched
# trace has client→server parentage under one trace ID.
trace-smoke:
	./scripts/trace_smoke.sh

# Regenerate the STM contention sweep + overhead ablation and refresh the
# committed baseline.
stm-bench:
	$(GO) run ./cmd/stingbench -table stm -json BENCH_stm.json

# Rerun the STM sweep and fail on >10% ns/op regression against the
# committed BENCH_stm.json baseline (advisory in CI).
stm-bench-compare:
	./scripts/stm_compare.sh

# Boot a single-shard stingd, run (atomic ...) transfers from the sting
# CLI over the wire, assert conservation and server-side stm metrics.
stm-smoke:
	./scripts/stm_smoke.sh

# Regenerate the execution-engine ablation (bytecode VM vs tree-walker)
# and refresh the committed baseline. The vm/fib and vm/forkjoin rows
# carry the ≥2× speedup acceptance gate.
vm-bench:
	$(GO) run ./cmd/stingbench -table vm -json BENCH_vm.json

# Rerun the engine ablation and fail on >10% regression against the
# committed BENCH_vm.json baseline (advisory in CI).
vm-bench-compare:
	./scripts/vm_compare.sh

# Run every Scheme example under both engines and require byte-identical
# stdout; also assert the default engine is the VM.
vm-smoke:
	./scripts/vm_smoke.sh

# A short engine-differential fuzz run (the committed corpus replays in
# plain `go test`; this searches for new divergences).
vm-fuzz:
	$(GO) test -run FuzzEngines -fuzz FuzzEngines -fuzztime 15s ./internal/scheme/

# stingmark is its own module, which `go test ./...` at the root does not
# descend into: run its smoke test (every workload at the small shape, the
# negative controls, BENCHMARK.json in step with the code).
stingmark-smoke:
	cd benchmark && $(GO) test ./...

# The metric-collection overhead ablation (EXPERIMENTS.md): the remote
# ping-pong with the per-op latency histograms on vs off.
obs-bench:
	$(GO) test -run xxx -bench 'BenchmarkRemoteTuplePingPong' -benchtime 3000x -count 3 ./internal/remote/
