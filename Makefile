# Tier-1 gate plus the whole tree under the race detector and the stingmark
# smoke. `make` = build+vet+test+race+stingmark-smoke.

GO ?= go

.PHONY: all build vet test race check loc obs-smoke cluster-smoke trace-smoke stm-smoke diag-smoke top-smoke vm-smoke vm-fuzz stingmark-smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# stingmark-smoke compiles benchmark/, a separate module that imports
# repro/internal/... and that `go build ./...` never reaches, so a change
# that removes a name it uses fails here rather than only in CI.
check: build vet test race stingmark-smoke

# Code lines (non-test .go, neither blank nor //-only) per package and in
# total — the one counting rule deletion PRs quote.
loc:
	./scripts/loc.sh

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

# Boot a 2-shard cluster with causal tracing on, run a traced op from the
# sting CLI, merge all span dumps with tracecat, and assert the stitched
# trace has client→server parentage under one trace ID.
trace-smoke:
	./scripts/trace_smoke.sh

# Boot a single-shard stingd, run (atomic ...) transfers from the sting
# CLI over the wire, assert conservation and server-side stm metrics.
stm-smoke:
	./scripts/stm_smoke.sh

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
