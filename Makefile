GO ?= go

.PHONY: ci fmt-check vet build test chaos-soak recover-soak cluster-soak failover-soak spec-soak bench-smoke bench-test

ci: fmt-check vet build test chaos-soak recover-soak cluster-soak failover-soak spec-soak bench-smoke bench-test

fmt-check:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Fault-injection soak: 1M events through the serial and sharded engines
# with disorder, duplication, corruption, late tuples, and injected UDF
# panics; fails on any output divergence or dead-letter accounting drift.
chaos-soak:
	$(GO) run ./cmd/eslev chaos -events 1000000 -shards 1
	$(GO) run ./cmd/eslev chaos -events 1000000 -shards 4
	$(GO) run ./cmd/eslev chaos -events 500000 -shards 1 -fanout 64

# Crash-recovery soak: 500k events through the extended operator workload
# (all pairing modes, star, EXCEPTION_SEQ timers, transducer chain), killing
# the perturbed engine every 60k offered readings and recovering it from the
# latest snapshot plus journal replay; fails unless output is row-for-row
# identical to the uninterrupted baseline and the dead-letter accounting
# identity still balances.
recover-soak:
	$(GO) run ./cmd/eslev chaos -events 500000 -shards 1 -extended -kill-every 60000
	$(GO) run ./cmd/eslev chaos -events 500000 -shards 4 -extended -kill-every 60000

# Multi-process loopback soak: spawn real `eslev node` processes at 1, 2,
# and 4 nodes, run the randomized soak workload (all pairing modes, star,
# aggregates, a transducer, heartbeats) through `cluster.Client`, and fail
# unless output is row-for-row identical to the serial engine AND the
# transport accounting identity is exact (every tuple/beat/row the feed
# sent equals what the nodes report having seen). The second run varies
# node-local shards, flush threshold, and seed.
cluster-soak:
	$(GO) run ./cmd/eslev cluster-soak -nodes 1,2,4 -events 50000
	$(GO) run ./cmd/eslev cluster-soak -nodes 2,4 -events 30000 -shards 2 -batch 64 -seed 7

# Kill-a-node fail-over soak: SIGKILL live node processes mid-feed and fail
# unless the surviving cluster's output stays row-for-row identical to the
# serial engine, the accounting identity holds, and every recovery restored
# a shipped checkpoint (no genesis replays). The matrix covers a non-zero
# victim, node 0 (the exact-clock anchor) under sharding, a 4-node kill,
# and back-to-back kills that leave half the fleet dead.
failover-soak:
	$(GO) run ./cmd/eslev cluster-soak -nodes 2 -events 15000 \
		-kill-every 6000 -kill-nodes 1 -checkpoint-every 4
	$(GO) run ./cmd/eslev cluster-soak -nodes 2 -events 15000 -shards 2 -batch 64 -seed 7 \
		-kill-every 6000 -kill-nodes 0 -checkpoint-every 4
	$(GO) run ./cmd/eslev cluster-soak -nodes 4 -events 20000 \
		-kill-every 8000 -kill-nodes 0 -checkpoint-every 4
	$(GO) run ./cmd/eslev cluster-soak -nodes 4 -events 20000 \
		-kill-every 5000 -kill-nodes 3,1 -checkpoint-every 4

# Speculation soak: the full fault mix plus the bursty LateHeavy disorder
# profile (20-30% of readings delayed near the slack bound, clustered by
# reader) with every base-stream query running FAST or MIDDLE. Fails unless
# the compensated record stream — retractions folded against their
# assertions — is row-for-row identical to the strict baseline, and the
# run actually exercised speculation (assertions emitted). The third run
# adds crash/recovery: in-flight assertions must survive snapshot restore
# and retract correctly after replay.
spec-soak:
	$(GO) run ./cmd/eslev chaos -events 500000 -consistency FAST -late-heavy
	$(GO) run ./cmd/eslev chaos -events 500000 -consistency MIDDLE -late-heavy
	$(GO) run ./cmd/eslev chaos -events 300000 -consistency FAST -late-heavy -kill-every 60000

# A fast pass over every benchmark family to catch bit-rot without paying
# for full measurement runs.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 50x .

# The end-to-end benchmark's own tests (metric list in sync with
# BENCHMARK.json, generator determinism, the -selfcheck run). bench/ is a
# nested module, so neither `vet` nor `test` above reaches it; GOPROXY=off
# keeps the run offline.
bench-test:
	cd bench && GOPROXY=off $(GO) vet ./... && GOPROXY=off $(GO) test ./...
