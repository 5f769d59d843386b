# Standard-library-only Go project; no generated code. The only tools are
# built from this module (cmd/actop-lint) or optional pinned installs
# (staticcheck in CI).

GO ?= go
LINT_BIN := bin/actop-lint

.PHONY: check build test vet staticcheck lint lint-cold lint-cache-check race seeded fuzz-smoke bench-msgplane cluster-smoke bench-scale workloads-smoke bench-workloads chaos-smoke bench-recovery obs-smoke converge-smoke

# check is the pre-PR gate: vet (+ staticcheck when installed), the
# domain lint suite, build everything, race-test the concurrency-heavy
# packages (transport, actor, seda, codec, durable, loadgen, flight,
# hotspot), the seeded packages twenty times over in shuffled order, then
# the full tier-1 suite, a short fuzz pass over the wire decoders, a
# reduced-scale run of the multi-process cluster benchmark,
# the DES-vs-real workload conformance smoke, the crash-chaos battery
# over the durability plane, the observability smoke (skewed-workload
# hot-actor ranking + SLO-breach flight dump), and the placement
# convergence smoke (Algorithm 1 co-locates call trees, pure callees
# included, and follows a member swap).
check: vet staticcheck lint build race seeded test fuzz-smoke cluster-smoke workloads-smoke chaos-smoke obs-smoke converge-smoke

# lint builds the whole-program analyzer suite once into bin/ and runs
# it over the module with the per-package result cache under
# bin/.lintcache: packages whose sources and dependency export data are
# unchanged restore their findings and facts from disk instead of being
# re-type-checked. -time prints the per-analyzer wall-time split and the
# cache hit/miss counts. See DESIGN.md "Static analysis".
lint:
	$(GO) build -o $(LINT_BIN) ./cmd/actop-lint
	./$(LINT_BIN) -cache bin/.lintcache -time ./...

# lint-cold ignores any existing cache (fresh cache dir each run) — the
# baseline CI compares the warm run against.
lint-cold:
	$(GO) build -o $(LINT_BIN) ./cmd/actop-lint
	rm -rf bin/.lintcache-cold
	./$(LINT_BIN) -cache bin/.lintcache-cold -time ./...

# lint-cache-check asserts the cache actually pays: a cold run populates
# a fresh cache, then a warm re-run over the identical tree must finish
# at least 2x faster. Timing uses millisecond wall clock via date.
lint-cache-check:
	$(GO) build -o $(LINT_BIN) ./cmd/actop-lint
	rm -rf bin/.lintcache-ci
	@cold_start=$$(date +%s%N); \
	./$(LINT_BIN) -cache bin/.lintcache-ci ./... || exit $$?; \
	cold_end=$$(date +%s%N); \
	warm_start=$$(date +%s%N); \
	./$(LINT_BIN) -cache bin/.lintcache-ci ./... || exit $$?; \
	warm_end=$$(date +%s%N); \
	cold_ms=$$(( (cold_end - cold_start) / 1000000 )); \
	warm_ms=$$(( (warm_end - warm_start) / 1000000 )); \
	echo "lint cold: $${cold_ms}ms  warm: $${warm_ms}ms"; \
	if [ $$(( warm_ms * 2 )) -gt $$cold_ms ]; then \
		echo "lint cache check FAILED: warm run ($${warm_ms}ms) is not >=2x faster than cold ($${cold_ms}ms)"; \
		exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is on PATH (CI installs a pinned
# version; offline dev environments skip it rather than fail).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

# The first line covers the transport's sender-writes tests (concurrent
# senders to one peer, redial on a write failure, Close against a blocked
# Send, goroutines per connection). The second repeats the call-path tests
# (pooled waiters, local value calls, overload, chaos) in shuffled order:
# waiter ownership bugs show as one call receiving another's outcome, and
# only under some interleavings. The control-plane codec tests and the
# no-gob cluster test ride along in both lines.
race:
	$(GO) test -race -count=1 ./internal/transport/... ./internal/actor/... ./internal/seda/... ./internal/codec/... ./internal/durable/... ./internal/loadgen/... ./internal/workload/spec/... ./internal/flight/... ./internal/hotspot/...
	$(GO) test -race -count=5 -shuffle=on -run 'Waiter|LocalValue|Overload|Chaos|Wire|NoGob' ./internal/actor

# seeded repeats the packages whose results are functions of a seed — the
# graph and the partition engine — twenty times in shuffled order: a test
# there that passes by luck (map iteration order deciding a tie) fails here.
seeded:
	$(GO) test -count=20 -shuffle=on ./internal/graph ./internal/partition

test:
	$(GO) test ./...

# fuzz-smoke runs each wire-decoder fuzz target briefly — enough for CI to
# catch a decode panic or over-allocation regression without open-ended
# fuzzing time.
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzDecodeEnvelope -fuzztime 10s ./internal/transport
	$(GO) test -run XXX -fuzz FuzzFrameRead -fuzztime 10s ./internal/codec
	$(GO) test -run XXX -fuzz FuzzFrameRoundTrip -fuzztime 5s ./internal/codec
	$(GO) test -run XXX -fuzz FuzzHistogramDecode -fuzztime 5s ./internal/metrics
	$(GO) test -run XXX -fuzz FuzzSnapshotDecode -fuzztime 10s ./internal/durable
	$(GO) test -run XXX -fuzz FuzzControlCodecs -fuzztime 10s ./internal/actor

# obs-smoke exercises the observability plane end to end: a skewed
# workload on a 3-node in-memory cluster must rank the injected hot actor
# first in the cluster-wide hot-actor table, and a breached p99 SLO
# window must produce exactly one (debounced) flight-recorder dump.
obs-smoke:
	$(GO) test -run 'TestObsSmoke|TestSLOBreachDump' -count=1 ./internal/actor

# converge-smoke drives Algorithm 1 by hand on a seeded 3-node in-memory
# cluster of call trees (one caller, eight pure callees each): the remote
# leg fraction must fall below 0.15 within six rounds, which takes
# monitoring both ends of every edge, and a leaf swapped between trees must
# follow its new caller within three rounds, which takes the monitor's
# decay. Fresh run every time.
converge-smoke:
	$(GO) test -run 'TestConverge' -count=1 ./internal/actor

# chaos-smoke is the crash-chaos battery: hard-kill a node mid-traffic
# under the matchmaking and IoT workload specs and check the exactly-once
# oracle — durable actors recover with state (0 lost), and the
# no-durability control demonstrably loses state. Fresh run every time
# (-count=1): chaos timing must not be cached away.
chaos-smoke:
	$(GO) test -run 'TestChaosKill' -count=1 ./internal/loadgen

# bench-msgplane runs the message-plane micro-benchmarks (codec marshal /
# deep copy, TCP throughput, local/remote call round trips).
bench-msgplane:
	$(GO) test -run XXX -bench 'BenchmarkCodec|BenchmarkTCPSendThroughput|BenchmarkMsgPlane' -benchmem ./internal/codec/ ./internal/transport/ .

# cluster-smoke drives the real multi-process loopback-TCP cluster at a
# reduced scale (~10K actors, short drive, no COST baseline) — enough for
# CI to catch a protocol or routing regression in minutes. The full sweep
# is bench-scale.
cluster-smoke:
	$(GO) build -o bin/actop-bench ./cmd/actop-bench
	./bin/actop-bench cluster -nodes 2 -actors 10000 -conc 8 -drive 3s -work 500 -cost=false -out bin/BENCH_scale_smoke.json

# bench-scale is the paper-scale run: 100K and 1M live activations on a
# 4-node loopback cluster plus the single-threaded COST baseline, written
# to BENCH_scale.json.
bench-scale:
	$(GO) build -o bin/actop-bench ./cmd/actop-bench
	./bin/actop-bench cluster -out BENCH_scale.json

# workloads-smoke cross-checks every built-in workload spec between the
# DES and a real 3-node loopback cluster at half scale (no COST baseline)
# — the conformance gate that a spec means the same thing to both
# interpreters. The full artifact run is bench-workloads.
workloads-smoke:
	$(GO) build -o bin/actop-bench ./cmd/actop-bench
	./bin/actop-bench workloads -smoke -out bin/BENCH_workloads_smoke.json

# bench-workloads regenerates BENCH_workloads.json: all five scenarios at
# full scale through both backends, conformance-checked, with per-scenario
# GOMAXPROCS=1 COST baselines.
bench-workloads:
	$(GO) build -o bin/actop-bench ./cmd/actop-bench
	./bin/actop-bench workloads -out BENCH_workloads.json

# bench-recovery regenerates BENCH_recovery.json: per-turn snapshot
# overhead at 0/1/2 replicas, and kill-to-recovered timing for 10K
# durable actors at K=1 and K=2 with the exactly-once state oracle.
bench-recovery:
	$(GO) build -o bin/actop-bench ./cmd/actop-bench
	./bin/actop-bench recovery -out BENCH_recovery.json
