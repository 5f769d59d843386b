# Standard-library-only Go project; no generated code. The only tools are
# built from this module (cmd/actop-lint) or optional pinned installs
# (staticcheck in CI).

GO ?= go
LINT_BIN := bin/actop-lint

.PHONY: check fmt build test vet staticcheck lint race seeded fuzz-smoke

# check is the pre-PR gate, and the whole of CI: gofmt, vet (+ staticcheck
# when installed), the four-analyzer domain lint suite (the invariants no other
# step here fails on), build everything, race-test the
# concurrency-heavy packages (transport, actor, seda, codec, durable,
# flight, hotspot) — a fresh run, so the call-tree exactly-once and
# crash-chaos tests (TestCallTrees*, TestChaosKill*), the observability
# smoke (TestObsSmoke,
# TestSLOBreachDump) and placement convergence (TestConverge*) are never
# answered from the test cache — the seeded packages twenty times over in
# shuffled order (the determinism guard), then the full tier-1 suite — which
# drives a three-server actopd cluster through one-shot clients and kills a
# server (TestActopdCluster) — and a short fuzz pass over the wire decoders.
check: fmt vet staticcheck lint build race seeded test fuzz-smoke

# fmt fails when gofmt would rewrite any tracked Go file, and names them.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# lint builds the whole-program analyzer suite (turnblock, lockheldio,
# poolescape, calldag) into bin/ and runs it over the module, one package
# at a time in dependency order; -time prints the per-analyzer wall-time
# split. Metric-label cardinality and the off-turn snapshot capture are
# guarded by tests instead (TestMetricSeriesBounded,
# TestSnapshotCaptureOffTurn). See DESIGN.md "Static analysis".
lint:
	$(GO) build -o $(LINT_BIN) ./cmd/actop-lint
	./$(LINT_BIN) -time ./...

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
# (pooled waiters, local value calls and what they hand over or copy,
# overload, chaos) and the state-plane tests (the one-entry-per-ref table:
# its bound, hash collisions, a stopped node being collectable, and the
# churn soak) in shuffled order: waiter ownership bugs show as one call
# receiving another's outcome, and routing races as a lost increment, only
# under some interleavings. The exchange tests run there too: a node that
# initiates a round while it answers a peer's must decide on its own scratch
# (TestExchangeInitiatorAndReceiverAtOnce). The control-plane codec tests and
# the no-gob cluster test ride along in both lines.
race:
	$(GO) test -race -count=1 ./internal/transport/... ./internal/actor/... ./internal/seda/... ./internal/codec/... ./internal/durable/... ./internal/flight/... ./internal/hotspot/...
	$(GO) test -race -count=5 -shuffle=on -run 'Waiter|LocalValue|HandOver|Overload|Chaos|Wire|NoGob|StatePlane|Exchange' ./internal/actor

# seeded repeats the packages whose results are functions of a seed — the
# graph, the partition engine, the edge sketch (its differential test against
# the container/heap summary it replaced) and the discrete-event simulator —
# twenty times in shuffled order: a test there that passes by luck (map
# iteration order deciding a tie) fails here. The second line
# repeats only the determinism tests of the cluster simulator and of the paper
# harness's Halo and single-hop runs (seconds; their full suites twenty times
# over are not).
seeded:
	$(GO) test -count=20 -shuffle=on ./internal/graph ./internal/partition ./internal/sampling ./internal/des
	$(GO) test -count=20 -shuffle=on -run Determinis ./internal/sim ./internal/experiments

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
