# Developer entry points. CI runs the same commands (.github/workflows/ci.yml);
# `make ci` reproduces the full pipeline locally, in the same order.

GO ?= go
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: all ci lint test test-shuffle benchmark-module conformance flightrec-conformance smoke session-race cover results-check bench bench-gate loadgen-gate fuzz build buildrelease build386 vuln

all: lint test

ci: lint build buildrelease build386 test test-shuffle benchmark-module conformance flightrec-conformance smoke session-race cover results-check fuzz loadgen-gate bench-gate vuln

build:
	$(GO) build ./...

# buildrelease keeps the trimpath release build green so a tagged build can
# never fail for flag reasons alone.
buildrelease:
	GOFLAGS=-trimpath $(GO) build ./...

# build386 cross-compiles for a real 32-bit target, backing the atomicfield
# analyzer's 64-bit alignment findings with an actual GOARCH=386 layout.
build386:
	GOARCH=386 $(GO) build ./...

# lint runs gofmt (fail on any unformatted file) and soda-vet, which bundles
# the repository's custom analyzers (detrange, purecontroller, unitsafe,
# nofloat64wire, guardedby, atomicfield, noalloc) with the standard go vet
# passes, over source and test files. See DESIGN.md "Static invariants".
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) run ./cmd/soda-vet ./...

test:
	$(GO) test -race ./...

# test-shuffle randomises test order to flush out inter-test state leaks;
# the seed prints on failure for replay with -shuffle=<seed>.
test-shuffle:
	$(GO) test -shuffle=on ./...

# benchmark-module vets and tests benchmark/, its own Go module: the root
# module's ./... never compiles it, yet it imports the telemetry, flightrec,
# httpseg and sim APIs, so an API change must keep it building.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# conformance re-runs the shared solve-cache, decision-table, telemetry,
# in-place controller (TestSodaArena) and flight-recorder bit-identity
# contracts under the race detector on their own, so a regression in one
# fails with a named step even though `make test` also covers them as part
# of the full suite.
conformance:
	$(GO) test -race -run 'TestSodaSharedCache|TestSodaDecisionTable|TestSodaTelemetry|TestSodaArena|TestSodaFlightRec' ./internal/abrtest

# flightrec-conformance re-runs the flight-recorder purity contract under the
# race detector on its own: sessions observed by the QoE-consistency watchdog
# (every registered ladder concurrently against one shared watchdog) must
# decide bit-identically to bare sessions, and the span and incident rings
# must be race-clean and lossless.
flightrec-conformance:
	$(GO) test -race ./internal/flightrec
	$(GO) test -race -run 'TestSodaFlightRec' ./internal/abrtest

# smoke boots the soda-server introspection mux in process on the prototype
# ladder, drives /decide sessions, and validates that /metrics serves
# parseable Prometheus text exposition (no duplicate families),
# /debug/decisions streams JSONL, and the HTTP surface serves no media.
smoke:
	$(GO) test -race -run 'TestServerEndpointSmoke' ./cmd/soda-server

# session-race re-runs the control plane's lifecycle paths under the race
# detector on their own: sharded session-table TTL sweeps, recency-list
# reclaim under concurrent churn at capacity (ten times over), token-bucket
# admission, inflight shedding, graceful drain, the conformance proof that
# idle eviction never changes decisions, a swept-out session coming back
# fresh, and hostile session-key churn and hostile cap churn (buffer above
# the cap, a full table budget, overflow throughputs) against honest
# sessions.
session-race:
	$(GO) test -race ./internal/sessiontable
	$(GO) test -race -count=10 -run 'TestConcurrentChurnAtCapacity' ./internal/sessiontable
	$(GO) test -race -run 'TestSessionTableConformance|TestRecreatedSessionStartsFresh|TestSessionChurnSteadyState|TestHostileSessionKeyChurn|TestDecideService' ./internal/httpseg

# cover fails when the statement coverage of a package listed in
# cover_baseline.json drops below its committed floor: core, abrtest, the
# analyzers, sessiontable, loadgen, arena, flightrec, telemetry, the
# player's packages sim and trace, and the /decide service httpseg.
cover:
	$(GO) run ./cmd/soda-cover

# results-check regenerates, at the default scale, every report in results/
# that is a pure function of seed and scale, and fails on any byte of
# difference from the committed file, naming the files that differ. fig12 and
# table1 stay out: they stream over real TCP on loopback, so they read the
# host's load. The reports are defined on amd64, CI's runner; on arm64 the Go
# compiler may fuse multiply-adds, which can move the last printed digits.
# After an intended change, regenerate with
# `go run ./cmd/soda-experiments -out results/`.
RESULTS_CHECKED = fig1,fig2,fig3,fig4,fig5,fig6,fig7,fig8,fig9,fig10,fig11,fig13,oracle,regret,monotone,ablations
results-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/soda-experiments -only $(RESULTS_CHECKED) -out "$$tmp" && \
	diff -ru -x fig12.txt -x table1.txt results "$$tmp"

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-gate runs soda-bench's fixed table of benchmark runs (the
# BenchmarkSolver* suite plus the shared solve-cache, decision-table,
# telemetry, flight-recorder, session-table and fleet-simulator benchmarks,
# each with its own iteration budget) and writes bench-out/bench.json
# (gitignored, so a local run never rewrites a committed report). It fails if
# nodes/solve regresses more than 10% against the committed
# bench_baseline.json, if allocs/op regresses at all (the telemetry,
# flight-recorder, decision-table, session decide and fleet event hot paths
# are pinned at 0), if a baseline benchmark vanishes, if the dataset-scale
# shared cache stops cutting solver invocations by at least 2x, if attaching
# telemetry or the QoE watchdog costs more than 5% ns/decision at dataset
# scale, if the compiled decision table stops beating the cached path by at
# least 5x per decision, if session reclaim at 32768 entries costs more than
# 4x reclaim at 512, or if the fleet simulator sustains fewer than 100000
# sessions or costs more than 1.1x the single-session path per decision.
bench-gate:
	$(GO) run ./cmd/soda-bench

# loadgen-gate is the standalone loadgen smoke + p99 gate: open-loop Poisson
# arrivals against an in-process DecideService at fleet scale, failing past
# 100 ms p99 decide latency, any rejected request, or 1500 QoE incidents per
# 1k sessions. The report goes to the gitignored bench-out/loadgen.json.
loadgen-gate:
	mkdir -p bench-out
	$(GO) run ./cmd/soda-loadgen -mode open -sessions 50000 -requests 75000 -rps 40000 \
		-max-p99-ms 100 -max-rejected-pct 0 -max-incidents-per-1k 1500 -out bench-out/loadgen.json

# fuzz is the CI smoke budget; raise -fuzztime locally for a real campaign.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSolverEquivalence -fuzztime 20s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzHistogram -fuzztime 10s ./internal/telemetry
	$(GO) test -run '^$$' -fuzz FuzzSessionTable -fuzztime 10s ./internal/sessiontable
	$(GO) test -run '^$$' -fuzz FuzzDecideHTTP -fuzztime 10s ./internal/httpseg
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/proto
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeManifest$$' -fuzztime 10s ./internal/proto
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSegmentRequest$$' -fuzztime 10s ./internal/proto
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 10s ./internal/trace

# vuln mirrors the CI govulncheck step: pinned version, and a visible skip
# instead of a failure when the module proxy is unreachable (hermetic hosts).
vuln:
	@if ! $(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION); then \
		echo "notice: govulncheck skipped: module proxy unreachable; vulnerability scan not performed"; \
	else \
		govulncheck ./... || { \
			echo "notice: govulncheck failed; if this host is offline the vulnerability database is unreachable"; \
			exit 1; }; \
	fi
