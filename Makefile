# Standard entry points; `make check` is the verification gate
# (gofmt + vet + lint + build + perfbench vet and self-test + race-enabled
# tests), also available as scripts/check.sh.

GO ?= go

.PHONY: all build fmt-check vet vet-self vet-stats lint perfbench-test test race race-hotpath race-failover kdf-allocs fuzz-smoke check bench bench-compare clean

all: build

build:
	$(GO) build ./...

# fmt-check fails on any file gofmt would rewrite. testdata/ is skipped:
# the analyzer golden files (expect.txt) pin line numbers.
fmt-check:
	@out=$$(gofmt -l *.go cmd examples internal perfbench | grep -v '/testdata/' || true); \
	if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs the repo's own analyzer suite (see internal/analysis and
# DESIGN.md "Static-analysis gate" through "Trust-boundary taint engine") —
# all twenty-three passes: the five syntactic ones, the flow-sensitive
# connleak, zeroize, ctxdeadline and deferclose, the concurrency trio
# lockcheck, guardedby and goroleak, the distributed-protocol quartet
# retrysafe, wgbalance, verdict and nilness, the hot-path cost trio
# secretescape, hotalloc and hotblock, and the trust-boundary taint quartet
# pathtaint, alloctaint, logtaint and hdrtaint, with obligations propagated
# interprocedurally over the call graph. Exits nonzero on any finding not
# covered by a
# //myproxy:allow pragma, the checked-in baseline (currently empty: the
# repo self-check is clean), or the cost budget (vet-cost-budget.txt, the
# grandfathered allocation profile of the hot path — new hot-cone
# allocation sites fail the gate).
lint:
	$(GO) run ./cmd/myproxy-vet -baseline vet-baseline.txt -budget vet-cost-budget.txt ./...

# vet-stats runs the same suite and reports per-pass wall time and finding
# counts as JSON (on stderr, after any findings).
vet-stats:
	$(GO) run ./cmd/myproxy-vet -stats -baseline vet-baseline.txt -budget vet-cost-budget.txt ./...

# vet-self is the fast loop when developing an analyzer pass: the CFG and
# call-graph unit tests and the golden fixtures only, no repo-wide load.
vet-self:
	$(GO) test ./internal/analysis -run 'TestCFG|TestCallGraph|TestGolden|TestPragmaScoping|TestLockFlow|TestSARIF'

# perfbench-test vets and self-tests the benchmark (perfbench/ is its own
# module, outside ./..., so nothing else compiles it).
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-hotpath re-runs the concurrency-heavy performance substrate (key
# pool, GSI channels, repository core) under the race detector with a
# fresh count, independent of the cached full run.
race-hotpath:
	$(GO) test -race -count=1 ./internal/keypool ./internal/gsi ./internal/core

# race-failover re-runs the cluster package and the deterministic
# kill-one-replica / partition-ambiguity drills (DESIGN.md §12) with a
# fresh count.
race-failover:
	$(GO) test -race -count=1 ./internal/cluster
	$(GO) test -race -count=1 -run 'TestClusterFailover|TestClusterPartition' ./internal/sim

# kdf-allocs pins the KDF loop's allocation count as independent of the
# iteration count. It is built without -race (the race detector makes
# sha256's AppendBinary allocate), so the race tiers never run it.
kdf-allocs:
	$(GO) test -count=1 -run TestSHA256KeyAllocsIndependentOfIter ./internal/kdf

# fuzz-smoke runs each native fuzz target for a few seconds: the wire
# parsers (protocol requests/responses) and the GSI frame decoders, seeded
# from the golden exchanges, and the unseal path (sealed key container,
# key DER, certificate PEM), seeded from real low-iteration seals. A short
# time box keeps `make check` fast; longer campaigns are a manual
# `go test -fuzz=... -fuzztime=10m`.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseRequest -fuzztime=5s ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzParseResponse -fuzztime=5s ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzReadFrame -fuzztime=5s ./internal/gsi
	$(GO) test -run='^$$' -fuzz=FuzzReadStreamFrame -fuzztime=5s ./internal/gsi
	$(GO) test -run='^$$' -fuzz=FuzzUnsealDelegated -fuzztime=5s ./internal/credstore

check: fmt-check vet lint build perfbench-test race-hotpath race-failover kdf-allocs fuzz-smoke race

# Short benchmark smoke pass (full runs are driven by cmd/experiments).
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# bench-compare diffs the two most recent BENCH_<n>.json trajectory
# points and fails on any shared benchmark regressing >10% in ns/op or
# allocs/op (scripts/bench-compare.sh; scripts/bench.sh produces the
# points).
bench-compare:
	sh scripts/bench-compare.sh

clean:
	$(GO) clean ./...
