#!/bin/sh
# check.sh — the repo's verification gate: gofmt, vet, lint, build,
# the perfbench self-test, and race-test everything. Run from the repository root (or via `make check`).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l (testdata/ excluded: the analyzer golden files pin line numbers)"
unformatted=$(gofmt -l *.go cmd examples internal perfbench | grep -v '/testdata/' || true)
if [ -n "$unformatted" ]; then
    echo "error: files need gofmt:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== myproxy-vet ./... (syntactic + flow-sensitive + concurrency + distributed-protocol + hot-path cost + trust-boundary taint passes)"
echo "   (and the run must not prune vet-baseline.txt or vet-cost-budget.txt)"
sh scripts/lint.sh

echo "== vet-baseline.txt stays empty (real findings are fixed or pragma'd, never baselined)"
if grep -v '^#' vet-baseline.txt | grep -q '[^[:space:]]'; then
    echo "error: vet-baseline.txt carries entries; fix the findings or add //myproxy:allow pragmas with rationale" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== perfbench: vet and self-test (its own module, outside ./...)"
(cd perfbench && go vet ./... && go test ./...)

echo "== go test -race ./internal/keypool ./internal/gsi ./internal/core (hot-path concurrency)"
go test -race -count=1 ./internal/keypool ./internal/gsi ./internal/core

echo "== go test -race cluster failover smoke (kill-one-replica drill, DESIGN.md §12)"
go test -race -count=1 ./internal/cluster
go test -race -count=1 -run 'TestClusterFailover|TestClusterPartition' ./internal/sim

echo "== KDF allocation pin (not under -race, which makes sha256's AppendBinary allocate)"
go test -count=1 -run TestSHA256KeyAllocsIndependentOfIter ./internal/kdf

echo "== fuzz smoke (wire parsers + frame decoders + unseal path, time-boxed)"
go test -run='^$' -fuzz=FuzzParseRequest -fuzztime=5s ./internal/protocol
go test -run='^$' -fuzz=FuzzParseResponse -fuzztime=5s ./internal/protocol
go test -run='^$' -fuzz=FuzzReadFrame -fuzztime=5s ./internal/gsi
go test -run='^$' -fuzz=FuzzReadStreamFrame -fuzztime=5s ./internal/gsi
go test -run='^$' -fuzz=FuzzUnsealDelegated -fuzztime=5s ./internal/credstore

echo "== go test -race ./..."
go test -race ./...

echo "== OK"
