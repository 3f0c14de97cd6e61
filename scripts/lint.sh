#!/bin/sh
# lint.sh — run the repository's analyzer suite (cmd/myproxy-vet) over ./...
# through the checked-in key files, and fail when the run pruned either of
# them: a baseline or budget entry whose finding no longer fires is
# rewritten out of the file, which must be reviewed and committed, not
# passed silently (a lost budgeted finding would otherwise exit 0).
# Run from the repository root (or via `make lint`; scripts/check.sh runs it).
set -eu

cd "$(dirname "$0")/.."

keys=vet-baseline.txt
budget=vet-cost-budget.txt
before=$(mktemp -d)
trap 'rm -rf "$before"' EXIT
cp "$keys" "$budget" "$before/"

go run ./cmd/myproxy-vet -baseline "$keys" -budget "$budget" ./...

for f in "$keys" "$budget"; do
    if ! cmp -s "$before/$f" "$f"; then
        echo "error: myproxy-vet pruned $f (an entry's finding no longer fires); review 'git diff $f' and commit it" >&2
        exit 1
    fi
done
