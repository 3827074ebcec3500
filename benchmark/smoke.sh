#!/usr/bin/env bash
# Checks the benchmark in about a minute without touching the root ci.sh:
# build, unit tests, one round of every workload untraced and traced (the
# layer pass once), and that every name BENCHMARK.json declares shows up
# in the output.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test --release --offline --quiet

bench() { cargo run --release --offline --quiet -- "$@"; }

mkdir -p out
out=out/smoke.txt
bench --smoke --all | tee "$out"
bench --smoke --all --trace | tee -a "$out"

# Every declared workload and metric name must have been printed.
missing=0
for name in $(grep -o '"name": *"[^"]*"' ../BENCHMARK.json | sed 's/.*"\([^"]*\)"$/\1/'); do
    if ! grep -q -- "$name" "$out"; then
        echo "smoke: $name is declared in BENCHMARK.json but was not printed" >&2
        missing=1
    fi
done
# Every result line must report correct outputs.
if grep -q '"correct": false' "$out"; then
    echo "smoke: a workload reported incorrect outputs" >&2
    missing=1
fi
# Unknown flags are usage errors.
if bench --no-such-flag 2>/dev/null; then
    echo "smoke: an unknown flag was accepted" >&2
    missing=1
fi
[ "$missing" -eq 0 ] && echo "smoke: ok"
exit "$missing"
