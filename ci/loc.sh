#!/usr/bin/env bash
# Non-test Go lines per package outside bench/, one line each plus a total:
# the number ROADMAP counts "small" in. Run from anywhere in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for dir in $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -printf '%h\n' | sort -u); do
  n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
  printf '%7d %s\n' "$n" "${dir#./}"
  total=$((total + n))
done
printf '%7d total\n' "$total"
