#!/usr/bin/env bash
# Non-test Go lines per package outside bench/, one line each plus a total:
# the number ROADMAP counts "small" in, then the subtotal of the four
# packages (core + wetio + exp + root) ROADMAP's Collapse target is stated in.
# Run from anywhere in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
four=0
for dir in $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -printf '%h\n' | sort -u); do
  n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
  printf '%7d %s\n' "$n" "${dir#./}"
  total=$((total + n))
  case "${dir#./}" in
    . | internal/core | internal/wetio | internal/exp) four=$((four + n)) ;;
  esac
done
printf '%7d total\n' "$total"
printf '%7d internal/core + internal/wetio + internal/exp + root\n' "$four"
