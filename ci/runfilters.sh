#!/usr/bin/env bash
# Every -run and -fuzz filter in .github/workflows/ci.yml must keep naming
# tests: each |-separated alternative of a filter has to match at least one
# test, example or fuzz target that `go test -list` finds in the packages the
# same command names. Deleting or renaming a test that CI names then fails
# here, instead of silently emptying a CI step. '^$' and NONE, which ask for
# no test on purpose (beside -bench or -fuzz), are skipped. Run from anywhere
# in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
fail=0
checked=0
while IFS= read -r cmd; do
  # ci.yml is this repository's own file: its quoting is shell quoting.
  eval "set -- ${cmd#go test}"
  pkgs=()
  filters=()
  while (($#)); do
    case $1 in
      -run | -fuzz) filters+=("$2"); shift ;;
      -run=* | -fuzz=*) filters+=("${1#*=}") ;;
      . | ./*) pkgs+=("$1") ;;
    esac
    shift
  done
  for filter in "${filters[@]}"; do
    IFS='|' read -ra alts <<<"$filter"
    for alt in "${alts[@]}"; do
      case $alt in '^$' | NONE) continue ;; esac
      checked=$((checked + 1))
      listed=$(go test -list "$alt" "${pkgs[@]}")
      if ! grep -qE '^(Test|Example|Fuzz)' <<<"$listed"; then
        echo "ci.yml: -run/-fuzz alternative '$alt' matches no test in ${pkgs[*]}" >&2
        fail=1
      fi
    done
  done
done < <(grep -E -- '-(run|fuzz)[ =]' .github/workflows/ci.yml | sed 's/&&/\n/g' | grep -oE 'go test .*' | grep -E -- '-(run|fuzz)[ =]' | sed 's/)[[:space:]]*$//')
if ((fail)); then
  exit 1
fi
echo "ci.yml: $checked -run/-fuzz alternatives, each names a test"
