#!/usr/bin/env bash
# Every -run and -fuzz filter in .github/workflows/ci.yml, and in each line
# of .claude/skills/verify/SKILL.md that starts with `go test`, must keep
# naming tests: each |-separated alternative of a filter has to match at
# least one test, example or fuzz target that `go test -list` finds in the
# packages the same command names. Deleting or renaming a test that CI or a
# documented verify command names then fails here, instead of silently
# emptying the step or the command. '^$' and NONE, which ask for no test on
# purpose (beside -bench or -fuzz), are skipped. A SKILL.md line loses its
# trailing `# ...` comment; prose lines are not read. Run from anywhere in
# the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
fail=0

# check reads `go test` command lines on stdin and checks their filters,
# naming the file $1 in what it reports.
check() {
  local file=$1 checked=0 cmd pkgs filters filter alts alt listed
  while IFS= read -r cmd; do
    # Both files are this repository's own: their quoting is shell quoting.
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
          echo "$file: -run/-fuzz alternative '$alt' matches no test in ${pkgs[*]}" >&2
          fail=1
        fi
      done
    done
  done
  echo "$file: $checked -run/-fuzz alternatives checked"
}

check ci.yml < <(grep -E -- '-(run|fuzz)[ =]' .github/workflows/ci.yml | sed 's/&&/\n/g' | grep -oE 'go test .*' | grep -E -- '-(run|fuzz)[ =]' | sed 's/)[[:space:]]*$//')
check SKILL.md < <(grep -E '^go test .*-(run|fuzz)[ =]' .claude/skills/verify/SKILL.md | sed 's/[[:space:]]#.*$//')
if ((fail)); then
  exit 1
fi
echo "every alternative names a test"
