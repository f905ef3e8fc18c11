#!/usr/bin/env bash
# Prints the repository's Go line counts, the size figure ROADMAP.md
# tracks: non-test and test lines of every .go file outside perfbench/
# (its own module) and testdata/ directories (analyzer fixtures).
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find . -name '*.go' -not -path './perfbench/*' -not -path '*/testdata/*' \
    -not -path './.*' "$@" -print0 | xargs -0 cat | wc -l
}

printf 'non-test %d\n' "$(count ! -name '*_test.go')"
printf 'test     %d\n' "$(count -name '*_test.go')"
