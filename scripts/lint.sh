#!/usr/bin/env bash
# Single source of truth for static analysis. CI's lint jobs invoke this
# script, so local runs and CI cannot drift on flags or check sets.
#
# Runs, in order:
#   0. gofmt -l          — every .go file formatted, except
#                          internal/analysis/testdata/ (analysistest pins
#                          its fixtures' layout, line for line)
#   1. go vet            — the stock suite
#   2. staticcheck       — check set committed in staticcheck.conf
#                          (skipped with a notice when not installed;
#                          CI always installs it)
#   3. memlint           — the repo's own analyzer suite (cmd/memlint):
#                          detrand, memescape, floatord, verifygate,
#                          hotpath, nolintreason, ctxleak, lockorder,
#                          verdictcheck, bodyclose. See DESIGN.md §11
#                          and §16 (facts engine).
#
# Usage: scripts/lint.sh [--json FILE | --sarif FILE]
#   --json FILE   also write memlint findings as JSON to FILE
#   --sarif FILE  also write memlint findings as SARIF 2.1.0 to FILE
#                 (CI uploads this for code-scanning annotations)
set -euo pipefail
cd "$(dirname "$0")/.."

MEMLINT_FLAG=""
MEMLINT_FILE=""
while [ $# -gt 0 ]; do
  case "$1" in
    --json)  MEMLINT_FLAG=-json  MEMLINT_FILE="$2"; shift 2 ;;
    --sarif) MEMLINT_FLAG=-sarif MEMLINT_FILE="$2"; shift 2 ;;
    *) echo "lint.sh: unknown argument $1" >&2; exit 64 ;;
  esac
done

echo "== gofmt"
unformatted="$(find . -name '*.go' -not -path './internal/analysis/testdata/*' -not -path './.*' -print0 |
  xargs -0 gofmt -l)"
if [ -n "$unformatted" ]; then
  echo "gofmt: these files need formatting:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go vet"
go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
  echo "== staticcheck ($(staticcheck -version 2>/dev/null | head -1))"
  staticcheck ./...
else
  echo "== staticcheck: not installed, skipping (CI installs honnef.co/go/tools/cmd/staticcheck)"
fi

echo "== memlint"
if [ -n "$MEMLINT_FLAG" ]; then
  # The machine-readable stream goes to the file. On findings memlint
  # exits 2 after the artifact is fully written, so CI can upload the
  # SARIF with `if: always()` and still fail the job.
  go run ./cmd/memlint "$MEMLINT_FLAG" ./... > "$MEMLINT_FILE"
else
  go run ./cmd/memlint ./...
fi

echo "lint: OK"
