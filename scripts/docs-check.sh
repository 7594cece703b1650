#!/usr/bin/env bash
# docs-check.sh — keep the documentation honest.
#
# Four checks over README.md plus everything in docs/:
#
#   1. Links: every relative markdown link target must exist on disk
#      (anchors are stripped; http(s) links are not fetched).
#   2. Flag drift, both ways: every flag registered in
#      cmd/npnserve/main.go must be mentioned in docs/OPERATIONS.md, so
#      adding a server flag without documenting it fails CI; and every
#      row of an OPERATIONS.md flag table (a first cell like `-name`)
#      must name a registered flag, so a removed flag's row fails too.
#   3. Metric drift: the docs/OPERATIONS.md metric-family table is diffed
#      against the families the code actually registers, both ways. This
#      is delegated to the metricsdrift analyzer in cmd/npnlint so the
#      docs checker and the linter share one source of truth.
#   4. Package map, both ways: every top-level directory under internal/
#      must be named as internal/<pkg> in docs/ARCHITECTURE.md, and every
#      internal/<pkg> that ARCHITECTURE.md names must exist.
#
# Usage: scripts/docs-check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

echo "== markdown links"
docs=(README.md docs/*.md)
for doc in "${docs[@]}"; do
  dir=$(dirname "$doc")
  # inline links: [text](target) — skip absolute URLs and pure anchors
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|'#'*) continue ;;
    esac
    path=${target%%#*}
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      echo "BROKEN  $doc -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')
done

echo "== npnserve flags vs docs/OPERATIONS.md"
flags=$(grep -oE 'flag\.[A-Za-z0-9]+Var\(&[^,]+, "[a-z-]+"' cmd/npnserve/main.go \
  | sed -E 's/.*"([a-z-]+)"$/\1/' | sort -u)
[ -n "$flags" ] || { echo "no flags parsed from cmd/npnserve/main.go"; exit 1; }
for f in $flags; do
  if ! grep -q -- "-$f" docs/OPERATIONS.md; then
    echo "UNDOCUMENTED  -$f (cmd/npnserve flag missing from docs/OPERATIONS.md)"
    fail=1
  fi
done
rows=$(grep -oE '^\| `-[a-z-]+`' docs/OPERATIONS.md | sed -E 's/^\| `-([a-z-]+)`$/\1/' | sort -u)
[ -n "$rows" ] || { echo "no flag rows parsed from docs/OPERATIONS.md"; exit 1; }
for r in $rows; do
  if ! grep -qx -- "$r" <<<"$flags"; then
    echo "STALE  -$r (docs/OPERATIONS.md flag row names no cmd/npnserve flag)"
    fail=1
  fi
done

echo "== metric families vs docs/OPERATIONS.md (npnlint metricsdrift)"
if command -v go >/dev/null 2>&1; then
  if ! go run ./cmd/npnlint -only metricsdrift ./...; then
    fail=1
  fi
else
  echo "SKIPPED  go toolchain not on PATH; metric-family drift not checked"
fi

echo "== internal packages vs docs/ARCHITECTURE.md package map"
pkgs=$(find internal -mindepth 1 -maxdepth 1 -type d | sed 's#^internal/##' | sort)
for p in $pkgs; do
  if ! grep -qE "internal/$p([^a-z0-9_]|\$)" docs/ARCHITECTURE.md; then
    echo "UNMAPPED  internal/$p (package missing from docs/ARCHITECTURE.md)"
    fail=1
  fi
done
named=$(grep -oE 'internal/[a-z0-9_]+' docs/ARCHITECTURE.md | sed 's#^internal/##' | sort -u)
for p in $named; do
  if ! grep -qx -- "$p" <<<"$pkgs"; then
    echo "STALE  internal/$p (docs/ARCHITECTURE.md names no internal/ package)"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "docs-check: FAILED"
  exit 1
fi
echo "docs-check: ok ($(echo "$flags" | wc -l) flags, ${#docs[@]} documents)"
