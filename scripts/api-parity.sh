#!/usr/bin/env bash
# api-parity.sh — drive the same insert/classify flow through the two
# /v2 request transports of a real npnserve process — the JSON envelope
# and the binary frame, both answered in JSON — and diff the semantic
# results, then assert the per-item error contract, the JSON 404/405
# fallbacks and the content-type gate, that the removed /v2/*/stream and
# /v2/stats routes answer not_found, and smoke the /v2/map and /v2/spec
# endpoints.
#
# Usage: scripts/api-parity.sh [path-to-npnserve-binary]
# Requires: curl, jq.
set -euo pipefail

BIN=${1:-/tmp/npnserve}
ADDR=127.0.0.1:18200
BASE=http://$ADDR
HERE=$(cd "$(dirname "$0")" && pwd)

if [ ! -x "$BIN" ]; then
  echo "api-parity: building npnserve to $BIN"
  go build -o "$BIN" ./cmd/npnserve
fi

"$BIN" -addr "$ADDR" -arities 2-10 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT
"$HERE"/wait-healthz.sh "$BASE"

FNS='{"functions":["1ee1","cafef00dcafef00d","e8","96969696"]}'
# Output-complemented NPN variants of the inserted functions.
VARS='{"functions":["e11e","35010ff235010ff2","17","69696969"]}'

# frame writes the binary request frame (docs/WIRE.md) of a batch body's
# functions: 'NB', version 1, flags 0, the count, then per function its
# arity byte and its table bytes, least significant first — the hex
# digit pairs in reverse order. Every function here has at least 2 hex
# digits, so its arity is log2(digits) + 2.
frame() {
  local fn n i esc
  local -a fns
  mapfile -t fns < <(echo "$1" | jq -r '.functions[]')
  esc='NB\x01\x00'$(printf '\\x%02x' "${#fns[@]}")
  for fn in "${fns[@]}"; do
    n=2
    while (( (1 << (n - 2)) < ${#fn} )); do n=$((n + 1)); done
    esc+=$(printf '\\x%02x' "$n")
    for (( i = ${#fn} - 2; i >= 0; i -= 2 )); do esc+="\\x${fn:i:2}"; done
  done
  printf "$esc"
}

# binpost POSTs a batch body's functions as a binary frame and prints the
# JSON response.
binpost() {
  frame "$2" | curl -sf -X POST -H 'Content-Type: application/x-npn-binary' "$BASE$1" --data-binary @-
}

# --- The same flow through both transports must agree semantically. ---
# Both are driven against the same server sequentially; the second
# insert of the same functions must be new:false, so inserts are
# normalized on (function, class, index). Classifies compare the full
# result row.
norm_ins='map({function, class, index})'
JSON_INS=$(curl -sf -X POST -H 'Content-Type: application/json' "$BASE/v2/insert" -d "$FNS" | jq ".results | $norm_ins")
BIN_INS=$(binpost /v2/insert "$FNS" | jq ".results | $norm_ins")
diff <(echo "$JSON_INS") <(echo "$BIN_INS") || { echo "api-parity: JSON/binary insert results diverge"; exit 1; }
echo "$JSON_INS" | jq -e 'length == 4 and all(.class != null and .index >= 0)' >/dev/null \
  || { echo "api-parity: inserts not stored: $JSON_INS"; exit 1; }

JSON_CLS=$(curl -sf -X POST -H 'Content-Type: application/json' "$BASE/v2/classify" -d "$VARS" | jq '.results')
BIN_CLS=$(binpost /v2/classify "$VARS" | jq '.results')
diff <(echo "$JSON_CLS") <(echo "$BIN_CLS") || { echo "api-parity: JSON/binary classify results diverge"; exit 1; }
echo "$JSON_CLS" | jq -e 'all(.hit)' >/dev/null || { echo "api-parity: inserted classes did not hit"; exit 1; }

# --- The per-item error contract. -------------------------------------
BAD='{"functions":["1ee1","zzzz"]}'
V2_BAD=$(curl -sf -X POST -H 'Content-Type: application/json' "$BASE/v2/classify" -d "$BAD")
echo "$V2_BAD" | jq -e '.errors == 1 and .results[0].hit and .results[1].error.code == "bad_hex"' >/dev/null \
  || { echo "api-parity: v2 per-item error contract broken: $V2_BAD"; exit 1; }

# --- JSON fallbacks and the content-type gate. ------------------------
curl -s "$BASE/no/such/route" | jq -e '.error.code == "not_found"' >/dev/null \
  || { echo "api-parity: 404 fallback is not the JSON envelope"; exit 1; }
ALLOW=$(curl -s -o /dev/null -D - "$BASE/v2/classify" | tr -d '\r' | awk -F': ' 'tolower($1)=="allow"{print $2}')
[ "$ALLOW" = "POST" ] || { echo "api-parity: 405 Allow header is '$ALLOW', want POST"; exit 1; }
UMT=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: text/csv' "$BASE/v2/classify" -d "$FNS")
[ "$UMT" = "415" ] || { echo "api-parity: wrong content type returned $UMT, want 415"; exit 1; }

# --- The /v2/*/stream routes and /v2/stats are gone. ------------------
for route in /v2/classify/stream /v2/insert/stream /v2/stats; do
  GONE=$(curl -s -w ' %{http_code}' -X POST -H 'Content-Type: application/json' "$BASE$route" -d "$FNS")
  [ "${GONE##* }" = "404" ] && echo "${GONE% *}" | jq -e '.error.code == "not_found"' >/dev/null \
    || { echo "api-parity: $route answered '$GONE', want 404 not_found"; exit 1; }
done

# --- /v2/map: a real circuit, verified, census included, store warmed. -
AAG=$(mktemp)
# a∧b and a⊕b over two inputs, in reencoded ASCII AIGER.
cat > "$AAG" <<'EOF'
aag 5 2 0 2 3
2
4
6
10
6 2 4
8 3 5
10 7 9
EOF
MAP=$(curl -sf -X POST -H 'Content-Type: text/plain' --data-binary @"$AAG" "$BASE/v2/map?k=2&insert=true")
rm -f "$AAG"
echo "$MAP" | jq -e '.verified and .area > 0 and (.classes | length) > 0 and .inserted.classes_created > 0' >/dev/null \
  || { echo "api-parity: /v2/map smoke failed: $MAP"; exit 1; }
# The discovered LUT classes warmed the classifier: its functions hit now.
WARMQ=$(echo "$MAP" | jq '{functions: ([.luts[].function] | unique)}')
curl -sf -X POST -H 'Content-Type: application/json' "$BASE/v2/classify" -d "$WARMQ" | \
  jq -e '.errors == 0 and all(.results[]; .hit)' >/dev/null \
  || { echo "api-parity: mapped LUT classes did not warm the classifier"; exit 1; }

# --- /v2/spec self-describes every headline route. --------------------
SPEC=$(curl -sf "$BASE/v2/spec")
for route in /v2/classify /v2/insert /v2/map /v2/compact /v2/spec /healthz; do
  echo "$SPEC" | jq -e --arg p "$route" '.routes | map(.pattern) | index($p) != null' >/dev/null \
    || { echo "api-parity: spec is missing $route"; exit 1; }
done
echo "$SPEC" | jq -e '.error_codes | index("bad_hex") != null and index("unsupported_media_type") != null' >/dev/null \
  || { echo "api-parity: spec error codes incomplete"; exit 1; }
# Every route the spec lists must actually be mounted: probing it with
# its own method must not hit the not_found/method_not_allowed fallback.
while read -r method pattern; do
  path=$(echo "$pattern" | sed 's/{arity}/5/; s/{seq}/1/')
  code=$(curl -s -o /dev/null -w '%{http_code}' -X "$method" -H 'Content-Type: application/json' "$BASE$path")
  if [ "$code" = "404" ] || [ "$code" = "405" ]; then
    echo "api-parity: spec lists $method $pattern but the mux answered $code"; exit 1
  fi
done < <(echo "$SPEC" | jq -r '.routes[] | "\(.method) \(.pattern)"')

echo "api-parity: OK (JSON/binary agree; per-item errors, fallbacks, removed routes, map and spec verified)"
