#!/usr/bin/env bash
# budget_soak.sh — end-to-end memory-budget soak against a real reptserve.
#
# Boots the server with a deliberately tight -mem-budget, drives several
# passes of seeded insert/delete/reinsert churn through POST /edges, and
# then asserts the adaptive control plane actually did its job:
#
#   1. /metrics reports rept_adaptations_total >= 1 — the controller
#      downsampled instead of growing.
#   2. rept_mem_heap_bytes ends at or under the budget — the ledger
#      total converged below the cap, not merely slowed its growth.
#   3. The server process RSS stays under RSS_CAP_KB — the ledger is an
#      honest proxy for real memory, not a number that shrinks while the
#      process bloats.
#   4. The server is still ready and still answers /estimate — degraded,
#      not dead.
#
# Usage: scripts/budget_soak.sh [workdir]
# Environment: BUDGET (default 8MiB), RSS_CAP_KB (default 262144 = 256MiB).
set -euo pipefail

dir="${1:-$(mktemp -d)}"
budget="${BUDGET:-8MiB}"
rss_cap_kb="${RSS_CAP_KB:-262144}"
addr="127.0.0.1:8097"
base="http://$addr"

go build -o "$dir/reptserve" ./cmd/reptserve
go run ./cmd/genstream -model holmekim -n 20000 -k 6 -pt 0.4 -seed 21 \
  -out "$dir/edges.txt"

"$dir/reptserve" -addr "$addr" -m 4 -c 8 -dynamic \
  -mem-budget "$budget" -mem-tick 50ms \
  >"$dir/server.log" 2>&1 &
srv=$!
trap 'kill "$srv" 2>/dev/null || true' EXIT

for i in $(seq 1 100); do
  if curl -sf "$base/readyz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$srv" 2>/dev/null; then
    echo "server died during boot" >&2
    cat "$dir/server.log" >&2
    exit 1
  fi
  sleep 0.1
done

# NDJSON bodies: the full stream as inserts, and a seeded one-third of
# it as the churn set that each pass deletes and reinserts. The churn
# selection is positional (every 3rd line of a fixed shuffle), so the
# whole soak is deterministic.
awk '{printf "{\"u\":%d,\"v\":%d}\n", $1, $2}' "$dir/edges.txt" >"$dir/ins.ndjson"
awk 'NR%3==0 {printf "{\"u\":%d,\"v\":%d,\"op\":\"del\"}\n", $1, $2}' \
  "$dir/edges.txt" >"$dir/del.ndjson"
awk 'NR%3==0 {printf "{\"u\":%d,\"v\":%d}\n", $1, $2}' \
  "$dir/edges.txt" >"$dir/reins.ndjson"

# post streams a body in 20k-line chunks. 429 (shedding) is an expected,
# correct answer under a tight budget — the loop keeps going so later
# chunks observe the post-adaptation acceptance; any 5xx is a failure.
post() {
  split -l 20000 "$1" "$dir/chunk."
  for f in "$dir"/chunk.*; do
    code=$(curl -s -o /dev/null -w '%{http_code}' \
      -X POST --data-binary @"$f" "$base/edges")
    case "$code" in
      200|429) ;;
      *) echo "POST /edges: unexpected status $code" >&2; exit 1 ;;
    esac
    rm "$f"
  done
}

max_rss_kb=0
for pass in 1 2 3; do
  post "$dir/ins.ndjson"
  post "$dir/del.ndjson"
  post "$dir/reins.ndjson"
  rss_kb=$(awk '/^VmRSS:/ {print $2}' "/proc/$srv/status")
  if [ "$rss_kb" -gt "$max_rss_kb" ]; then max_rss_kb=$rss_kb; fi
  echo "pass $pass: RSS ${rss_kb}KiB"
done

# Let the controller run a few more ticks on the quiesced stream so the
# ledger can settle at its post-adaptation level.
sleep 1
curl -sf "$base/metrics" >"$dir/metrics.txt"
curl -sf "$base/stats" >"$dir/stats.json"
curl -sf "$base/estimate" >/dev/null
curl -sf "$base/readyz" >/dev/null

metric() { awk -v m="$1" '$1 == m {print $2}' "$dir/metrics.txt"; }

adaptations=$(metric rept_adaptations_total)
heap=$(metric rept_mem_heap_bytes)
budget_bytes=$(metric rept_mem_budget_bytes)
shed=$(metric rept_shed_requests_total)
echo "adaptations=$adaptations heap=$heap budget=$budget_bytes shed=$shed max_rss=${max_rss_kb}KiB"

fail=0
if ! [ "${adaptations:-0}" -ge 1 ] 2>/dev/null; then
  echo "FAIL: rept_adaptations_total = ${adaptations:-missing}, want >= 1" >&2
  fail=1
fi
if ! awk -v h="${heap:-inf}" -v b="${budget_bytes:-0}" \
  'BEGIN { exit !(h+0 <= b+0 && b+0 > 0) }'; then
  echo "FAIL: rept_mem_heap_bytes = ${heap:-missing} not within budget ${budget_bytes:-missing}" >&2
  fail=1
fi
if [ "$max_rss_kb" -gt "$rss_cap_kb" ]; then
  echo "FAIL: peak RSS ${max_rss_kb}KiB exceeds cap ${rss_cap_kb}KiB" >&2
  fail=1
fi
if [ "$fail" -ne 0 ]; then
  # /stats is compact JSON and its budget block holds no nested object.
  echo "/stats budget block:" >&2
  grep -o '"budget":{[^}]*}' "$dir/stats.json" >&2 || echo "(none)" >&2
  tail -20 "$dir/server.log" >&2
  exit 1
fi
echo "budget soak OK"
