#!/usr/bin/env bash
# router_bench.sh — the horizontal scale-out gate for cmd/emigre-router.
#
# Topology A: one backend behind the router. Topology B: three backends
# behind the router. Both legs run the identical seeded closed-loop
# emigre-loadgen stream through the router, so the request mix is
# byte-identical and the error rates must match; only the backend count
# differs.
#
# Per-node capacity is emulated machine-independently: every backend
# runs with -max-concurrent 1 (one explain in service at a time) and a
# 40ms injected CHECK sleep, so a node's ceiling is ~25 explains/s
# regardless of host core count or speed. Scale-out throughput then
# comes from the router fanning the keyspace across nodes — which is
# the property this gate checks — not from oversubscribing local CPUs,
# and the ratio reproduces on a 1-core runner.
#
# The workload is the emigre-gen small graph: 30 users (user-0..29)
# hit uniformly, so shard load tracks the hash split. BASE_PORT is
# pinned to an even split of that population (10/10/10 at 18128) —
# backend identity is its address, so the split is a deterministic
# function of the ports, and an adversarial split would measure hash
# variance on a 30-key population rather than router scale-out.
#
# The script exits non-zero unless the routed leg sustains at least 2×
# the single-backend qps with error rates within 0.02 of each other,
# and prints one verdict line either way. Runs in ~2 minutes.
#
# Usage: scripts/router_bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_PORT=18128
COUNT=600
SEED=7
CONCURRENCY=10
SLEEP_MS=40
# CHECK budget per request. The sleep makes each CHECK a fixed quantum
# of node capacity; capping the budget bounds the cost of any single
# request, so shard load tracks request count instead of being decided
# by a handful of 200-CHECK whales landing on one shard. The workload
# is diagnose-only: diagnosis runs the same admission-gated CHECK
# machinery but answers 200 for any resolvable pair.
MAX_TESTS=4
OP_MIX="diagnose=1"
MIN_SPEEDUP=2.0
MAX_ERROR_DELTA=0.02
BIN="$(mktemp -d)"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN/emigre-server" ./cmd/emigre-server
go build -o "$BIN/emigre-router" ./cmd/emigre-router
go build -o "$BIN/emigre-loadgen" ./cmd/emigre-loadgen
go run ./cmd/emigre-gen -preset small -seed 1 -stats=false -out "$BIN/small.json" >/dev/null

USERS=$(seq -s, -f 'user-%g' 0 29)
ITEMS=$(seq -s, -f 'item-%g' 0 59)

start_backend() { # port
  "$BIN/emigre-server" -graph "$BIN/small.json" -addr "127.0.0.1:$1" \
    -max-concurrent 1 -queue-depth 16 -max-tests "$MAX_TESTS" \
    -failpoints "emigre.check=sleep(${SLEEP_MS}ms)" 2>/dev/null &
  PIDS+=($!)
}

wait_ready() { # url
  for _ in $(seq 1 100); do
    curl -fsS "$1" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "router_bench: $1 never became ready" >&2
  exit 1
}

start_router() { # listen-port backends
  "$BIN/emigre-router" -listen "127.0.0.1:$1" -backends "$2" 2>/dev/null &
  PIDS+=($!)
  wait_ready "http://127.0.0.1:$1/readyz"
}

run_loadgen() { # router-port report.json
  "$BIN/emigre-loadgen" -mode run -addr "http://127.0.0.1:$1" \
    -seed "$SEED" -count "$COUNT" -arrival closed -concurrency "$CONCURRENCY" \
    -op-mix "$OP_MIX" -users "$USERS" -items "$ITEMS" -user-skew 0 -item-skew 0 \
    -report "$2" -quiet
}

# --- Topology A: router over one backend -----------------------------
P0=$BASE_PORT
start_backend "$P0"
wait_ready "http://127.0.0.1:$P0/healthz"
start_router $((BASE_PORT + 10)) "127.0.0.1:$P0"
run_loadgen $((BASE_PORT + 10)) "$BIN/single.json"
kill "${PIDS[@]}" 2>/dev/null || true
wait 2>/dev/null || true
PIDS=()

# --- Topology B: router over three backends --------------------------
P1=$((BASE_PORT + 1)); P2=$((BASE_PORT + 2)); P3=$((BASE_PORT + 3))
for p in "$P1" "$P2" "$P3"; do start_backend "$p"; done
for p in "$P1" "$P2" "$P3"; do wait_ready "http://127.0.0.1:$p/healthz"; done
start_router $((BASE_PORT + 11)) "127.0.0.1:$P1,127.0.0.1:$P2,127.0.0.1:$P3"
run_loadgen $((BASE_PORT + 11)) "$BIN/routed.json"

# --- Verdict ---------------------------------------------------------
read -r SINGLE_QPS SINGLE_ERR < <(jq -r '"\(.qps) \(.error_rate)"' "$BIN/single.json")
read -r ROUTED_QPS ROUTED_ERR < <(jq -r '"\(.qps) \(.error_rate)"' "$BIN/routed.json")
awk -v s="$SINGLE_QPS" -v r="$ROUTED_QPS" -v se="$SINGLE_ERR" -v re="$ROUTED_ERR" \
  -v min="$MIN_SPEEDUP" -v max="$MAX_ERROR_DELTA" 'BEGIN {
  x = s > 0 ? r / s : 0
  d = re - se; if (d < 0) d = -d
  ok = x >= min && d <= max
  printf "router_bench: %s speedup %.2fx (%.1f -> %.1f qps, need >= %.1fx), |error delta| %.4f (%.4f -> %.4f, need <= %.2f)\n",
    ok ? "PASS" : "FAIL", x, s, r, min, d, se, re, max
  exit !ok
}'
