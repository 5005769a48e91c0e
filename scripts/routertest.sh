#!/usr/bin/env bash
# Distributed-serving integration test for tindserve (DESIGN.md §13):
# boot two shard servers and a scatter-gather router as separate
# processes on loopback, assert the router answers every query mode
# exactly like a monolithic server over the same corpus, SIGKILL one
# shard mid-traffic and assert the router degrades to explicit
# 200+partial answers (never a 500, never a silently-shrunken result)
# with /readyz naming the dead shard, then restart the shard and assert
# full recovery.
set -euo pipefail

ATTRS=40
HORIZON=120
SEED=4
SHARDS=2
PORT_S0=18096
PORT_S1=18097
PORT_R=18098
PORT_M=18099

TMP=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$TMP"
}
trap cleanup EXIT

log() { echo "routertest: $*" >&2; }

wait_ready() { # port
  for _ in $(seq 1 200); do
    if curl -fsS "http://127.0.0.1:$1/readyz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  log "server on port $1 never became ready"
  return 1
}

json_field() { # field  (stdin: json object)
  python3 -c "import json,sys; print(json.load(sys.stdin)[\"$1\"])"
}

results_of() { # port path  -> canonical JSON of the "results" field
  curl -fsS "http://127.0.0.1:$1$2" |
    python3 -c 'import json,sys; print(json.dumps(json.load(sys.stdin)["results"], sort_keys=True))'
}

# Every process regenerates the same synthetic corpus from the same
# flags — the multi-process stand-in for sharing a -corpus container.
CORPUS_FLAGS=(-attrs "$ATTRS" -horizon "$HORIZON" -seed "$SEED")

log "building tindserve"
go build -o "$TMP/tindserve" ./cmd/tindserve

start_shard() { # shard_id port logfile
  "$TMP/tindserve" -addr "127.0.0.1:$2" "${CORPUS_FLAGS[@]}" \
    -shards "$SHARDS" -shard-server -shard-id "$1" >"$TMP/$3" 2>&1 &
  PIDS+=("$!")
}

log "starting $SHARDS shard servers"
start_shard 0 "$PORT_S0" shard0.log
start_shard 1 "$PORT_S1" shard1.log
wait_ready "$PORT_S0"
wait_ready "$PORT_S1"

log "starting router over the shard servers"
"$TMP/tindserve" -addr "127.0.0.1:$PORT_R" "${CORPUS_FLAGS[@]}" \
  -router "http://127.0.0.1:$PORT_S0;http://127.0.0.1:$PORT_S1" \
  -leg-timeout 5s >"$TMP/router.log" 2>&1 &
PIDS+=("$!")

log "starting monolithic reference server"
"$TMP/tindserve" -addr "127.0.0.1:$PORT_M" "${CORPUS_FLAGS[@]}" >"$TMP/mono.log" 2>&1 &
PIDS+=("$!")

wait_ready "$PORT_R"
wait_ready "$PORT_M"

log "comparing all query modes across $ATTRS attributes (router vs monolith)"
for a in $(seq 0 $((ATTRS - 1))); do
  for path in "/search?attr=$a" "/reverse?attr=$a" "/topk?attr=$a&k=5"; do
    got=$(results_of "$PORT_R" "$path")
    want=$(results_of "$PORT_M" "$path")
    if [ "$got" != "$want" ]; then
      log "FAIL: $path diverges through the router"
      log "  router:   $got"
      log "  monolith: $want"
      exit 1
    fi
  done
done

# A shard answers for its own attributes only, so a shard server serves
# the shard RPC instead of the public query surface.
log "asserting shard servers serve only the shard RPC"
for check in "GET /search?attr=0 404" "POST /query/batch 404" "GET /shard/info 200"; do
  read -r method path want <<<"$check"
  got=$(curl -s -o /dev/null -w '%{http_code}' -X "$method" "http://127.0.0.1:$PORT_S0$path")
  if [ "$got" != "$want" ]; then
    log "FAIL: $method $path on a shard server answered $got, want $want"
    exit 1
  fi
done

log "SIGKILL shard 1 mid-traffic"
curl -fsS "http://127.0.0.1:$PORT_R/search?attr=0" >/dev/null &
INFLIGHT=$!
KILLED_PID=${PIDS[1]}
kill -9 "$KILLED_PID"
wait "$KILLED_PID" 2>/dev/null || true
# The in-flight query completes either way: full if its legs beat the
# kill, partial otherwise — both are correct mid-kill.
wait "$INFLIGHT" 2>/dev/null || true

log "asserting typed partial results"
out=$(curl -fsS "http://127.0.0.1:$PORT_R/search?attr=0")
partial=$(echo "$out" | json_field partial)
failed=$(echo "$out" | python3 -c 'import json,sys; print(json.load(sys.stdin)["shards_failed"])')
if [ "$partial" != "True" ] || [ "$failed" != "[1]" ]; then
  log "FAIL: query over a dead shard answered partial=$partial shards_failed=$failed, want True / [1]"
  exit 1
fi
# The partial answer is the healthy shard's contribution, a subset of
# the full answer — and the HTTP status is 200, not a 5xx.
status=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT_R/search?attr=0")
if [ "$status" != "200" ]; then
  log "FAIL: partial answer came with status $status, want 200"
  exit 1
fi

log "asserting /readyz degradation names the dead shard"
ready_status=$(curl -s -o "$TMP/readyz.json" -w '%{http_code}' "http://127.0.0.1:$PORT_R/readyz")
down=$(json_field shards_down <"$TMP/readyz.json")
if [ "$ready_status" != "503" ] || [ "$down" != "[1]" ]; then
  log "FAIL: /readyz with a dead shard: status=$ready_status shards_down=$down, want 503 / [1]"
  exit 1
fi

log "restarting shard 1"
start_shard 1 "$PORT_S1" shard1-restarted.log
wait_ready "$PORT_S1"

# The router re-probes on /readyz; poll until it reports recovery.
for _ in $(seq 1 200); do
  if curl -fsS "http://127.0.0.1:$PORT_R/readyz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
out=$(curl -fsS "http://127.0.0.1:$PORT_R/search?attr=0")
if echo "$out" | python3 -c 'import json,sys; sys.exit(0 if "partial" not in json.load(sys.stdin) else 1)'; then
  :
else
  log "FAIL: query still partial after the shard came back"
  exit 1
fi
got=$(results_of "$PORT_R" "/search?attr=0")
want=$(results_of "$PORT_M" "/search?attr=0")
if [ "$got" != "$want" ]; then
  log "FAIL: post-recovery answer diverges from the monolith"
  exit 1
fi

log "PASS: router matches the monolith, degrades to typed partials, recovers"
