#!/usr/bin/env bash
# Metrics-lint gate: boot tindserve on a tiny synthetic corpus, exercise
# a few queries so the histograms and the event ring have samples, then
# run cmd/metricslint against it — failing CI on an unparseable
# exposition, a metric family without help text, a histogram without a
# +Inf bucket, or a /debug/events endpoint that stops answering valid
# JSON. /metrics serves one dialect, the Prometheus 0.0.4 text
# format: a scraper that prefers OpenMetrics must still get a 200 in it.
set -euo pipefail

ATTRS=60
HORIZON=200
SEED=4
PORT=18096

TMP=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$TMP"
}
trap cleanup EXIT

log() { echo "metricslint: $*" >&2; }

wait_ready() { # port
  for _ in $(seq 1 200); do
    if curl -fsS "http://127.0.0.1:$1/readyz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  log "server on port $1 never became ready"
  return 1
}

log "building tindserve and metricslint"
go build -o "$TMP/tindserve" ./cmd/tindserve
go build -o "$TMP/metricslint" ./cmd/metricslint

log "starting server on a tiny corpus"
"$TMP/tindserve" -addr "127.0.0.1:$PORT" -attrs "$ATTRS" -horizon "$HORIZON" \
  -seed "$SEED" -shards 2 >"$TMP/serve.log" 2>&1 &
PIDS+=("$!")
wait_ready "$PORT"

log "exercising the query surface"
curl -fsS "http://127.0.0.1:$PORT/search?attr=0&eps=3&delta=7" >/dev/null
curl -fsS "http://127.0.0.1:$PORT/topk?attr=1&k=3" >/dev/null
curl -fsS -X POST -d '{"queries":[{"attr":"0","eps":3},{"attr":"1","mode":"reverse"}]}' \
  "http://127.0.0.1:$PORT/query/batch" >/dev/null

log "linting the exposition and debug endpoints"
"$TMP/metricslint" -url "http://127.0.0.1:$PORT"

log "checking that an OpenMetrics-preferring scraper gets the text format"
read -r code ctype < <(curl -sS -o /dev/null -w '%{http_code} %{content_type}\n' \
  -H 'Accept: application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5' \
  "http://127.0.0.1:$PORT/metrics")
if [[ "$code" != 200 || "$ctype" != text/plain* ]]; then
  log "Accept: application/openmetrics-text got $code ($ctype), want 200 text/plain"
  exit 1
fi

log "PASS"
