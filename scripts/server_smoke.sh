#!/usr/bin/env bash
# server_smoke.sh — end-to-end smoke test of the xfdd discovery
# service, exercising the robustness contract against a real listener:
# liveness/readiness, synchronous discovery, an async job observed
# over SSE, resident documents with incremental updates (PATCH
# /v1/documents), slow-request reports carrying the served run's stage
# timings, graceful degradation under a wall-clock deadline, overload
# shedding (429 + Retry-After), and a SIGTERM drain that completes
# in-flight work. CI runs it with the server built -race.
#
# Usage: scripts/server_smoke.sh [path-to-xfdd-binary]
# (no argument: builds the binary with -race into a temp dir)
set -euo pipefail

ADDR=127.0.0.1:8321
BASE="http://$ADDR"
WORK="$(mktemp -d)"
SERVER_PID=
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "server-smoke: FAIL: $*" >&2; exit 1; }
note() { echo "server-smoke: $*"; }

code() { # code <expected> <curl args...>
  local want="$1"; shift
  local got
  got="$(curl -s -o "$WORK/body" -w '%{http_code}' "$@")"
  [ "$got" = "$want" ] || fail "$* -> $got, want $want ($(head -c 200 "$WORK/body"))"
}

stat_field() { # stat_field <name>
  curl -sf "$BASE/v1/stats" | python3 -c "import sys,json; print(json.load(sys.stdin)[\"$1\"])"
}

XFDD="${1:-}"
if [ -z "$XFDD" ]; then
  note "building xfdd -race"
  go build -race -o "$WORK/xfdd" ./cmd/xfdd
  XFDD="$WORK/xfdd"
fi

note "generating corpora"
go run ./cmd/xfdgen -dataset warehouse > "$WORK/corpus.xml"
# Wide rows without an injected FD (-fdevery 0, so nothing prunes)
# make the lattice expensive. Under -race on a 2-vCPU host width 22
# takes about 35s: long enough to still be running when stage 7 sends
# SIGTERM, short enough for the drain to complete it. Width 24 takes
# far longer than any smoke deadline, so a 5s budget reliably
# truncates mid-discovery.
go run ./cmd/xfdgen -dataset wide -width 22 -scale 2 -fdevery 0 > "$WORK/hog.xml"
go run ./cmd/xfdgen -dataset wide -width 24 -scale 2 -fdevery 0 > "$WORK/slow.xml"

note "booting xfdd on $ADDR"
# -slow-run 1ns: every request earns a slow-request report (stage 4b).
"$XFDD" -addr "$ADDR" -max-concurrent 1 -queue-depth -1 \
  -default-timeout 120s -max-timeout 120s -drain-timeout 120s \
  -slow-run 1ns -trace "$WORK/smoke.trace" 2> "$WORK/xfdd.log" &
SERVER_PID=$!
for i in $(seq 1 100); do
  curl -sf -o /dev/null "$BASE/healthz" && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/xfdd.log" >&2; fail "server died on boot"; }
  sleep 0.1
done

note "stage 1: health"
code 200 "$BASE/healthz"
code 200 "$BASE/readyz"
code 200 "$BASE/v1/stats"
code 404 "$BASE/debug/vars"

note "stage 2: synchronous discovery"
code 200 --data-binary "@$WORK/corpus.xml" "$BASE/v1/discover?timeout=60s"
python3 -c "
import json,sys
r = json.load(open('$WORK/body'))
assert r['fds'], 'no FDs discovered'
assert not r['stats'].get('truncated'), 'unexpected truncation'
" || fail "sync result malformed"
code 400 --data-binary 'not xml' "$BASE/v1/discover"
code 400 --data-binary "@$WORK/corpus.xml" "$BASE/v1/discover?max_tuples=-1"

note "stage 2b: trace propagation on the 200 path"
TP_IN="00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
curl -sf -D "$WORK/hdr200" -o /dev/null -H "traceparent: $TP_IN" \
  --data-binary "@$WORK/corpus.xml" "$BASE/v1/discover?timeout=60s" ||
  fail "traced discover failed"
grep -qi '^traceparent: 00-0af7651916cd43dd8448eb211c80319c-' "$WORK/hdr200" ||
  fail "200 does not echo the inbound trace id"
grep -qi "^traceparent: ${TP_IN}" "$WORK/hdr200" &&
  fail "200 echoed the caller's span id instead of minting one"
grep -qi '^x-request-id: ' "$WORK/hdr200" || fail "200 without X-Request-Id"

note "stage 3: async job with SSE progress"
JOB="$(curl -sf -X POST --data-binary "@$WORK/corpus.xml" "$BASE/v1/jobs" |
  python3 -c 'import sys,json; print(json.load(sys.stdin)["id"])')"
curl -sN --max-time 30 -H 'Accept: text/event-stream' \
  "$BASE/v1/jobs/$JOB/events" > "$WORK/sse" || fail "SSE stream failed"
for ev in run_start stage_start run_end done; do
  grep -q "^event: $ev\$" "$WORK/sse" || fail "SSE stream missing $ev event"
done
code 200 "$BASE/v1/jobs/$JOB/result"
python3 -c "import json; assert json.load(open('$WORK/body'))['fds']" ||
  fail "job result malformed"
code 404 "$BASE/v1/jobs/job-999999"

note "stage 4: resident documents and incremental updates"
DOC="$(curl -sf -X POST --data-binary "@$WORK/corpus.xml" "$BASE/v1/documents" |
  python3 -c 'import sys,json; print(json.load(sys.stdin)["id"])')"
code 200 -X POST "$BASE/v1/documents/$DOC/discover?timeout=60s"
python3 -c "import json; assert json.load(open('$WORK/body'))['fds']" ||
  fail "resident discover malformed"
cat > "$WORK/update.json" <<'EOF'
[{"op": "insert", "class": "/warehouse/state", "values": {"./name": "S99"}}]
EOF
code 200 -X PATCH --data-binary "@$WORK/update.json" "$BASE/v1/documents/$DOC"
KEY="$(python3 -c "import json; print(json.load(open('$WORK/body'))['keys'][0])")"
cat > "$WORK/update2.json" <<EOF
[{"op": "set", "class": "/warehouse/state", "key": $KEY, "attr": "./name", "value": "S98"},
 {"op": "delete", "class": "/warehouse/state", "key": $KEY}]
EOF
code 200 -X PATCH --data-binary "@$WORK/update2.json" "$BASE/v1/documents/$DOC"
# The post-update discover joins a trace of its own: its run must carry
# that trace id, not the creating request's (checked in stage 8).
TP_DOC_ID=4bf92f3577b34da6a3ce929d0e0e4736
code 200 -X POST -H "traceparent: 00-$TP_DOC_ID-00f067aa0ba902b7-01" \
  "$BASE/v1/documents/$DOC/discover?timeout=60s"
python3 -c "import json; assert json.load(open('$WORK/body'))['fds']" ||
  fail "post-update discover malformed"
code 422 -X PATCH --data-binary '[{"op":"delete","class":"/warehouse/state","key":999999}]' \
  "$BASE/v1/documents/$DOC"
code 400 -X PATCH --data-binary 'not json' "$BASE/v1/documents/$DOC"
code 400 -X POST "$BASE/v1/documents/$DOC/discover?max_lattice_level=1"
code 404 -X PATCH --data-binary '[{"op":"delete","class":"/x","key":1}]' "$BASE/v1/documents/doc-999999"
code 200 "$BASE/v1/documents"
[ "$(stat_field docUpdates)" = "2" ] || fail "docUpdates $(stat_field docUpdates), want 2"
[ "$(stat_field docUpdatesRejected)" = "1" ] || fail "docUpdatesRejected $(stat_field docUpdatesRejected), want 1"
code 200 -X DELETE "$BASE/v1/documents/$DOC"
code 404 "$BASE/v1/documents/$DOC"

note "stage 4b: slow-request reports carry the served run's stage timings"
# The middleware logs a request before its response completes.
for route in /v1/discover '/v1/documents/{id}/discover'; do
  line="$(grep 'msg="slow request"' "$WORK/xfdd.log" | grep -F " route=$route " |
    grep -F ' status=200 ' | tail -n 1)"
  [ -n "$line" ] || fail "no slow request line for a served $route"
  for key in plan traverse minimize verify assemble; do
    case "$line" in *" $key="*) ;; *) fail "$route slow request line missing $key=: $line" ;; esac
  done
done

note "stage 5: graceful degradation under deadline"
code 504 --data-binary "@$WORK/slow.xml" "$BASE/v1/discover?timeout=5s"
code 200 --data-binary "@$WORK/slow.xml" "$BASE/v1/discover?timeout=5s&degrade=truncate"
python3 -c "
import json
r = json.load(open('$WORK/body'))
assert r['stats']['truncated'], 'degrade=truncate result not marked truncated'
assert 'deadline' in r['stats']['truncatedReason'], r['stats']['truncatedReason']
" || fail "degraded result malformed"

note "stage 6: overload sheds with 429"
curl -s -o /dev/null -w '%{http_code}' --data-binary "@$WORK/hog.xml" \
  "$BASE/v1/discover" > "$WORK/hog.code" &
HOG_PID=$!
for i in $(seq 1 200); do
  [ "$(stat_field running)" = "1" ] && break
  sleep 0.1
done
[ "$(stat_field running)" = "1" ] || fail "hog request never started running"
code 429 --data-binary "@$WORK/corpus.xml" "$BASE/v1/discover"
curl -si -H "traceparent: $TP_IN" --data-binary "@$WORK/corpus.xml" \
  "$BASE/v1/discover" > "$WORK/hdr429"
grep -qi '^retry-after:' "$WORK/hdr429" || fail "429 without Retry-After"
grep -qi '^traceparent: 00-0af7651916cd43dd8448eb211c80319c-' "$WORK/hdr429" ||
  fail "429 does not echo the inbound trace id"
grep -qi '^x-request-id: ' "$WORK/hdr429" || fail "429 without X-Request-Id"

note "stage 6b: metrics exposition is valid and carries the contract"
curl -sf "$BASE/metrics" > "$WORK/metrics.prom" || fail "scraping /metrics"
go run ./cmd/promcheck "$WORK/metrics.prom"
for m in xfd_http_requests_total xfd_http_request_duration_seconds_bucket \
         xfd_engine_runs_started_total xfd_engine_runs_finished_total \
         xfd_requests_shed_total xfd_queue_depth xfd_running_runs \
         xfd_tenant_running xfd_run_stage_duration_seconds_bucket go_goroutines; do
  grep -q "^$m" "$WORK/metrics.prom" || fail "exposition missing $m"
done
# The shed from this stage is attributed to its reason.
grep -q 'xfd_requests_shed_total{reason="queue_full"' "$WORK/metrics.prom" ||
  fail "shed counter missing the queue_full reason"

note "stage 7: SIGTERM drain completes in-flight work"
[ "$(stat_field running)" = "1" ] || fail "hog request finished before the drain began"
kill -TERM "$SERVER_PID"
for i in $(seq 1 100); do
  [ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz")" = "503" ] && break
  sleep 0.1
done
code 503 "$BASE/readyz"
code 200 "$BASE/healthz"
code 503 --data-binary "@$WORK/corpus.xml" "$BASE/v1/discover"
code 503 -X POST --data-binary "@$WORK/corpus.xml" "$BASE/v1/jobs"
wait "$HOG_PID"
HOG_CODE="$(cat "$WORK/hog.code")"
[ "$HOG_CODE" = "200" ] || fail "in-flight run got $HOG_CODE during drain, want 200"
RC=0; wait "$SERVER_PID" || RC=$?
SERVER_PID=
[ "$RC" = "0" ] || { cat "$WORK/xfdd.log" >&2; fail "server exited $RC after drain, want 0"; }

note "stage 8: trace flushed and schema-valid"
go run ./cmd/tracecheck "$WORK/smoke.trace"
python3 -c "
import json, sys
sys.exit(not any(ev.get('event') == 'run_start' and ev.get('trace_id') == '$TP_DOC_ID'
                 for ev in map(json.loads, open('$WORK/smoke.trace'))))" ||
  fail "no run_start event carries the resident discover's trace id $TP_DOC_ID"

note "PASS"
