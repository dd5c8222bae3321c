#!/usr/bin/env bash
# Loopback serving smoke test (CI job `serve-smoke`).
#
# Starts warp_serve on a kernel-assigned port with a generated dataset,
# drives a scripted mix of control ops and pipelined queries through
# `warp_cli query`, and asserts:
#   * the server comes up and answers ping/info/stats;
#   * the `metrics` op emits schema-valid warp-metrics-v1 text (validated
#     line-by-line by an inline python3 checker: sample-line grammar,
#     cumulative buckets, +Inf == _count) and `slowlog` drains cleanly;
#   * query answers are deterministic (the same request twice, one cold
#     and one from the result cache, yields byte-identical responses);
#   * pipelined lines each get exactly one response, in order;
#   * a save_snapshot -> restart-from---snapshot-dir round trip (at a
#     different shard count) answers the same query byte-identically;
#   * load_snapshot of a 40-byte file whose header claims 2^62 payload
#     bytes is refused (ok:false) and the server keeps answering;
#   * `shutdown` stops the server with exit code 0 (clean shutdown).
#
# Usage: scripts/serve_smoke.sh [BUILD_DIR]   (default: build)
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"
SERVE="$BUILD_DIR/tools/warp_serve"
CLI="$BUILD_DIR/tools/warp_cli"
WORK="$(mktemp -d)"
SERVER_PID=""
SERVER2_PID=""

fail() {
  echo "SMOKE FAIL: $*" >&2
  [ -f "$WORK/server.log" ] && sed 's/^/  server: /' "$WORK/server.log" >&2
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2> /dev/null
  [ -n "$SERVER2_PID" ] && kill "$SERVER2_PID" 2> /dev/null
  rm -rf "$WORK"
  exit 1
}

[ -x "$SERVE" ] || fail "$SERVE not built (run cmake --build $BUILD_DIR first)"
[ -x "$CLI" ] || fail "$CLI not built"

# --- Start the server on a kernel-assigned port -----------------------------
"$SERVE" --gen=smoke=40,64 --threads=2 --shards=2 --cache=128 > "$WORK/server.log" &
SERVER_PID=$!

# The bound port comes from the machine-readable "ready port=<P>" line
# (the server binds --port=0, so nothing here hard-codes a port).
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^ready port=\([0-9]*\)$/\1/p' \
      "$WORK/server.log" 2> /dev/null)"
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2> /dev/null || fail "server exited before listening"
  sleep 0.1
done
[ -n "$PORT" ] || fail "server never printed its listening line"
echo "smoke: server up on port $PORT (pid $SERVER_PID)"

# --- A pipelined mix: control ops + queries, with a repeated query ----------
QUERY='[0.1, 0.7, 1.3, 0.9, 0.2, -0.4, -1.1, -0.6, 0.3, 1.0]'
{
  echo '{"id": 1, "op": "ping"}'
  echo '{"id": 2, "op": "info", "dataset": "smoke"}'
  echo '{"id": 3, "op": "1nn", "dataset": "smoke", "query": '"$QUERY"'}'
  echo '{"id": 4, "op": "knn", "dataset": "smoke", "k": 3, "query": '"$QUERY"'}'
  echo '{"id": 3, "op": "1nn", "dataset": "smoke", "query": '"$QUERY"'}'
  echo '{"id": 5, "op": "stats"}'
} > "$WORK/requests.txt"

"$CLI" query --port="$PORT" < "$WORK/requests.txt" > "$WORK/responses.txt" \
    || fail "warp_cli query exited nonzero"

LINES="$(wc -l < "$WORK/responses.txt")"
[ "$LINES" -eq 6 ] || fail "expected 6 response lines, got $LINES"

grep -q '"id":1,"ok":true' "$WORK/responses.txt" || fail "ping not ok"
grep -q '"dataset":"smoke","size":40,"length":64' "$WORK/responses.txt" \
    || fail "info wrong: $(sed -n 2p "$WORK/responses.txt")"
grep -q '"shards":2' "$WORK/responses.txt" \
    || fail "info missing shard count: $(sed -n 2p "$WORK/responses.txt")"
grep -q '"serve_requests"' "$WORK/responses.txt" || fail "stats missing counters"
grep -q '"gauges":{' "$WORK/responses.txt" || fail "stats missing gauges"
grep -q '"slowlog":{' "$WORK/responses.txt" || fail "stats missing slowlog"

# Determinism: the repeated 1nn request (lines 3 and 5; the second is a
# result-cache hit) must produce byte-identical responses.
FIRST="$(sed -n 3p "$WORK/responses.txt")"
REPEAT="$(sed -n 5p "$WORK/responses.txt")"
echo "$FIRST" | grep -q '"ok":true' || fail "1nn failed: $FIRST"
[ "$FIRST" = "$REPEAT" ] || fail "cold vs cached 1nn diverged:
  cold:   $FIRST
  cached: $REPEAT"

# And a fresh connection recomputing the same query must agree too.
echo '{"id": 3, "op": "1nn", "dataset": "smoke", "query": '"$QUERY"'}' \
    | "$CLI" query --port="$PORT" > "$WORK/again.txt" \
    || fail "second connection failed"
[ "$FIRST" = "$(cat "$WORK/again.txt")" ] \
    || fail "answers differ across connections"

# --- Metrics exposition + slowlog -------------------------------------------
echo '{"id": 6, "op": "metrics"}' | "$CLI" query --port="$PORT" \
    > "$WORK/metrics.txt" || fail "metrics request failed"
python3 - "$WORK/metrics.txt" << 'PYEOF' || fail "warp-metrics-v1 invalid"
import json
import re
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    response = json.loads(handle.read())
assert response["ok"], response
assert response["op"] == "metrics", response
assert response["format"] == "warp-metrics-v1", response

lines = response["body"].splitlines()
assert lines[0] == "# warp-metrics-v1", lines[0]

SAMPLE = re.compile(
    r'^(warp_[a-z0-9_]+?)'
    r'(_total|_sum|_count|_bucket\{le="(?:\+Inf|[0-9]+)"\})? (-?[0-9]+)$')
TYPE = re.compile(r"^# TYPE (warp_[a-z0-9_]+) (counter|gauge|histogram)$")

families = {}   # name -> declared type
samples = {}    # full sample name (with label) -> value
for line in lines[1:]:
    if line.startswith("#"):
        match = TYPE.match(line)
        assert match, f"bad comment line: {line!r}"
        families[match.group(1)] = match.group(2)
        continue
    match = SAMPLE.match(line)
    assert match, f"bad sample line: {line!r}"
    samples[line.rsplit(" ", 1)[0]] = int(match.group(3))

assert "warp_serve_requests" in families, sorted(families)
assert "warp_serve_open_connections" in families, sorted(families)
assert "warp_serve_result_cache_hits" in families, sorted(families)
assert families.get("warp_serve_latency_1nn_us") == "histogram", families

for name, kind in families.items():
    if kind == "counter":
        assert samples[name + "_total"] >= 0, name
    elif kind == "gauge":
        assert name in samples, name
    else:  # histogram: cumulative buckets, +Inf == _count.
        count = samples[name + "_count"]
        assert samples[name + '_bucket{le="+Inf"}'] == count, name
        bounds = []
        for sample, value in samples.items():
            match = re.match(re.escape(name) + r'_bucket\{le="([0-9]+)"\}$',
                             sample)
            if match:
                bounds.append((int(match.group(1)), value))
        bounds.sort()
        cumulative = 0
        for _, value in bounds:
            assert value >= cumulative, f"{name}: non-cumulative buckets"
            cumulative = value
        assert cumulative <= count, name
print(f"smoke: warp-metrics-v1 OK "
      f"({len(families)} families, {len(samples)} samples)")
PYEOF

echo '{"id": 7, "op": "slowlog"}' | "$CLI" query --port="$PORT" \
    > "$WORK/slowlog.txt" || fail "slowlog request failed"
grep -q '"ok":true,"op":"slowlog"' "$WORK/slowlog.txt" \
    || fail "slowlog wrong: $(cat "$WORK/slowlog.txt")"
grep -q '"entries":\[' "$WORK/slowlog.txt" || fail "slowlog missing entries"

# --- A lying snapshot header is refused, not fatal --------------------------
# 24-byte header (magic, version 1, flags 0, payload_len 2^62) + 16 zeros.
python3 -c 'import struct, sys; sys.stdout.buffer.write(
    b"warpsnap" + struct.pack("<IIQ", 1, 0, 1 << 62) + bytes(16))' \
    > "$WORK/huge.wsnap"
echo '{"id": 10, "op": "load_snapshot", "path": "'"$WORK"'/huge.wsnap"}' \
    | "$CLI" query --port="$PORT" > "$WORK/huge.txt" \
    || fail "load_snapshot of an oversized header got no answer"
grep -q '"ok":false' "$WORK/huge.txt" \
    || fail "oversized snapshot not refused: $(cat "$WORK/huge.txt")"
echo '{"id": 11, "op": "ping"}' | "$CLI" query --port="$PORT" \
    > "$WORK/ping.txt" || fail "server gone after an oversized snapshot"
grep -q '"id":11,"ok":true' "$WORK/ping.txt" \
    || fail "ping after oversized snapshot: $(cat "$WORK/ping.txt")"

# --- Snapshot round trip: save, restart from --snapshot-dir, re-ask ---------
mkdir -p "$WORK/snapdir"
echo '{"id": 8, "op": "save_snapshot", "dataset": "smoke", "path": "'"$WORK"'/snapdir/smoke.wsnap"}' \
    | "$CLI" query --port="$PORT" > "$WORK/save.txt" \
    || fail "save_snapshot request failed"
grep -q '"ok":true,"op":"save_snapshot"' "$WORK/save.txt" \
    || fail "save_snapshot wrong: $(cat "$WORK/save.txt")"
[ -s "$WORK/snapdir/smoke.wsnap" ] || fail "snapshot file missing or empty"

# A second server restores from the snapshot directory at a different
# shard count; the same query must come back byte-identical (sharding and
# persistence are execution details, never part of the answer).
"$SERVE" --snapshot-dir="$WORK/snapdir" --shards=3 --threads=2 \
    > "$WORK/server2.log" &
SERVER2_PID=$!
PORT2=""
for _ in $(seq 1 100); do
  PORT2="$(sed -n 's/^ready port=\([0-9]*\)$/\1/p' \
      "$WORK/server2.log" 2> /dev/null)"
  [ -n "$PORT2" ] && break
  kill -0 "$SERVER2_PID" 2> /dev/null \
      || fail "snapshot-restored server exited before listening"
  sleep 0.1
done
[ -n "$PORT2" ] || fail "snapshot-restored server never printed its port"
echo "smoke: snapshot-restored server up on port $PORT2 (pid $SERVER2_PID)"

echo '{"id": 3, "op": "1nn", "dataset": "smoke", "query": '"$QUERY"'}' \
    | "$CLI" query --port="$PORT2" > "$WORK/restored.txt" \
    || fail "query against restored server failed"
[ "$FIRST" = "$(cat "$WORK/restored.txt")" ] \
    || fail "restored server diverged:
  original: $FIRST
  restored: $(cat "$WORK/restored.txt")"
echo '{"id": 9, "op": "info", "dataset": "smoke"}' \
    | "$CLI" query --port="$PORT2" > "$WORK/info2.txt" \
    || fail "info against restored server failed"
grep -q '"shards":3' "$WORK/info2.txt" \
    || fail "restored server shard count wrong: $(cat "$WORK/info2.txt")"

echo '{"id": 98, "op": "shutdown"}' | "$CLI" query --port="$PORT2" \
    > /dev/null || fail "restored-server shutdown failed"
wait "$SERVER2_PID" || fail "restored server exited nonzero"

# --- Clean shutdown ---------------------------------------------------------
echo '{"id": 99, "op": "shutdown"}' | "$CLI" query --port="$PORT" \
    > "$WORK/shutdown.txt" || fail "shutdown request failed"
grep -q '"ok":true' "$WORK/shutdown.txt" || fail "shutdown not acked"

wait "$SERVER_PID"
CODE=$?
[ "$CODE" -eq 0 ] || fail "server exited $CODE after shutdown"

rm -rf "$WORK"
echo "smoke: all serving checks passed"
