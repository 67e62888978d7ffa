#!/bin/sh
# telemetry-smoke.sh: end-to-end exercise of the host telemetry plane.
#
# Boots a real 4-replica UDP group with -telemetry and -flight, drives
# operations through bft-kv, and asserts:
#   - /metrics returns valid Prometheus text with >= 20 bft_ series,
#     including committed-operation counters matching the ops sent and
#     zero transport drops on loopback;
#   - /healthz and /statusz answer;
#   - bft-top renders one aggregate frame over the fleet;
#   - SIGQUIT produces a BFTTRC01 flight dump that bft-trace -decode reads;
#   - SIGTERM shuts every replica down cleanly (exit status 0).
#
# Artifacts (scrapes, statusz, bft-top frame, flight dump, logs) are left
# in the directory named by $1 (default: a fresh temp dir), so CI can
# upload them. Requires only the go toolchain and loopback UDP.
set -eu

OUT=${1:-$(mktemp -d)}
mkdir -p "$OUT"
BIN="$OUT/bin"
KEYS="$OUT/keys"
mkdir -p "$BIN" "$KEYS"

echo "telemetry-smoke: artifacts in $OUT"

go build -o "$BIN" ./cmd/bft-keygen ./cmd/bft-replica ./cmd/bft-kv ./cmd/bft-top ./cmd/bft-trace

"$BIN/bft-keygen" -replicas 4 -clients 100 -out "$KEYS"

PEERS="0=127.0.0.1:5300,1=127.0.0.1:5301,2=127.0.0.1:5302,3=127.0.0.1:5303,100=127.0.0.1:5400"
TPORTS="7300 7301 7302 7303"

PIDS=""
for id in 0 1 2 3; do
    tport=$((7300 + id))
    "$BIN/bft-replica" -id "$id" -replicas 4 \
        -keys "$KEYS/node-$id.keys" -peers "$PEERS" \
        -telemetry "127.0.0.1:$tport" \
        -flight 4096 -flight-dump "$OUT/flight-$id.bfttrc" \
        >"$OUT/replica-$id.log" 2>&1 &
    PIDS="$PIDS $!"
done

cleanup() {
    for pid in $PIDS; do
        kill "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT INT TERM

# Wait for every telemetry endpoint to come up.
for port in $TPORTS; do
    ok=0
    for _ in $(seq 1 50); do
        if curl -sf "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then
            ok=1
            break
        fi
        sleep 0.2
    done
    if [ "$ok" != 1 ]; then
        echo "telemetry-smoke: FAIL: endpoint :$port never became healthy" >&2
        cat "$OUT"/replica-*.log >&2 || true
        exit 1
    fi
done
echo "telemetry-smoke: all 4 telemetry endpoints healthy"

# Drive operations through the real client path.
OPS=6
i=0
while [ "$i" -lt "$OPS" ]; do
    "$BIN/bft-kv" -id 100 -replicas 4 -keys "$KEYS/node-100.keys" -peers "$PEERS" \
        set "key$i" "value$i" >>"$OUT/client.log" 2>&1
    i=$((i + 1))
done
"$BIN/bft-kv" -id 100 -replicas 4 -keys "$KEYS/node-100.keys" -peers "$PEERS" \
    get key0 >>"$OUT/client.log" 2>&1
echo "telemetry-smoke: $OPS writes + 1 read committed"

# Scrape every endpoint and assert on replica 0's exposition.
for id in 0 1 2 3; do
    curl -sf "http://127.0.0.1:$((7300 + id))/metrics" >"$OUT/metrics-$id.txt"
done
curl -sf "http://127.0.0.1:7300/statusz" >"$OUT/statusz-0.json"

SCRAPE="$OUT/metrics-0.txt"
series=$(grep -c '^bft_' "$SCRAPE")
if [ "$series" -lt 20 ]; then
    echo "telemetry-smoke: FAIL: only $series bft_ series in scrape, want >= 20" >&2
    cat "$SCRAPE" >&2
    exit 1
fi
executed=$(awk '/^bft_engine_executed_requests\{/ {print int($2)}' "$SCRAPE")
if [ -z "$executed" ] || [ "$executed" -lt "$OPS" ]; then
    echo "telemetry-smoke: FAIL: executed_requests=$executed, want >= $OPS" >&2
    exit 1
fi
# Every phase histogram must hold samples, on replica 0 and on replica 1
# (the replica the end-to-end benchmark reads its phase medians from).
for id in 0 1; do
    for phase in prepare commit execute; do
        phase_count=$(awk -v m="bft_phase_${phase}_ns_count{" 'index($0, m) == 1 {print int($2)}' "$OUT/metrics-$id.txt")
        if [ -z "$phase_count" ] || [ "$phase_count" -lt 1 ]; then
            echo "telemetry-smoke: FAIL: replica $id has no bft_phase_${phase}_ns samples" >&2
            exit 1
        fi
    done
done
phase_count=$(awk '/^bft_phase_execute_ns_count\{/ {print int($2)}' "$SCRAPE")
for zero in bft_transport_inbox_drops bft_udp_oversized; do
    v=$(awk -v m="^$zero{" 'index($0, substr(m,2)) == 1 {print int($2)}' "$SCRAPE")
    if [ -n "$v" ] && [ "$v" -ne 0 ]; then
        echo "telemetry-smoke: FAIL: $zero=$v on loopback, want 0" >&2
        exit 1
    fi
done
# The commit flush policy is visible from outside: all six series exist,
# and /statusz carries the same counts.
for name in piggybacked standalone flush_held_read flush_peer_commit flush_window flush_timer; do
    if ! grep -q "^bft_engine_commits_$name{" "$SCRAPE"; then
        echo "telemetry-smoke: FAIL: series bft_engine_commits_$name missing from scrape" >&2
        exit 1
    fi
done
grep -q '"commits": {' "$OUT/statusz-0.json"
grep -q '"role": "replica"' "$OUT/statusz-0.json"
echo "telemetry-smoke: scrape OK ($series series, executed=$executed, phase samples=$phase_count, zero drops)"

# One aggregate bft-top frame over the fleet.
"$BIN/bft-top" -endpoints 127.0.0.1:7300,127.0.0.1:7301,127.0.0.1:7302,127.0.0.1:7303 \
    -interval 300ms -count 2 >"$OUT/bft-top.txt"
grep -q '^TOTAL' "$OUT/bft-top.txt"
grep -q 'replica' "$OUT/bft-top.txt"
echo "telemetry-smoke: bft-top frame OK"
sed -n '$p' "$OUT/bft-top.txt"

# SIGQUIT dumps the flight ring; bft-trace must decode it.
rpid0=$(echo "$PIDS" | awk '{print $1}')
kill -QUIT "$rpid0"
ok=0
for _ in $(seq 1 50); do
    if [ -s "$OUT/flight-0.bfttrc" ]; then
        ok=1
        break
    fi
    sleep 0.2
done
if [ "$ok" != 1 ]; then
    echo "telemetry-smoke: FAIL: SIGQUIT produced no flight dump" >&2
    cat "$OUT/replica-0.log" >&2
    exit 1
fi
"$BIN/bft-trace" -decode "$OUT/flight-0.bfttrc" >"$OUT/flight-0.txt"
if ! [ -s "$OUT/flight-0.txt" ]; then
    echo "telemetry-smoke: FAIL: decoded flight dump is empty" >&2
    exit 1
fi
echo "telemetry-smoke: flight dump decoded ($(wc -l <"$OUT/flight-0.txt") events)"

# Clean SIGTERM shutdown: every replica must exit with status 0.
for pid in $PIDS; do
    kill -TERM "$pid"
done
status=0
for pid in $PIDS; do
    if ! wait "$pid"; then
        status=1
    fi
done
trap - EXIT INT TERM
if [ "$status" != 0 ]; then
    echo "telemetry-smoke: FAIL: a replica exited non-zero on SIGTERM" >&2
    cat "$OUT"/replica-*.log >&2
    exit 1
fi
echo "telemetry-smoke: clean SIGTERM shutdown"
echo "telemetry-smoke: PASS"
