#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the stint-serve trace-ingest service.
#
# Records a racy workload trace, starts stint-serve on a kernel-chosen
# port, uploads the trace twice (the second upload replays on the same warm
# Runner the first one dirtied — reuse must not change the report), polls
# both results, and asserts the served race set is byte-identical to an
# offline stint-replay of the same file. Also checks /v1/statusz accounting
# and that SIGTERM drains the service to a clean exit 0.
#
# Usage: scripts/serve_smoke.sh [workload]   (default mmul-racy)
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:-mmul-racy}"
races=64
tmp="$(mktemp -d)"
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "== serve smoke: workload $workload, GOMAXPROCS=${GOMAXPROCS:-default} =="

go build -o "$tmp/stint" ./cmd/stint
go build -o "$tmp/stint-replay" ./cmd/stint-replay
go build -o "$tmp/stint-serve" ./cmd/stint-serve

# Record the trace with detection off — the trace exists to be analyzed.
"$tmp/stint" -workload "$workload" -detector off -trace-out "$tmp/trace.bin" >/dev/null
echo "recorded $(wc -c < "$tmp/trace.bin") trace bytes"

# Offline reference: the race lines stint-replay prints are Race.String(),
# the same canonical form the service returns.
"$tmp/stint-replay" -detector stint -races "$races" "$tmp/trace.bin" > "$tmp/replay.out"
grep '^  race:' "$tmp/replay.out" | sed 's/^  //' | sort > "$tmp/expected.races"
if ! [ -s "$tmp/expected.races" ]; then
    echo "FAIL: offline replay of $workload found no races; smoke needs a racy trace" >&2
    exit 1
fi
echo "offline replay: $(wc -l < "$tmp/expected.races") recorded races"

"$tmp/stint-serve" -addr 127.0.0.1:0 -runners 2 -races "$races" > "$tmp/serve.log" 2>&1 &
server_pid=$!
for _ in $(seq 1 100); do
    grep -q 'listening on' "$tmp/serve.log" 2>/dev/null && break
    kill -0 "$server_pid" 2>/dev/null || { cat "$tmp/serve.log" >&2; exit 1; }
    sleep 0.1
done
base="http://$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$tmp/serve.log" | head -1)"
echo "server at $base"

upload() {
    curl -sf --data-binary @"$tmp/trace.bin" "$base/v1/traces" |
        sed 's/.*"id":"\([^"]*\)".*/\1/'
}

# poll_races ID OUT — wait for a terminal result and write its sorted race
# list to OUT. Race strings contain no embedded quotes, so "," is a safe
# element separator.
poll_races() {
    local id="$1" out="$2" body=""
    for _ in $(seq 1 300); do
        body="$(curl -sf "$base/v1/results/$id")"
        case "$body" in
        *'"status":"done"'*)
            printf '%s' "$body" |
                grep -o '"races":\[[^]]*\]' |
                sed 's/^"races":\[//; s/\]$//; s/","/\n/g' |
                tr -d '"' | sort > "$out"
            return 0 ;;
        *'"status":"error"'*)
            echo "FAIL: result $id errored: $body" >&2
            return 1 ;;
        esac
        sleep 0.1
    done
    echo "FAIL: result $id never completed" >&2
    return 1
}

id1="$(upload)"
poll_races "$id1" "$tmp/served1.races"
id2="$(upload)"
poll_races "$id2" "$tmp/served2.races"

diff -u "$tmp/expected.races" "$tmp/served1.races" || {
    echo "FAIL: served race set diverges from offline stint-replay" >&2; exit 1; }
diff -u "$tmp/served1.races" "$tmp/served2.races" || {
    echo "FAIL: warm-Runner reuse changed the race set between uploads" >&2; exit 1; }
echo "race sets match offline replay across both uploads ($(wc -l < "$tmp/served1.races") races)"

statusz="$(curl -sf "$base/v1/statusz")"
case "$statusz" in
*'"admitted":2'*) : ;;
*) echo "FAIL: statusz did not count 2 admissions: $statusz" >&2; exit 1 ;;
esac
case "$statusz" in
*'"completed":2'*) : ;;
*) echo "FAIL: statusz did not count 2 completions: $statusz" >&2; exit 1 ;;
esac
echo "statusz OK: $statusz"

# Graceful shutdown: SIGTERM must drain and exit 0, not die on the signal.
kill -TERM "$server_pid"
if wait "$server_pid"; then
    echo "SIGTERM: clean exit 0"
else
    echo "FAIL: stint-serve exited $? on SIGTERM" >&2; exit 1
fi
server_pid=""
echo "PASS"
