#!/usr/bin/env bash
# Chaos smoke test: start rtlfixerd under a deterministic fault-injection
# profile (periodic worker and analyzer panics, compile stalls) and
# drive it with loadgen's chaos mode. The gate:
#
#   - the daemon never crashes — every request, malformed or not, gets a
#     well-formed JSON response;
#   - worker panics are isolated into typed 500s and counted, and
#     analyzer panics fire without failing a request;
#   - after a kill -9 mid-traffic, a cold restart still serves correctly;
#   - the fault schedule is deterministic per seed (two daemons, same
#     seed, same single-threaded workload → identical fault counters);
#   - a zero-rate profile changes nothing (byte-identical fix response
#     against a no-fault daemon);
#   - every testdata/hostile/*.v posted to /v1/fix and /v1/lint gets a
#     JSON reply, and /v1/healthz answers 200 after each.
#
# Run from the repo root (CI does; locally: scripts/chaos_smoke.sh).
set -euo pipefail

workdir=$(mktemp -d)
daemon=""
daemon2=""
trap '{ [ -n "$daemon" ] && kill "$daemon" 2>/dev/null; [ -n "$daemon2" ] && kill "$daemon2" 2>/dev/null; } || true; rm -rf "$workdir"' EXIT

profile='worker.panic:0.1;analyze.panic:0.2;compile.stall:0.1:2ms'
fixbody='{"source":"module top_module (\n input [99:0] in,\n output reg [99:0] out\n);\n always @(posedge clk) begin\n  for (int i = 0; i < 100; i = i + 1) begin\n   out[i] <= in[99 - i];\n  end\n end\nendmodule\n","seed":7}'

echo "== building rtlfixerd and loadgen"
go build -o "$workdir/rtlfixerd" ./cmd/rtlfixerd
go build -o "$workdir/loadgen" ./cmd/loadgen

start_daemon() { # $1: log suffix, rest: extra daemon flags
    suffix=$1; shift
    : >"$workdir/daemon.$suffix.out"
    "$workdir/rtlfixerd" -addr 127.0.0.1:0 "$@" \
        >"$workdir/daemon.$suffix.out" 2>"$workdir/daemon.$suffix.err" &
    daemon=$!
    port=""
    for _ in $(seq 1 50); do
        port=$(sed -n 's/^rtlfixerd: listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' "$workdir/daemon.$suffix.out")
        [ -n "$port" ] && break
        sleep 0.1
    done
    if [ -z "$port" ]; then
        echo "FAIL: daemon never reported its port" >&2
        cat "$workdir/daemon.$suffix.err" >&2
        exit 1
    fi
    echo "== daemon up on port $port (pid $daemon, $suffix)"
}

wait_ready() { # polls the last started daemon's /v1/readyz for up to 10 s
    for _ in $(seq 1 100); do
        curl -sf "http://127.0.0.1:$port/v1/readyz" >/dev/null 2>&1 && break
        sleep 0.1
    done
}

stat_of() { # $1: port, $2: jq path
    curl -sf "http://127.0.0.1:$1/v1/stats" | jq -r "$2"
}

echo "== chaos run: daemon under fault profile, loadgen -chaos traffic"
start_daemon chaos -fault-profile "$profile" -fault-seed 7
grep -q "fault injection ACTIVE" "$workdir/daemon.chaos.err" || {
    echo "FAIL: daemon did not log the active fault profile" >&2; exit 1; }

"$workdir/loadgen" -addr "http://127.0.0.1:$port" -n 120 -concurrency 6 -distinct 4 \
    -wait-ready 30s -chaos -max-error-rate 0.35 | tee "$workdir/loadgen.chaos.out"

kill -0 "$daemon" 2>/dev/null || { echo "FAIL: daemon died under chaos" >&2; exit 1; }

echo "== asserting the resilience ledger"
panics=$(stat_of "$port" '.resilience.panics_worker')
fired=$(stat_of "$port" '.faults["worker.panic"].fired')
analyzed=$(stat_of "$port" '.faults["analyze.panic"].fired')
[ "$panics" -gt 0 ] || { echo "FAIL: no worker panics recorded under worker.panic:0.1" >&2; exit 1; }
[ "$panics" = "$fired" ] || { echo "FAIL: panics_worker=$panics != worker.panic fired=$fired" >&2; exit 1; }
# loadgen has already failed the run on any malformed response, so every
# request that rode an analyzer panic was answered well-formed.
[ "$analyzed" -gt 0 ] || { echo "FAIL: analyze.panic never fired under analyze.panic:0.2" >&2; exit 1; }
echo "   worker_panics=$panics (all isolated) analyzer_panics=$analyzed (all absorbed)"

echo "== kill -9 mid-traffic, then cold restart"
"$workdir/loadgen" -addr "http://127.0.0.1:$port" -n 400 -concurrency 4 -distinct 2 \
    >"$workdir/loadgen.killed.out" 2>&1 &
loadpid=$!
sleep 1
kill -9 "$daemon"
daemon=""
wait "$loadpid" 2>/dev/null || true   # transport errors expected: the daemon was murdered
start_daemon restart -fault-profile "$profile" -fault-seed 7
wait_ready
curl -sf -X POST "http://127.0.0.1:$port/v1/fix" -d "$fixbody" | jq -e '.success == true' >/dev/null || {
    echo "FAIL: restarted daemon cannot serve the canonical fix" >&2
    cat "$workdir/daemon.restart.err" >&2; exit 1; }
kill "$daemon"; wait "$daemon" 2>/dev/null || true; daemon=""
echo "   cold restart after kill -9 serves correctly"

echo "== determinism: same seed, same workload => identical fault counters"
start_daemon detA -fault-profile 'worker.panic:0.3;analyze.panic:0.3' -fault-seed 11
portA=$port
daemon2=$daemon # keep detA covered by the trap while detB reuses $daemon
start_daemon detB -fault-profile 'worker.panic:0.3;analyze.panic:0.3' -fault-seed 11
portB=$port
for p in "$portA" "$portB"; do
    "$workdir/loadgen" -addr "http://127.0.0.1:$p" -n 20 -concurrency 1 -distinct 4 \
        -wait-ready 30s >/dev/null
done
curl -sf "http://127.0.0.1:$portA/v1/stats" | jq -S '.faults' >"$workdir/faults.A.json"
curl -sf "http://127.0.0.1:$portB/v1/stats" | jq -S '.faults' >"$workdir/faults.B.json"
cmp "$workdir/faults.A.json" "$workdir/faults.B.json" || {
    echo "FAIL: fault schedules diverged between same-seed daemons" >&2
    diff "$workdir/faults.A.json" "$workdir/faults.B.json" >&2 || true
    exit 1; }
echo "   fault counters identical across same-seed daemons"
kill "$daemon" "$daemon2"
wait "$daemon" 2>/dev/null || true
wait "$daemon2" 2>/dev/null || true
daemon=""; daemon2=""

echo "== zero-rate profile is a no-op (byte-identical canonical response)"
start_daemon nofault
canonport=$port
curl -sf -X POST "http://127.0.0.1:$canonport/v1/fix" -d "$fixbody" \
    | jq -cS 'del(.elapsed_ms, .coalesced)' >"$workdir/fix.nofault.json"
kill "$daemon"; wait "$daemon" 2>/dev/null || true; daemon=""
start_daemon zerorate -fault-profile 'worker.panic:0' -fault-seed 3
curl -sf -X POST "http://127.0.0.1:$port/v1/fix" -d "$fixbody" \
    | jq -cS 'del(.elapsed_ms, .coalesced)' >"$workdir/fix.zerorate.json"
cmp "$workdir/fix.nofault.json" "$workdir/fix.zerorate.json" || {
    echo "FAIL: zero-rate profile perturbed the response" >&2; exit 1; }
kill "$daemon"; wait "$daemon" 2>/dev/null || true; daemon=""
echo "   zero-rate profile byte-identical to no profile"

echo "== hostile inputs: every testdata/hostile/*.v through /v1/fix and /v1/lint"
start_daemon hostile
wait_ready
for f in testdata/hostile/*.v; do
    jq -Rs '{source: .}' "$f" >"$workdir/hostile.json"
    for ep in fix lint; do
        curl -s -X POST "http://127.0.0.1:$port/v1/$ep" --data-binary @"$workdir/hostile.json" \
            | jq -e . >/dev/null || {
            echo "FAIL: /v1/$ep on $f: the reply is not JSON" >&2
            cat "$workdir/daemon.hostile.err" >&2; exit 1; }
        code=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$port/v1/healthz")
        [ "$code" = 200 ] || {
            echo "FAIL: /v1/healthz returned $code after /v1/$ep on $f" >&2
            cat "$workdir/daemon.hostile.err" >&2; exit 1; }
    done
    echo "   $f: fix and lint answered, healthz 200"
done
kill "$daemon"; wait "$daemon" 2>/dev/null || true; daemon=""

echo "PASS: chaos smoke (no crashes, panics isolated, deterministic schedule, hostile inputs answered)"
