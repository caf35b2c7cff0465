#!/usr/bin/env bash
# Server smoke test: start rtlfixerd on a random port, drive /v1/fix and
# /v1/stats through loadgen, drain on SIGTERM — then restart the daemon
# and assert the fresh process answers byte-identically to the first run
# (timing fields aside) and serves the replayed workload. Along the way
# it exercises the
# observability plane: /metrics must parse as Prometheus exposition with
# nonzero request counters, /v1/trace must return a span tree covering
# compile and sim for a served fix, and a pprof endpoint must answer.
# Run from the repo root (CI does; locally: scripts/server_smoke.sh).
set -euo pipefail

workdir=$(mktemp -d)
daemon=""
trap '{ [ -n "$daemon" ] && kill "$daemon" 2>/dev/null; } || true; rm -rf "$workdir"' EXIT

fixbody='{"source":"module top_module (\n input [99:0] in,\n output reg [99:0] out\n);\n always @(posedge clk) begin\n  for (int i = 0; i < 100; i = i + 1) begin\n   out[i] <= in[99 - i];\n  end\n end\nendmodule\n","seed":7}'

echo "== building rtlfixerd and loadgen"
go build -o "$workdir/rtlfixerd" ./cmd/rtlfixerd
go build -o "$workdir/loadgen" ./cmd/loadgen

start_daemon() { # $1: log suffix
    : >"$workdir/daemon.out"
    "$workdir/rtlfixerd" -addr 127.0.0.1:0 -pprof \
        >"$workdir/daemon.out" 2>"$workdir/daemon.$1.err" &
    daemon=$!
    port=""
    for _ in $(seq 1 50); do
        port=$(sed -n 's/^rtlfixerd: listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' "$workdir/daemon.out")
        [ -n "$port" ] && break
        sleep 0.1
    done
    if [ -z "$port" ]; then
        echo "FAIL: daemon never reported its port" >&2
        cat "$workdir/daemon.$1.err" >&2
        kill "$daemon" 2>/dev/null || true
        exit 1
    fi
    echo "== daemon up on port $port (pid $daemon)"
}

stop_daemon() { # $1: log suffix
    kill -TERM "$daemon"
    status=0
    wait "$daemon" || status=$?
    daemon=""
    if [ "$status" -ne 0 ]; then
        echo "FAIL: daemon exited $status after SIGTERM" >&2
        cat "$workdir/daemon.$1.err" >&2
        exit 1
    fi
    grep -q "drained cleanly" "$workdir/daemon.$1.err" || {
        echo "FAIL: daemon log does not report a clean drain" >&2
        cat "$workdir/daemon.$1.err" >&2
        exit 1
    }
}

# canonical_fix captures one deterministic /v1/fix response with the
# timing/coalescing fields stripped (they legitimately vary run to run;
# everything else must be byte-identical across a restart).
canonical_fix() { # $1: output file
    curl -sf -X POST "http://127.0.0.1:$port/v1/fix" -d "$fixbody" \
        | jq -cS 'del(.elapsed_ms, .coalesced)' >"$1"
}

echo "== first start: driving /v1/fix (coalescing herd) and /v1/stats via loadgen"
start_daemon first
canonical_fix "$workdir/fix.first.json"
"$workdir/loadgen" -addr "http://127.0.0.1:$port" -n 20 -concurrency 4 -distinct 1 \
    -show-stats | tee "$workdir/loadgen.out"

echo "== checking the stats the run produced"
grep -q '"agent_runs"' "$workdir/loadgen.out" || { echo "FAIL: stats missing agent_runs" >&2; exit 1; }
grep -q '"latency_fix_ms"' "$workdir/loadgen.out" || { echo "FAIL: stats missing latency histogram" >&2; exit 1; }

echo "== scraping /metrics (Prometheus exposition)"
curl -sf "http://127.0.0.1:$port/metrics" >"$workdir/metrics.prom"
types=$(grep -c '^# TYPE rtlfixer_' "$workdir/metrics.prom")
if [ "$types" -lt 10 ]; then
    echo "FAIL: only $types # TYPE lines in /metrics" >&2
    cat "$workdir/metrics.prom" >&2
    exit 1
fi
grep -Eq '^rtlfixer_fix_requests_total [1-9][0-9]*$' "$workdir/metrics.prom" || {
    echo "FAIL: fix_requests_total missing or zero after the load run" >&2
    grep fix_requests "$workdir/metrics.prom" >&2 || true
    exit 1
}
grep -q 'rtlfixer_stage_duration_ms_bucket{stage="compile",le="+Inf"}' "$workdir/metrics.prom" || {
    echo "FAIL: per-stage histogram missing the compile stage" >&2; exit 1; }
echo "== /metrics ok ($types families)"

echo "== fetching a request trace for a served fix"
# Coalesced followers' traces carry only admission+wait; the leader's
# trace (the one with the most spans) holds the shared run subtree.
fix_trace=$(curl -sf "http://127.0.0.1:$port/v1/trace" \
    | jq -r '.traces | map(select(.root == "fix")) | max_by(.spans) | .id')
if [ -z "$fix_trace" ] || [ "$fix_trace" = "null" ]; then
    echo "FAIL: no fix trace retained after the load run" >&2
    exit 1
fi
spans=$(curl -sf "http://127.0.0.1:$port/v1/trace/$fix_trace" \
    | jq -r '[.root | recurse(.children[]?) | .name] | join(" ")')
echo "== trace $fix_trace spans: $spans"
for stage in fix run agent compile sim; do
    case " $spans " in
    *" $stage "*) ;;
    *) echo "FAIL: trace $fix_trace missing a $stage span ($spans)" >&2; exit 1 ;;
    esac
done

echo "== hitting a pprof endpoint"
curl -sf "http://127.0.0.1:$port/debug/pprof/cmdline" >/dev/null || {
    echo "FAIL: pprof endpoint not serving" >&2; exit 1; }

echo "== sending SIGTERM and waiting for graceful drain"
stop_daemon first

echo "== restart"
start_daemon restart
# A fresh process starts with empty caches and must answer the same
# request byte-identically to the first run.
canonical_fix "$workdir/fix.restart.json"
if ! cmp -s "$workdir/fix.first.json" "$workdir/fix.restart.json"; then
    echo "FAIL: response after restart differs from the first run" >&2
    diff "$workdir/fix.first.json" "$workdir/fix.restart.json" >&2 || true
    exit 1
fi
# Replay the whole workload; the first-N split line must appear.
"$workdir/loadgen" -addr "http://127.0.0.1:$port" -n 20 -concurrency 4 -distinct 1 \
    | tee "$workdir/loadgen.restart.out"
grep -q "first .* requests" "$workdir/loadgen.restart.out" || {
    echo "FAIL: loadgen first-N split line missing" >&2; exit 1; }
stop_daemon restart

echo "== OK: serve, metrics+trace+pprof, clean drain, restart (byte-identical responses)"
