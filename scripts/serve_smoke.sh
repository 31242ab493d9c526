#!/usr/bin/env bash
# End-to-end smoke for the serving stack, run in CI: boots pimserve on a
# random port, checks the response taxonomy (200/400/429) over real HTTP,
# pushes ~100 concurrent verified requests through the step loop's batching,
# and asserts a clean graceful shutdown. Complements the in-process tests
# in internal/serve by exercising the actual binaries over TCP.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true' EXIT

go build -o "$tmp/pimserve" ./cmd/pimserve
go build -o "$tmp/pimload" ./cmd/pimload
go build -o "$tmp/pimtop" ./cmd/pimtop

"$tmp/pimserve" -addr 127.0.0.1:0 -shards 1 -channels 2 -queue-depth 32 \
    >"$tmp/stdout" 2>"$tmp/stderr" &
pid=$!

for _ in $(seq 100); do
    grep -q '^listening on ' "$tmp/stdout" 2>/dev/null && break
    sleep 0.1
done
addr=$(sed -n 's/^listening on //p' "$tmp/stdout")
[ -n "$addr" ] || { echo "pimserve never came up"; cat "$tmp/stderr"; exit 1; }
base="http://$addr"
echo "pimserve up at $base"

code() { curl -s -o "$tmp/body" -w '%{http_code}' "$@"; }
expect() { # expect <want-code> <name> <curl args...>
    want=$1; name=$2; shift 2
    got=$(code "$@")
    if [ "$got" != "$want" ]; then
        echo "FAIL: $name: got $got, want $want"; cat "$tmp/body"; echo; exit 1
    fi
    echo "ok: $name -> $got"
}

expect 200 "healthz" "$base/healthz"
expect 400 "malformed json" -X POST -d '{"model": "tiny", "input": [' "$base/v1/infer"
expect 404 "unknown model" -X POST -d '{"model":"nope","input":[1,2]}' "$base/v1/infer"
expect 200 "models listing" "$base/v1/models"
grep -q '"type":"gemv"' "$tmp/body" || { echo "FAIL: /v1/models missing gemv entries"; exit 1; }
expect 400 "wrong input shape" -X POST -d '{"model":"micro-256x256","input":[1,2,3]}' "$base/v1/infer"
python3 -c 'print("{\"model\":\"micro-256x256\",\"input\":[%s]}" % ",".join(["0.125"]*3000000))' >"$tmp/huge.json"
expect 400 "oversized body" -X POST --data-binary "@$tmp/huge.json" "$base/v1/infer"
expect 405 "GET infer" "$base/v1/infer"
expect 200 "metrics" "$base/metrics"
grep -q serve_batch_size "$tmp/body" || { echo "FAIL: /metrics missing serve_batch_size"; exit 1; }

# The ops surface is always on: /debug/ops must be well-formed JSON with
# the windowed view and shard health (no slo section without -slo).
expect 200 "debug ops" "$base/debug/ops"
python3 - "$tmp/body" <<'EOF'
import json, sys
ops = json.load(open(sys.argv[1]))
assert "window" in ops and "wall_p99_us" in ops["window"], "ops missing window section"
assert ops["shards_healthy"] == ops["shards"] == 1, f"ops shard health wrong: {ops}"
assert "slo" not in ops, "slo section present without -slo"
EOF
echo "ok: /debug/ops well-formed"
expect 404 "debug slow without slo" "$base/debug/slow"

# pimtop -once renders a frame from the live endpoints and exits zero.
"$tmp/pimtop" -url "$base" -once > "$tmp/frame"
grep -q 'shards 1/1 healthy' "$tmp/frame" || {
    echo "FAIL: pimtop frame missing shard health"; cat "$tmp/frame"; exit 1; }
grep -q 'totals' "$tmp/frame" || {
    echo "FAIL: pimtop frame missing totals"; cat "$tmp/frame"; exit 1; }
echo "ok: pimtop -once renders"

# ~100 concurrent verified requests, batched by the model's step loop.
"$tmp/pimload" -url "$base" -model micro-256x256 -requests 104 -conc 13 -bench | tee "$tmp/closed"
grep -q ' 0 rejected 0 timeouts' "$tmp/closed" || { echo "FAIL: closed loop lost requests"; exit 1; }

# Open-loop blast at far beyond service rate (many times what one shard
# serves): the 32-deep queue must shed load as 429s while every accepted
# request still completes.
"$tmp/pimload" -url "$base" -model micro-256x256 -mode open -rate 40000 -requests 1000 -bench | tee "$tmp/open"
if grep -q ' 0 rejected' "$tmp/open"; then
    echo "FAIL: overload produced no 429 backpressure"; exit 1
fi
echo "ok: backpressure sheds load with 429"

kill -TERM "$pid"
wait "$pid" || { echo "FAIL: pimserve exited nonzero on SIGTERM"; cat "$tmp/stderr"; exit 1; }
unset pid
grep -q 'drained cleanly' "$tmp/stderr" || { echo "FAIL: no clean drain"; cat "$tmp/stderr"; exit 1; }
echo "ok: graceful shutdown drained cleanly"
echo "serve smoke passed"
