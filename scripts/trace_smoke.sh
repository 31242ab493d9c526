#!/usr/bin/env bash
# End-to-end smoke for the observability stack, run in CI: exports a
# simulator command timeline with pimsim -timeline, replays small
# generated traces through tracerun in both modes, boots pimserve with
# the flight recorder armed, drives traced traffic through it, pulls
# /debug/trace live, and validates every produced artifact against the
# Chrome trace-event schema with tools/tracecheck. Artifacts land in
# $OUT_DIR (default: a temp dir) so CI can upload them.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
out="${OUT_DIR:-$tmp/artifacts}"
mkdir -p "$out"
trap 'rm -rf "$tmp"; [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true' EXIT

go build -o "$tmp/pimsim" ./cmd/pimsim
go build -o "$tmp/pimserve" ./cmd/pimserve
go build -o "$tmp/pimload" ./cmd/pimload
go build -o "$tmp/tracecheck" ./tools/tracecheck
go build -o "$tmp/tracerun" ./cmd/tracerun

# --- Simulator timeline: a functional GEMV's command occupancy.
"$tmp/pimsim" -kernel gemv -m 256 -k 512 -functional \
    -timeline "$out/timeline.json" | tee "$tmp/simout"
grep -q 'verify:   PASS' "$tmp/simout" || { echo "FAIL: traced GEMV did not verify"; exit 1; }
grep -q '^timeline: ' "$tmp/simout" || { echo "FAIL: pimsim reported no timeline"; exit 1; }
# A 256x512 GEMV issues thousands of commands; demand a real timeline,
# not an empty envelope.
"$tmp/tracecheck" -min-events 1000 "$out/timeline.json"

# --- Every functional variant verifies a GEMV of several macro tiles
# against the oracle at its own GRF depth; 2BA's two-bank datapath is
# timing-only and must say so.
for v in base 2x srw; do
    "$tmp/pimsim" -functional -variant "$v" -devices 1 -m 1024 -k 256 | grep 'verify:   PASS' ||
        { echo "FAIL: pimsim -functional -variant $v did not verify"; exit 1; }
done
if "$tmp/pimsim" -functional -variant 2ba -kernel add -n 4096 -devices 1 >"$tmp/2ba" 2>&1 ||
    ! grep -q 'the 2BA variant is timing-only' "$tmp/2ba"; then
    echo "FAIL: functional 2BA ADD was not refused as timing-only"; cat "$tmp/2ba"; exit 1
fi

# --- Trace replay: a seeded transaction trace through the FR-FCFS
# controller, a hand-written command trace re-timed against the device,
# and a command the device must refuse.
python3 -c "import random;random.seed(3);print('\n'.join(('W' if i%5==0 else 'R')+' '+hex(random.randrange(1<<28)) for i in range(2000)))" >"$tmp/txn.txt"
"$tmp/tracerun" -mode txn "$tmp/txn.txt" | tee "$tmp/txnout"
grep -q '^transactions: 1600 reads, 400 writes$' "$tmp/txnout" || { echo "FAIL: tracerun -mode txn"; exit 1; }
printf '%s\n' '# cycle ch CMD bg bank row col' '0 0 ACT 0 0 5 0' '0 0 RD 0 0 5 0' '0 0 RD 0 0 5 1' \
    '0 0 WR 0 0 5 2' '0 0 PRE 0 0 0 0' '0 1 ACT 1 2 7 0' '0 1 RD 1 2 7 3' '0 1 PREA 0 0 0 0' \
    '0 1 REF 0 0 0 0' >"$tmp/cmd.txt"
"$tmp/tracerun" -mode cmd "$tmp/cmd.txt" | tee "$tmp/cmdout"
grep -q '^replayed 9 commands' "$tmp/cmdout" && grep -q '^device: ACT 2, RD 3, WR 1, PRE 2, REF 1,' "$tmp/cmdout" ||
    { echo "FAIL: tracerun -mode cmd"; exit 1; }
echo '0 0 RD 0 0 0 0' >"$tmp/idle.txt"
if "$tmp/tracerun" -mode cmd "$tmp/idle.txt" 2>"$tmp/idleout" || ! grep -q 'RD to idle bank' "$tmp/idleout"; then
    echo "FAIL: tracerun replayed a RD to an idle bank"; cat "$tmp/idleout"; exit 1
fi

# --- Traced serving: boot with the flight recorder armed.
"$tmp/pimserve" -addr 127.0.0.1:0 -shards 1 -channels 2 \
    -trace -trace-dir "$out" -slow-request 1ns \
    >"$tmp/stdout" 2>"$tmp/stderr" &
pid=$!
for _ in $(seq 100); do
    grep -q '^listening on ' "$tmp/stdout" 2>/dev/null && break
    sleep 0.1
done
addr=$(sed -n 's/^listening on //p' "$tmp/stdout")
[ -n "$addr" ] || { echo "FAIL: pimserve never came up"; cat "$tmp/stderr"; exit 1; }
base="http://$addr"
echo "traced pimserve up at $base"

"$tmp/pimload" -url "$base" -model micro-256x256 -requests 8 -conc 2 -bench >"$tmp/load"
grep -q ' 0 rejected 0 timeouts' "$tmp/load" || { echo "FAIL: traced load lost requests"; cat "$tmp/load"; exit 1; }

# Every response must carry a request ID.
rid=$(curl -s -D - -o /dev/null -X POST \
    -d '{"model":"micro-256x256","input":['"$(python3 -c 'print(",".join(["0.125"]*256))')"']}' \
    "$base/v1/infer" | sed -n 's/^X-Request-Id: //Ip' | tr -d '\r')
[ -n "$rid" ] || { echo "FAIL: response missing X-Request-ID"; exit 1; }
echo "ok: X-Request-ID $rid"

# The live flight recorder over HTTP.
curl -sf "$base/debug/trace" >"$out/debug-trace.json"
"$tmp/tracecheck" -min-events 10 "$out/debug-trace.json"

# Access logs are structured JSON with request IDs.
grep -q '"msg":"infer"' "$tmp/stderr" || { echo "FAIL: no structured access log"; cat "$tmp/stderr"; exit 1; }
grep -q "\"req\":\"$rid\"" "$tmp/stderr" || { echo "FAIL: access log missing request $rid"; exit 1; }
echo "ok: structured access logs carry request IDs"

# Graceful shutdown dumps the recorder to -trace-dir.
kill -TERM "$pid"
wait "$pid" || { echo "FAIL: pimserve exited nonzero"; cat "$tmp/stderr"; exit 1; }
unset pid
[ -f "$out/spans.json" ] || { echo "FAIL: no spans.json dumped on shutdown"; exit 1; }
"$tmp/tracecheck" -min-events 10 "$out/spans.json"

# The 1ns slow-request threshold must have dumped at least one tree.
slow=$(ls "$out"/slow-*.json 2>/dev/null | head -1)
[ -n "$slow" ] || { echo "FAIL: no slow-request dump at a 1ns threshold"; exit 1; }
"$tmp/tracecheck" "$out"/slow-*.json

echo "trace artifacts in $out:"
ls -l "$out"
echo "trace smoke passed"
