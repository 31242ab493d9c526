#!/usr/bin/env bash
# End-to-end smoke for model serving with continuous batching, run in CI:
# boots pimserve with the DS2-small LSTM stack resident on a 2-shard
# pool, checks the sequence-path HTTP taxonomy and the /v1/models
# inventory, then pushes mixed-length sequences through the model's
# continuous-batching step loop with full client-side oracle verification — every step of
# every sequence must be bit-identical to the host session, zero wrong
# answers. Complements the in-process tests in internal/serve and
# internal/nn by exercising the actual binaries over TCP.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true' EXIT

go build -o "$tmp/pimserve" ./cmd/pimserve
go build -o "$tmp/pimload" ./cmd/pimload

"$tmp/pimserve" -addr 127.0.0.1:0 -shards 2 -channels 4 \
    -seq-models ds2-small -max-seqlen 32 -timeout 60s \
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

# /v1/models must list the resident stack with its placement split.
expect 200 "models listing" "$base/v1/models"
grep -q '"name":"ds2-small"' "$tmp/body" || { echo "FAIL: ds2-small not listed"; exit 1; }
grep -q '"type":"sequence"' "$tmp/body" || { echo "FAIL: no sequence entry"; exit 1; }
grep -q '"layers":6' "$tmp/body" || { echo "FAIL: wrong layer count"; exit 1; }
# One fused GEMV per LSTM layer plus the output head: L+1 PIM ops, not 2L+1.
grep -q '"pim":7[,}]' "$tmp/body" || { echo "FAIL: ds2-small placement is not 7 PIM ops"; cat "$tmp/body"; echo; exit 1; }

# Sequence-path taxonomy over real HTTP.
expect 404 "unknown seq model" -X POST -d '{"model":"nope","frames":[[1]]}' "$base/v1/infer"
expect 400 "frames to gemv model" -X POST -d '{"model":"micro-256x256","frames":[[1]]}' "$base/v1/infer"
expect 400 "input to seq model" -X POST -d '{"model":"ds2-small","input":[1]}' "$base/v1/infer"
expect 400 "empty frames" -X POST -d '{"model":"ds2-small","frames":[]}' "$base/v1/infer"
python3 -c 'print("{\"model\":\"ds2-small\",\"frames\":[%s]}" % ",".join(["[0.5]"]*64))' >"$tmp/long.json"
expect 400 "over max-seqlen" -X POST --data-binary "@$tmp/long.json" "$base/v1/infer"

# Mixed-length sequences through the continuous-batching step loop, every step
# verified against the host oracle. Zero wrong answers or the smoke fails
# (pimload exits nonzero on any bad output).
"$tmp/pimload" -url "$base" -seq -model ds2-small \
    -seqs 16 -conc 6 -seqlen-dist uniform:4:12 | tee "$tmp/seq"
grep -q ' 0 bad outputs, 0 failures' "$tmp/seq" || { echo "FAIL: sequence run lost or corrupted answers"; exit 1; }
echo "ok: mixed-length sequences bit-exact against the host oracle"

# Sequence metrics must be live.
curl -s "$base/metrics" >"$tmp/body"
for m in serve_seq_admitted_total serve_seq_completed_total serve_seq_steps_total; do
    grep -q "$m" "$tmp/body" || { echo "FAIL: /metrics missing $m"; exit 1; }
done

kill -TERM "$pid"
wait "$pid" || { echo "FAIL: pimserve exited nonzero on SIGTERM"; cat "$tmp/stderr"; exit 1; }
unset pid
grep -q 'drained cleanly' "$tmp/stderr" || { echo "FAIL: no clean drain"; cat "$tmp/stderr"; exit 1; }
echo "ok: graceful shutdown drained cleanly"
echo "model smoke passed"
