GO ?= go

.PHONY: all build vet fmt-check test race bench bench-check benchmark-check fuzz-smoke examples-smoke fp16-exhaustive purego race-goldens serve_bench.txt bench-serve bench-serve-check serve-smoke model-smoke trace-smoke chaos qos-drill slo-drill

all: build vet test

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench measures the simulator's own hot paths (not simulated performance)
# and records ns/op, MB/s and allocs/op in BENCH_gemv.json: the Gemv
# benchmarks of the root package, fp16's BenchmarkMACVecBursts, one PIM
# MAC trigger's datapath work on realistic operands for all 8 units of a
# pseudo channel through one burst-form call, once per path
# (sub-benchmarks portable and simd; one burst kernel call on the simd
# path), pim's BenchmarkTrigger, one
# functional trigger across a pseudo channel's 8 units (MAC from the bank
# on a plain and an ECC device, MAD from the bank, and a WR capture of the
# payload into GRF_A), memctrl's BenchmarkPacket, one timing-only GEMV
# row visit issued as one trigger packet (per pass a WR window, a fence,
# a RD window, a fence), and nn's BenchmarkStepSlots, one ds2-small
# timestep at 1, 2 and 4 occupied slots on the serial and the parallel
# engine (the op of bench/'s seq_closed without the server).
# -p 1: the packages run one after another, so none times the others.
# Record it on a quiet host with AVX + F16C, or the simd row is missing.
# The README's "Simulator performance" table is regenerated from this file.
bench:
	$(GO) test -p 1 -run '^$$' -bench 'Gemv$$|^BenchmarkMACVecBursts$$|^BenchmarkTrigger$$|^BenchmarkPacket$$|^BenchmarkStepSlots$$' -benchmem . ./internal/fp16 ./internal/pim ./internal/memctrl ./internal/nn \
	| $(GO) run ./tools/benchjson -out BENCH_gemv.json

# bench-check re-runs the same benchmarks and fails if any regressed past
# 2.5x the checked-in BENCH_gemv.json baseline (time or bytes/op). The
# factor absorbs machine-to-machine noise; it exists to catch a dropped
# fast path or an allocation blow-up, not percent-level drift. The Gemv
# benchmarks run two iterations each and StepSlots ten; MACVecBursts
# (~0.05-2 us), Trigger (~1-3 us) and Packet (~1-2 us) keep the default
# benchtime (a few iterations would time a cold cache). The fp16 rows run
# under -v so that
# a runner without F16C prints `--- SKIP: BenchmarkMACVecBursts/simd`,
# which benchjson passes over; a portable run is never held against the
# SIMD baseline.
bench-check:
	@{ $(GO) test -run '^$$' -bench 'Gemv$$' -benchtime 2x -benchmem . && \
	   $(GO) test -run '^$$' -bench '^BenchmarkStepSlots$$' -benchtime 10x -benchmem ./internal/nn && \
	   $(GO) test -run '^$$' -bench '^BenchmarkTrigger$$' -benchmem ./internal/pim && \
	   $(GO) test -run '^$$' -bench '^BenchmarkPacket$$' -benchmem ./internal/memctrl && \
	   $(GO) test -v -run '^$$' -bench '^BenchmarkMACVecBursts$$' -benchmem ./internal/fp16; } \
	| $(GO) run ./tools/benchjson -check BENCH_gemv.json

# benchmark-check runs the serving workloads of BENCHMARK.json (bench/)
# and kernels_direct for three seconds each and fails unless every
# operation completed and matched its host oracle bit for bit. bench/ is
# an independent client of internal/serve's exported API, so a serve
# refactor that breaks what the benchmark checks fails here, not in the
# benchmark pipeline; kernels_direct is the only workload that drives ADD,
# MAD, MOV-to-bank and the LSTM cell through the PIM executor.
benchmark-check:
	@for w in gemv_closed seq_closed nano_open kernels_direct; do \
		out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 3 --trace 0 | tail -n 1); \
		echo "$$w $$out"; \
		case "$$out" in *'"correct":true'*'"failed":0'*) ;; \
			*) echo "FAIL: $$w: want correct true and failed 0"; exit 1;; esac; \
	done

# fuzz-smoke fuzzes the PIM executor against the reference interpreter
# (internal/pim: random CRF words, streams of trigger runs and a planted
# fault on every device kind, each run issued as one run on one device and
# command by command on the other, compared after every run) for ten
# seconds, then the runtime's trigger packets (internal/runtime: random
# packets of trigger windows and fences on functional and timing-only
# devices, under refresh, a Delayer and free fences, each issued as one
# packet on one stack and entry by entry on its twin, compared after
# every packet) for ten seconds, then fp16's vector MAC
# and MAD for ten seconds: raw operand bits through the typed forms and
# the burst forms on both paths, every lane against the reference, and
# through the four multi-unit burst forms over 1 and 8 units against the
# typed forms; then
# the ISA's word and text round trips (internal/isa: Decode, Encode,
# Format and Parse on arbitrary words and lines) for ten seconds.
# Then arbitrary POST /v1/infer bodies against one in-process server
# holding a GEMV and a sequence model (internal/serve: the status stays in
# the taxonomy, every body decodes, the queue drains) for ten seconds.
# Then arbitrary -slo objective strings (internal/slo: an accepted
# objective has a positive p99, a finite availability in (0, 1], no
# literal "*" selector, and encodes as JSON) for ten seconds; the SEC-DED
# decoder on arbitrary words and flip positions (internal/ecc: a clean
# word decodes, one flip is corrected, two are caught) for ten seconds;
# arbitrary trace text (internal/trace: Parse never panics, an accepted
# trace re-formats and re-parses to the same events, Validate judges it)
# for ten seconds; arbitrary variant names (internal/hbm: ParseVariant
# never panics, an accepted name's variant parses back from its String and
# builds a valid device) for ten seconds; and arbitrary metric names and
# label values through the Prometheus exposition and back (internal/metrics:
# the strict parser reads every series, its sanitized name, TYPE, label
# values and values back) for ten seconds; and arbitrary -tenant values
# (cmd/pimserve: Set never panics, an accepted lane has a positive weight
# and its String form parses back to the same lane) for ten seconds.
# -fuzzminimizetime 1s: the default minute of minimising would leave the
# ten seconds no executions.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzTriggerDifferential -fuzztime 10s -fuzzminimizetime 1s ./internal/pim
	$(GO) test -run '^$$' -fuzz FuzzTriggerPacket -fuzztime 10s -fuzzminimizetime 1s ./internal/runtime
	$(GO) test -run '^$$' -fuzz FuzzMACVec -fuzztime 10s -fuzzminimizetime 1s ./internal/fp16
	$(GO) test -run '^$$' -fuzz FuzzISARoundTrip -fuzztime 10s -fuzzminimizetime 1s ./internal/isa
	$(GO) test -run '^$$' -fuzz FuzzInferBody -fuzztime 10s -fuzzminimizetime 1s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzParseObjective -fuzztime 10s -fuzzminimizetime 1s ./internal/slo
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/ecc
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 1s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzParseVariant -fuzztime 10s -fuzzminimizetime 1s ./internal/hbm
	$(GO) test -run '^$$' -fuzz FuzzPrometheusRoundTrip -fuzztime 10s -fuzzminimizetime 1s ./internal/metrics
	$(GO) test -run '^$$' -fuzz FuzzTenantFlag -fuzztime 10s -fuzzminimizetime 1s ./cmd/pimserve

# examples-smoke builds every examples/* main and runs it under a 60 s
# timeout; a nonzero exit or a timeout fails the target, and only a
# failing example's output is printed. Each takes well under a second.
# Then cmd/pimasm's two round trips must reprint `pimasm -example`'s
# listing exactly: its CRF words through `pimasm -d`, and its instruction
# text through the assembler on stdin; any diff fails the target. Last,
# the mains that print the simulator's tables and metrics must exit 0:
# `pimbench -exp all`, and `pimsim` with a command trace and a JSON
# snapshot, then functional with a Prometheus snapshot.
examples-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for ex in examples/*/; do \
		name=$$(basename $$ex); \
		$(GO) build -o "$$dir/$$name" ./$$ex || exit 1; \
		start=$$(date +%s%N); \
		if ! timeout 60 "$$dir/$$name" > "$$dir/out" 2>&1; then \
			cat "$$dir/out"; echo "FAIL: examples/$$name"; exit 1; fi; \
		echo "examples/$$name ok ($$(( ($$(date +%s%N) - start) / 1000000 )) ms)"; \
	done; \
	$(GO) build -o "$$dir/pimasm" ./cmd/pimasm || exit 1; \
	"$$dir/pimasm" -example > "$$dir/listing" || exit 1; \
	sed -E 's/^CRF\[ ?[0-9]+\]  //' "$$dir/listing" > "$$dir/body"; \
	"$$dir/pimasm" -d $$(cut -d' ' -f1 "$$dir/body") | diff "$$dir/listing" - \
		|| { echo "FAIL: pimasm -d does not reprint the -example listing"; exit 1; }; \
	sed -E 's/^[^ ]+  //' "$$dir/body" | "$$dir/pimasm" | diff "$$dir/listing" - \
		|| { echo "FAIL: pimasm does not reassemble the -example listing"; exit 1; }; \
	echo "cmd/pimasm round trips ok ($$(wc -l < "$$dir/listing") instructions)"; \
	$(GO) build -o "$$dir/pimbench" ./cmd/pimbench || exit 1; \
	$(GO) build -o "$$dir/pimsim" ./cmd/pimsim || exit 1; \
	for run in "pimbench -exp all" "pimsim -trace 64 -metrics-out -" \
		"pimsim -functional -m 256 -k 256 -metrics-out - -metrics-format prom"; do \
		if ! timeout 60 "$$dir/"$$run > "$$dir/out" 2>&1; then \
			cat "$$dir/out"; echo "FAIL: $$run"; exit 1; fi; \
		echo "$$run ok"; \
	done

# fp16-exhaustive runs the 2^32-pair equivalence tests of the FP16 MAC's
# two rounding stages against the reference arithmetic: the fused portable
# kernel lane by lane, then the SIMD burst kernels through the burst forms
# over 8 units (skipped where the CPU has none). About three minutes on two
# cores. `go test ./...` runs them too; `go test -short ./...` skips them
# and is the quick loop.
fp16-exhaustive:
	$(GO) test -count=1 -run 'Exhaustive' ./internal/fp16

# purego builds the fp16 package without its amd64 assembly and runs the
# kernels' tests and every golden that depends on them on the portable
# path, the one a CI runner with F16C never selects by itself, and the
# column-run tests (memctrl's trigger and register/bank runs against single
# commands, hbm's closed-form run cycles against the brute-force oracle,
# pim's differential over runs). Every alternative of the -run pattern
# must select a test (scripts/test_selection.sh), so a renamed test cannot
# drop out of the target unnoticed.
PUREGO_PKGS = ./internal/fp16 ./internal/hbm ./internal/pim ./internal/memctrl ./internal/blas ./internal/nn .
PUREGO_RUN = Golden|MAC|MAD|Vec|Gemv|Microkernel|Step|Differential|Uncorrectable|ZeroAlloc|ReadBanks|FailedRead|FailedWrite|Burst|ImportState|FromFloat64|RegisterSpace|Splats|IssueRun|RunMatches
purego:
	$(GO) vet -tags purego ./internal/fp16
	GO=$(GO) bash scripts/test_selection.sh -tags purego '$(PUREGO_RUN)' $(PUREGO_PKGS)
	$(GO) test -tags purego -short $(PUREGO_PKGS) -run '$(PUREGO_RUN)'

# race-goldens proves engine determinism under the race detector: serial
# vs parallel per-pCH execution, GOMAXPROCS 1/2/N, with tracing and fault
# injection armed, must be bit-for-bit identical (see DESIGN.md). It also
# runs the full-budget aggregate fuzz under -race: the O(1) timing
# aggregates must agree with the test-side all-bank scan (earliestBrute,
# in internal/hbm's tests) on every verdict across 10k fuzzed command
# streams. Both -run patterns must select a test (scripts/test_selection.sh).
race-goldens:
	GO=$(GO) bash scripts/test_selection.sh 'TestGolden' .
	GO=$(GO) bash scripts/test_selection.sh 'TestAggregateEarliestMatchesBruteForce' ./internal/hbm/
	$(GO) test -race -count=2 -run 'TestGolden' .
	$(GO) test -race -run 'TestAggregateEarliestMatchesBruteForce' ./internal/hbm/

# serve_bench.txt is one run of both serving A/Bs through cmd/pimload (the
# one driver of internal/loadgen on its GEMV and its sequence source): the
# GEMV batching A/B (dynamic batching vs batch-size-1) and the sequence
# A/B (continuous batching vs one-sequence-at-a-time on the same pool);
# both baselines are serve.Config.MaxBatch=1. The run fails if either gain
# drops below 2x, or if the batched run violates the (generous) SLO gate —
# the machine-readable verdict line documents the margin either way.
# Phony, so a file left by an earlier run is never trusted, and made once
# per invocation: `make bench-serve-check bench-serve` (CI) gates and
# records the same run.
serve_bench.txt:
	$(GO) run ./cmd/pimload -compare -bench -requests 192 -conc 8 -min-gain 2 \
	    -slo 'p99=500ms,avail=0.99' > $@
	$(GO) run ./cmd/pimload -seq -compare -bench -model ds2-small \
	    -seqs 24 -conc 8 -seqlen-dist uniform:8:16 -verify=false -min-gain 2 >> $@

# bench-serve records the A/Bs' throughput, latency quantiles and gains in
# BENCH_serve.json. The README's "Serving" tables are regenerated from
# this file.
bench-serve: serve_bench.txt
	$(GO) run ./tools/benchjson -out BENCH_serve.json < serve_bench.txt

# bench-serve-check fails if throughput (req/s, seq/s), a latency quantile
# (*_us) or ns/op regressed past 2.5x the checked-in BENCH_serve.json
# baseline. Rates gate downward, latencies upward; counts and gain factors
# are not gated here (each gain has its own hard -min-gain floor inside
# cmd/pimload). Both A/Bs must have run: benchjson -check fails on
# baseline entries missing from the run. Listed before bench-serve it
# checks against the baseline that bench-serve then overwrites.
bench-serve-check: serve_bench.txt
	$(GO) run ./tools/benchjson -check BENCH_serve.json < serve_bench.txt

# serve-smoke boots the real pimserve binary on a random port and checks
# the HTTP taxonomy, backpressure and graceful shutdown over TCP.
serve-smoke:
	bash scripts/serve_smoke.sh

# model-smoke boots pimserve with the DS2-small LSTM stack resident on a
# 2-shard pool and drives mixed-length sequences through the continuous
# batcher over TCP, every step verified against the host oracle — zero
# wrong answers or the smoke fails. Also checks the sequence HTTP
# taxonomy and the /v1/models inventory.
model-smoke:
	bash scripts/model_smoke.sh

# trace-smoke exercises the observability stack end to end: pimsim
# -functional verifying a multi-tile GEMV on every functional variant, a
# pimsim -timeline export, cmd/tracerun replaying a generated transaction
# trace and a command trace (and refusing an illegal command), a traced
# pimserve under load (live /debug/trace,
# X-Request-ID, structured access logs, spans.json and slow-request
# dumps), with every artifact schema-validated by tools/tracecheck.
# Set OUT_DIR to keep the artifacts (CI uploads them).
trace-smoke:
	bash scripts/trace_smoke.sh

# chaos runs the three-phase fault drill from docs/FAULTS.md against both
# profiles: fault-free ECC-on baseline, verified load under injection
# (zero wrong answers or the drill fails), post-recovery throughput floor
# against baseline. Deterministic: same seed, same fault pattern. The
# hard profile keeps injecting heavy spikes, flips and occasional
# uncorrectables after the outage revives, so its floor is lower — the
# continuing faults are the environment, not a recovery failure.
chaos:
	$(GO) run ./cmd/pimload -chaos -fault-profile chaos-mild -fault-seed 42 -requests 96 -conc 8
	$(GO) run ./cmd/pimload -chaos -fault-profile chaos-hard -fault-seed 42 -requests 96 -conc 8 -max-err-frac 0.6 -recover-frac 0.75

# qos-drill proves the multi-tenant admission-control story from
# docs/SERVING.md: the QoS unit tests (exact WFQ shares, priority
# displacement, EDF expiry, hedged dispatch) under the race detector,
# then the four-scenario matrix (overload / bursty / mixed-priority /
# slow-tenant) through cmd/pimload against live in-process servers —
# every admission count pinned exactly, per-tenant quantiles written to
# qos_tenants.json (CI uploads it).
qos-drill:
	$(GO) test -race -count=1 -run 'QoS|FairQueue|Tenant|DeadlineExpired|Hedged' ./internal/serve
	$(GO) run ./cmd/pimload -qos -scenario all -out qos_tenants.json

# slo-drill proves the SLO story from docs/SLO.md deterministically and
# under the race detector: the windowed-metrics layer (ring rotation,
# fake clocks, Prometheus round-trip), the burn-rate state machine and
# exemplar ring, the fake-clock burn/recover drill matrix, and the
# closed hedge-delay control loop end to end through internal/serve.
# Then scripts/slo_drill.sh boots a real pimserve with objectives armed,
# drives load, and writes the live /debug/ops document to slo_ops.json
# (CI uploads it) after asserting it is well-formed.
slo-drill:
	$(GO) test -race -count=1 ./internal/metrics ./internal/slo
	$(GO) test -race -count=1 -run 'SLO|DebugOps|DebugSlow|Window' ./internal/serve
	bash scripts/slo_drill.sh slo_ops.json
