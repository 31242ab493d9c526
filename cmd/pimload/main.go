// pimload is the load generator for pimserve. It drives a serve endpoint
// (or an in-process server it boots itself) with a closed- or open-loop
// arrival process, verifies outputs against the software oracle, and
// reports throughput, latency quantiles (wall and simulated device
// cycles), batch-size histograms and queue depth.
//
// With -bench it also emits `go test -bench`-shaped result lines, so the
// output pipes straight into tools/benchjson:
//
//	pimload -compare -bench | go run ./tools/benchjson -out BENCH_serve.json
//
// -seq drives a sequence model's continuous-batching path with multi-step
// LSTM sequences instead of single GEMV inputs: lengths come from
// -seqlen-dist ("fixed:N" or "uniform:A:B"), outputs are verified step by
// step against the host-session oracle. Everything else is the same run.
//
// -compare runs the batching A/B the paper's serving story rests on: the
// same pool once with a device launch carrying up to one request per
// channel (dynamic batching; with -seq, continuous batching) and once
// pinned to one request per launch (serve.Config.MaxBatch 1), and prints
// the simulated-device throughput gain.
//
// -chaos runs the three-phase fault drill from docs/FAULTS.md: a
// fault-free ECC-on baseline, a verified run under an injected fault
// profile (zero wrong answers or the drill fails), and a post-recovery
// run that must reach -recover-frac of the baseline throughput.
//
// -qos runs the four-scenario admission-control matrix from
// docs/SERVING.md (overload, bursty, mixed-priority, slow-tenant), each
// with pinned per-tenant assertions; -out writes the per-tenant
// quantile rows as JSON (the qos_tenants.json CI artifact):
//
//	pimload -qos -scenario all -out qos_tenants.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"pimsim/internal/loadgen"
	"pimsim/internal/models"
	"pimsim/internal/serve"
	"pimsim/internal/slo"
)

func ctxTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

func decodeJSON(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

// driver runs the configured load against a server at url.
type driver func(url string) (*loadgen.Report, error)

func main() {
	var (
		url     = flag.String("url", "", "target pimserve base URL (empty: boot an in-process server)")
		model   = flag.String("model", "", "model to drive (default micro-256x256; with -seq, ds2-small)")
		mode    = flag.String("mode", "closed", "arrival process: closed or open")
		conc    = flag.Int("conc", 8, "closed-loop in-flight requests / open-loop senders")
		reqs    = flag.Int("requests", 256, "total requests")
		rate    = flag.Float64("rate", 0, "open-loop arrival rate (req/s)")
		verify  = flag.Bool("verify", true, "check outputs against the software oracle")
		bench   = flag.Bool("bench", false, "emit go-bench result lines for tools/benchjson")
		compare = flag.Bool("compare", false, "in-process A/B: one request per channel per launch vs one per launch")
		minGain = flag.Float64("min-gain", 0, "with -compare: exit nonzero if the batching gain is below this")

		shards     = flag.Int("shards", 2, "in-process server: shards")
		channels   = flag.Int("channels", 4, "in-process server: channels per shard")
		batchWait  = flag.Duration("batch-wait", 2*time.Millisecond, "in-process server: how long a GEMV step waits for company")
		queueDepth = flag.Int("queue-depth", 64, "in-process server: admission queue depth")

		seq     = flag.Bool("seq", false, "sequence mode: drive continuous batching with multi-step LSTM sequences")
		seqDist = flag.String("seqlen-dist", "uniform:8:24", "with -seq: per-sequence frame counts, fixed:N or uniform:A:B")
		seqs    = flag.Int("seqs", 64, "with -seq: total sequences")
		seqEOS  = flag.Int("eos", -1, "with -seq: EOS class for early retirement (<0 disables)")
		seed    = flag.Int64("seed", 1, "with -seq/-qos: workload RNG seed")

		qos      = flag.Bool("qos", false, "run the QoS scenario matrix with pinned admission/fairness assertions")
		scenario = flag.String("scenario", "all", "with -qos: one scenario name, or \"all\" (overload, bursty, mixed-priority, slow-tenant)")
		out      = flag.String("out", "", "with -qos: write the per-tenant quantile report JSON here (e.g. qos_tenants.json)")

		sloSpec = flag.String("slo", "", "gate the run on an SLO, p99=<dur>[,avail=<pct>] (e.g. p99=50ms,avail=0.99): print a machine-readable verdict line and exit nonzero on violation")

		chaos       = flag.Bool("chaos", false, "run the three-phase fault drill (baseline / chaos / recovery)")
		profile     = flag.String("fault-profile", "chaos-mild", "with -chaos: fault profile to inject")
		faultSeed   = flag.Int64("fault-seed", 42, "with -chaos: injector seed")
		recoverFrac = flag.Float64("recover-frac", 0.9, "with -chaos: post-recovery throughput floor (fraction of baseline)")
		maxErrFrac  = flag.Float64("max-err-frac", 0.5, "with -chaos: tolerated non-OK fraction under fire")
	)
	flag.Parse()

	var sloObj *slo.Objective
	if *sloSpec != "" {
		o, err := slo.ParseObjective(*sloSpec)
		if err != nil {
			log.Fatalf("pimload: -slo: %v", err)
		}
		sloObj = &o
	}

	if *compare && *url != "" {
		log.Fatal("pimload: -compare boots its own servers; drop -url")
	}
	if *qos {
		if *url != "" || *compare || *chaos || *seq {
			log.Fatal("pimload: -qos boots its own servers; drop -url/-compare/-chaos/-seq")
		}
		if err := runQoS(*scenario, *seed, *out); err != nil {
			log.Fatalf("pimload: %v", err)
		}
		return
	}

	// The workload: which models an in-process server loads, what the
	// driver sends, and how a -bench line reads. -seq switches all three.
	srvCfg := func(maxBatch int) serve.Config {
		return serve.Config{
			Shards: *shards, Channels: *channels, MaxBatch: maxBatch,
			BatchWait: *batchWait, QueueDepth: *queueDepth,
		}
	}
	drive := driver(func(url string) (*loadgen.Report, error) {
		name := *model
		if name == "" {
			name = "micro-256x256"
		}
		spec, err := discoverModel(url, name)
		if err != nil {
			return nil, err
		}
		return loadgen.Run(loadgen.Config{
			BaseURL: url, Source: loadgen.GemvSource(spec, *conc, *verify),
			Mode: *mode, Concurrency: *conc, Requests: *reqs, RatePerSec: *rate,
		})
	})
	printBench, family, tags := printGemvBench, "BenchmarkServe", [2]string{"dynamic", "batch1"}
	if *seq {
		if *chaos {
			log.Fatal("pimload: -seq and -chaos are separate drills")
		}
		name := *model
		if name == "" {
			name = "ds2-small"
		}
		mc, ok := models.ServingConfigByName(name)
		if !ok {
			log.Fatalf("pimload: unknown sequence model %q (run pimserve -seq-models all and see GET /v1/models)", name)
		}
		dist, err := loadgen.ParseSeqLenDist(*seqDist)
		if err != nil {
			log.Fatalf("pimload: %v", err)
		}
		src, err := loadgen.SeqSource(mc, *seqs, dist, *seqEOS, *seed, *verify)
		if err != nil {
			log.Fatalf("pimload: %v", err)
		}
		srvCfg = func(maxBatch int) serve.Config {
			return serve.Config{
				Shards: *shards, Channels: *channels, MaxBatch: maxBatch, QueueDepth: *queueDepth,
				SeqModels:      []models.Config{mc},
				RequestTimeout: 60 * time.Second,
			}
		}
		drive = func(url string) (*loadgen.Report, error) {
			return loadgen.Run(loadgen.Config{BaseURL: url, Source: src, Concurrency: *conc, Requests: *seqs})
		}
		printBench, family, tags = printSeqBench, "BenchmarkServeSeq", [2]string{"continuous", "sequential"}
	}

	if *chaos {
		if *url != "" || *compare {
			log.Fatal("pimload: -chaos boots its own servers; drop -url/-compare")
		}
		o := chaosOpts{
			profile: *profile, seed: *faultSeed, reqs: *reqs,
			recoverFrac: *recoverFrac, maxErrFrac: *maxErrFrac,
		}
		if err := runChaos(o, srvCfg(0), drive); err != nil {
			log.Fatalf("pimload: %v", err)
		}
		return
	}

	if *compare {
		batched, err := runAgainst(srvCfg(0), drive)
		if err != nil {
			log.Fatalf("pimload: %s run: %v", tags[0], err)
		}
		serial, err := runAgainst(srvCfg(1), drive)
		if err != nil {
			log.Fatalf("pimload: %s run: %v", tags[1], err)
		}
		gain := 0.0
		if serial.SimThroughputRPS > 0 {
			gain = batched.SimThroughputRPS / serial.SimThroughputRPS
		}
		if *bench {
			printBench(family, tags[0], batched)
			printBench(family, tags[1], serial)
			fmt.Printf("%s/gain-1 1 0 ns/op %.3f x_gain\n", family, gain)
		} else {
			fmt.Printf("%s (max batch %d):\n%s", tags[0], *channels, batched)
			fmt.Printf("%s (max batch 1):\n%s", tags[1], serial)
			fmt.Printf("simulated-device throughput gain: %.2fx\n", gain)
		}
		if *minGain > 0 && gain < *minGain {
			log.Fatalf("pimload: batching gain %.2fx below required %.2fx", gain, *minGain)
		}
		// The SLO gate judges the production configuration (batching
		// on), not the one-at-a-time baseline.
		if !checkSLO(sloObj, batched) {
			os.Exit(1)
		}
		return
	}

	var rep *loadgen.Report
	var err error
	if *url == "" {
		rep, err = runAgainst(srvCfg(0), drive)
	} else {
		rep, err = drive(*url)
	}
	if err != nil {
		log.Fatalf("pimload: %v", err)
	}
	if *bench {
		printBench(family, *mode, rep)
	} else {
		fmt.Print(rep)
	}
	sloOK := checkSLO(sloObj, rep)
	if rep.Failures > 0 || rep.BadOutputs > 0 || !sloOK {
		os.Exit(1)
	}
}

// checkSLO prints one machine-readable verdict line and reports whether
// the run met the objective. The line is not go-bench shaped, so it
// passes through tools/benchjson untouched. Availability counts every
// sent request; a rejected or timed-out request spends budget exactly
// like the serving layer's own accounting.
func checkSLO(o *slo.Objective, r *loadgen.Report) bool {
	if o == nil {
		return true
	}
	avail := 0.0
	if r.Sent > 0 {
		avail = float64(r.OK) / float64(r.Sent)
	}
	p99 := time.Duration(r.WallP99Us) * time.Microsecond
	ok := p99 <= o.LatencyP99 && avail >= o.Availability
	verdict := "pass"
	if !ok {
		verdict = "fail"
	}
	fmt.Printf("SLO verdict=%s model=%s p99_us=%.0f p99_target_us=%d avail=%.4f avail_target=%.4f sent=%d ok=%d\n",
		verdict, r.Model, r.WallP99Us, o.LatencyP99.Microseconds(), avail, o.Availability, r.Sent, r.OK)
	return ok
}

// serveInProcess boots a server with cfg behind a loopback listener and
// returns its URL and a stop function that shuts it down gracefully (a
// zero-drop drain is part of every run).
func serveInProcess(cfg serve.Config) (url string, stop func(), err error) {
	s, err := serve.New(cfg)
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() {
		ctx, cancel := ctxTimeout(30 * time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		if err := s.Close(ctx); err != nil {
			log.Printf("pimload: drain: %v", err)
		}
	}, nil
}

// runAgainst drives an in-process server built from cfg.
func runAgainst(cfg serve.Config, drive driver) (*loadgen.Report, error) {
	url, stop, err := serveInProcess(cfg)
	if err != nil {
		return nil, err
	}
	defer stop()
	return drive(url)
}

// discoverModel reads a GEMV model's shape (and, for verification, its
// weight seed) from a running server's /healthz.
func discoverModel(base, name string) (serve.ModelSpec, error) {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return serve.ModelSpec{}, err
	}
	defer resp.Body.Close()
	var health struct {
		Models []serve.ModelSpec `json:"models"`
	}
	if err := decodeJSON(resp.Body, &health); err != nil {
		return serve.ModelSpec{}, fmt.Errorf("parse %s/healthz: %w", base, err)
	}
	for _, m := range health.Models {
		if m.Name == name {
			return m, nil
		}
	}
	return serve.ModelSpec{}, fmt.Errorf("server does not serve model %q", name)
}

// nsPerOp is a -bench line's ns/op: wall time per completed request.
func nsPerOp(r *loadgen.Report) float64 {
	if r.OK == 0 {
		return 0
	}
	return r.WallSeconds * 1e9 / float64(r.OK)
}

// printGemvBench writes one go-bench-shaped line per GEMV run;
// iterations = OK responses.
func printGemvBench(family, tag string, r *loadgen.Report) {
	fmt.Printf("%s/%s/%s-1 %d %.0f ns/op "+
		"%.1f req/s %.1f sim_req/s %.0f p50_us %.0f p95_us %.0f p99_us "+
		"%.2f avg_batch %d max_queue %d rejected %d timeouts\n",
		family, tag, r.Model, r.OK, nsPerOp(r),
		r.ThroughputRPS, r.SimThroughputRPS, r.WallP50Us, r.WallP95Us, r.WallP99Us,
		r.AvgBatch, r.MaxQueueDepth, r.Rejected, r.Timeouts)
}

// printSeqBench writes one go-bench-shaped line per sequence run;
// iterations = OK sequences.
func printSeqBench(family, tag string, r *loadgen.Report) {
	fmt.Printf("%s/%s/%s-1 %d %.0f ns/op "+
		"%.1f seq/s %.0f sim_steps/s "+
		"%.0f step_p50_us %.0f step_p95_us %.0f step_p99_us "+
		"%.0f seq_p50_us %.0f seq_p95_us %.0f seq_p99_us "+
		"%d steps %d migrations\n",
		family, tag, r.Model, r.OK, nsPerOp(r),
		r.ThroughputRPS, r.SimThroughputRPS,
		r.StepP50Us, r.StepP95Us, r.StepP99Us,
		r.WallP50Us, r.WallP95Us, r.WallP99Us,
		r.Steps, r.Migrations)
}
