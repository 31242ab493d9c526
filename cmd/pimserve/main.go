// pimserve runs the online inference service over a pool of simulated
// PIM-HBM devices. Models are preloaded into the banks at boot; requests
// flow through a bounded admission queue and one continuous-batching step
// loop per model (a GEMV input is a one-frame sequence; a GEMV step fills
// on batch size or max wait) to workers that lease shards.
//
//	pimserve -addr :8080 -shards 2 -channels 4
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/infer \
//	    -d '{"model":"micro-256x256","input":[0.5, ...]}'
//
// Fault drills (docs/FAULTS.md) run the same binary against a lying
// memory: -fault-profile injects seeded bit flips, latency spikes and
// shard outages, -ecc turns the on-die SEC-DED engine on without any
// injection, and the retry/eviction knobs tune how the serving layer
// rides the faults out:
//
//	pimserve -fault-profile chaos-mild -fault-seed 42
//
// Multi-tenant QoS (docs/SERVING.md): -tenant name=weight[:priority]
// (repeatable) gives each tenant its own weighted-fair lane in every
// model's admission queue, with graduated shedding by priority;
// requests pick a lane with the `tenant` body field or X-Tenant header.
// -hedge-delay duplicates straggling GEMV steps onto a spare shard and
// takes the first result, trimming the p99.9 tail:
//
//	pimserve -tenant gold=4:10 -tenant free=1 -hedge-delay 5ms
//
// Observability (docs/OBSERVABILITY.md): every request carries an ID
// (returned in X-Request-ID) and produces one JSON access-log line on
// stderr. -trace arms the flight recorder — request span trees are
// served live at GET /debug/trace, dumped to -trace-dir on shutdown
// (spans.json) and whenever a request exceeds -slow-request
// (slow-<id>.json). -pprof-addr exposes net/http/pprof on a separate
// listener, off by default.
//
// SIGINT/SIGTERM triggers graceful shutdown: the listener stops, then the
// pipeline drains — every accepted request still gets its response.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pimsim/internal/engine"
	"pimsim/internal/fault"
	"pimsim/internal/models"
	"pimsim/internal/obs"
	"pimsim/internal/serve"
	"pimsim/internal/slo"
)

// tenantFlags collects repeatable -tenant name=weight[:priority] flags
// into the serving layer's QoS lane specs (docs/SERVING.md): weight is
// the WFQ share, priority orders graduated shedding (higher sheds
// later). Unattributed traffic always gets a "default" lane.
type tenantFlags []serve.TenantSpec

func (t *tenantFlags) String() string {
	parts := make([]string, 0, len(*t))
	for _, sp := range *t {
		parts = append(parts, fmt.Sprintf("%s=%d:%d", sp.Name, sp.Weight, sp.Priority))
	}
	return strings.Join(parts, ",")
}

func (t *tenantFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=weight[:priority], got %q", s)
	}
	wStr, pStr, hasP := strings.Cut(val, ":")
	w, err := strconv.Atoi(wStr)
	if err != nil || w <= 0 {
		return fmt.Errorf("tenant %s: weight must be a positive integer, got %q", name, wStr)
	}
	p := 0
	if hasP {
		if p, err = strconv.Atoi(pStr); err != nil {
			return fmt.Errorf("tenant %s: priority must be an integer, got %q", name, pStr)
		}
	}
	*t = append(*t, serve.TenantSpec{Name: name, Weight: w, Priority: p})
	return nil
}

// sloFlags collects repeatable -slo objective specs
// ("tenant/model:p99=<dur>,avail=<pct>"; see docs/SLO.md).
type sloFlags []slo.Objective

func (s *sloFlags) String() string {
	parts := make([]string, 0, len(*s))
	for _, o := range *s {
		parts = append(parts, fmt.Sprintf("%s/%s:p99=%s,avail=%g", o.Tenant, o.Model, o.LatencyP99, o.Availability))
	}
	return strings.Join(parts, " ")
}

func (s *sloFlags) Set(spec string) error {
	o, err := slo.ParseObjective(spec)
	if err != nil {
		return err
	}
	*s = append(*s, o)
	return nil
}

// batchWaitOverrides collects repeatable -model-batch-wait name=duration
// flags into per-model flush deadlines.
type batchWaitOverrides map[string]time.Duration

func (o batchWaitOverrides) String() string {
	parts := make([]string, 0, len(o))
	for k, v := range o {
		parts = append(parts, k+"="+v.String())
	}
	return strings.Join(parts, ",")
}

func (o batchWaitOverrides) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want model=duration, got %q", s)
	}
	d, err := time.ParseDuration(val)
	if err != nil {
		return err
	}
	if d <= 0 {
		return fmt.Errorf("batch wait must be positive, got %v", d)
	}
	o[name] = d
	return nil
}

// resolveSeqModels turns the -seq-models flag value into model configs:
// "all" is every serving-scale stack, otherwise a comma-separated subset
// of their names.
func resolveSeqModels(spec string) ([]models.Config, error) {
	if spec == "" {
		return nil, nil
	}
	if spec == "all" {
		return models.ServingConfigs(), nil
	}
	var out []models.Config
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		cfg, ok := models.ServingConfigByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown sequence model %q (have %s)", name, servingModelNames())
		}
		out = append(out, cfg)
	}
	return out, nil
}

func servingModelNames() string {
	var names []string
	for _, c := range models.ServingConfigs() {
		names = append(names, c.Name)
	}
	return strings.Join(names, ", ")
}

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		shards     = flag.Int("shards", 2, "independent simulated PIM devices")
		channels   = flag.Int("channels", 4, "pseudo channels per shard (= max batch)")
		mhz        = flag.Int("mhz", 1200, "memory clock in MHz")
		engineName = flag.String("engine", "parallel", "channel execution engine per shard: serial or parallel")
		maxBatch   = flag.Int("max-batch", 0, "slots per device step, for both kinds: GEMV inputs or sequences running at once (0 = channel count; 1 = one at a time)")
		batchWait  = flag.Duration("batch-wait", 2*time.Millisecond, "how long a GEMV step waits for company before it leases a shard")
		queueDepth = flag.Int("queue-depth", 64, "per-model admission queue depth")
		timeout    = flag.Duration("timeout", 2*time.Second, "per-request deadline (queue + execute)")
		hedgeDelay = flag.Duration("hedge-delay", 0, "duplicate a straggling GEMV step onto a spare shard after this delay; first result wins (0 = off)")
		drainWait  = flag.Duration("drain-wait", 30*time.Second, "graceful shutdown budget")

		ecc        = flag.Bool("ecc", false, "enable the on-die SEC-DED engine (implied by a corrupting fault profile)")
		profile    = flag.String("fault-profile", "", "fault injection profile: none, chaos-mild, chaos-hard")
		faultSeed  = flag.Int64("fault-seed", 42, "seed for the deterministic fault injector")
		maxRetries = flag.Int("max-retries", 3, "re-run attempts for a step hit by a device fault")
		evictAfter = flag.Int("evict-after", 2, "consecutive failures before a shard is evicted")
		probeEvery = flag.Duration("probe-interval", 20*time.Millisecond, "probation probe cadence for evicted shards")

		seqNames  = flag.String("seq-models", "", "sequence models served with continuous batching: comma-separated names or \"all\" (see GET /v1/models)")
		maxSeqLen = flag.Int("max-seqlen", 0, "frames-per-sequence cap on /v1/infer (0 = default 256)")

		traceOn   = flag.Bool("trace", false, "arm the request flight recorder (GET /debug/trace)")
		traceDir  = flag.String("trace-dir", "", "directory for trace dumps (spans.json on shutdown, slow-<id>.json); implies -trace")
		traceBuf  = flag.Int("trace-buf", 8192, "flight recorder capacity in spans (newest kept)")
		slowReq   = flag.Duration("slow-request", 0, "dump the span tree of any request slower than this (0 = off)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this separate listener (empty = off)")
	)
	var (
		sloHedge    = flag.Bool("slo-hedge", false, "close the SLO control loop: per-model hedge delays track the observed windowed p99 (seeded from -hedge-delay); requires at least one -slo")
		sloHedgeMin = flag.Duration("slo-hedge-min", time.Millisecond, "hedge-controller floor")
		sloHedgeMax = flag.Duration("slo-hedge-max", 250*time.Millisecond, "hedge-controller ceiling")
	)
	waits := batchWaitOverrides{}
	flag.Var(waits, "model-batch-wait", "per-model -batch-wait override for a GEMV model, name=duration (repeatable)")
	var tenants tenantFlags
	flag.Var(&tenants, "tenant", "QoS tenant lane, name=weight[:priority] (repeatable); requests pick a lane via the tenant body field or X-Tenant header")
	var sloObjs sloFlags
	flag.Var(&sloObjs, "slo", "SLO objective, [tenant[/model]:]p99=<dur>[,avail=<pct>] (repeatable); arms burn-rate evaluation on /debug/ops and /debug/slow")
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	// Fail a typo'd -engine here, before any shard is built.
	if err := engine.Validate(*engineName); err != nil {
		fatal(logger, err)
	}

	seqCfgs, err := resolveSeqModels(*seqNames)
	if err != nil {
		fatal(logger, err)
	}

	cfg := serve.Config{
		Shards:         *shards,
		Channels:       *channels,
		MHz:            *mhz,
		Engine:         *engineName,
		MaxBatch:       *maxBatch,
		BatchWait:      *batchWait,
		QueueDepth:     *queueDepth,
		RequestTimeout: *timeout,
		Tenants:        tenants,
		HedgeDelay:     *hedgeDelay,
		SeqModels:      seqCfgs,
		MaxSeqLen:      *maxSeqLen,
		ECC:            *ecc,
		MaxRetries:     *maxRetries,
		EvictAfter:     *evictAfter,
		ProbeInterval:  *probeEvery,
		Logger:         logger,
	}
	if len(waits) > 0 {
		// Per-model flush deadlines patch the default GEMV model set; an
		// override naming no served model is a boot error, not a silent noop.
		cfg.Models = serve.DefaultModels()
		patched := map[string]bool{}
		for i := range cfg.Models {
			if d, ok := waits[cfg.Models[i].Name]; ok {
				cfg.Models[i].BatchWait = d
				patched[cfg.Models[i].Name] = true
			}
		}
		for name := range waits {
			if !patched[name] {
				fatal(logger, fmt.Errorf("-model-batch-wait: no served model %q", name))
			}
		}
	}
	if *sloHedge && len(sloObjs) == 0 {
		fatal(logger, fmt.Errorf("-slo-hedge needs at least one -slo objective"))
	}
	if len(sloObjs) > 0 {
		cfg.SLO = &slo.Config{Objectives: sloObjs}
		if *sloHedge {
			cfg.SLO.Hedge = &slo.HedgeConfig{Min: *sloHedgeMin, Max: *sloHedgeMax}
		}
	}
	if *profile != "" {
		fc, err := fault.Profile(*profile, *faultSeed)
		if err != nil {
			fatal(logger, err)
		}
		cfg.Fault = &fc
		logger.Info("fault profile armed", "profile", *profile, "seed", *faultSeed)
	}

	var tracer *obs.Tracer
	if *traceOn || *traceDir != "" {
		if *traceDir != "" {
			if err := os.MkdirAll(*traceDir, 0o755); err != nil {
				fatal(logger, err)
			}
		}
		tracer = obs.NewTracer(*traceBuf)
		cfg.Tracer = tracer
		if *slowReq > 0 {
			dir := *traceDir
			threshold := *slowReq
			tracer.SetSlow(threshold, func(tree []obs.Span) {
				if len(tree) == 0 {
					return
				}
				root := tree[0]
				logger.Warn("slow request",
					"req", root.Req, "dur_us", root.Duration().Microseconds(),
					"threshold_us", threshold.Microseconds(), "spans", len(tree))
				if dir == "" {
					return
				}
				path := filepath.Join(dir, "slow-"+root.Req+".json")
				f, err := os.Create(path)
				if err != nil {
					logger.Warn("slow-request dump failed", "err", err.Error())
					return
				}
				if err := obs.WriteSpans(f, tree); err != nil {
					logger.Warn("slow-request dump failed", "err", err.Error())
				}
				f.Close()
			})
		}
		logger.Info("tracing armed", "buf", *traceBuf, "dir", *traceDir, "slow_request", slowReq.String())
	}

	if *pprofAddr != "" {
		// pprof rides http.DefaultServeMux (the blank net/http/pprof
		// import), which the service mux below never exposes — profiling
		// stays on its own listener, off the serving port.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(logger, err)
		}
		logger.Info("pprof listening", "addr", pln.Addr().String())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				logger.Warn("pprof listener exited", "err", err.Error())
			}
		}()
	}

	boot := time.Now()
	s, err := serve.New(cfg)
	if err != nil {
		fatal(logger, err)
	}
	logger.Info("pool ready",
		"shards", *shards, "channels", *channels, "mhz", *mhz,
		"boot_ms", time.Since(boot).Milliseconds())
	for _, m := range s.Models() {
		logger.Info("model loaded", "model", m.Name, "m", m.M, "k", m.K)
	}
	for _, sp := range tenants {
		logger.Info("tenant lane", "tenant", sp.Name, "weight", sp.Weight, "priority", sp.Priority)
	}
	if *hedgeDelay > 0 {
		logger.Info("hedged dispatch armed", "delay", hedgeDelay.String())
	}
	for _, o := range sloObjs {
		logger.Info("slo objective armed",
			"tenant", o.Tenant, "model", o.Model,
			"p99", o.LatencyP99.String(), "avail", o.Availability)
	}
	if *sloHedge {
		logger.Info("slo hedge controller armed",
			"min", sloHedgeMin.String(), "max", sloHedgeMax.String(), "seed", hedgeDelay.String())
	}
	for _, c := range seqCfgs {
		logger.Info("sequence model resident", "model", c.Name,
			"layers", len(c.Hidden), "weight_bytes", c.WeightBytes())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, err)
	}
	// The resolved address on stdout lets scripts use -addr :0.
	fmt.Printf("listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		logger.Info("draining", "signal", got.String())
	case err := <-errCh:
		fatal(logger, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Stop the listener first (in-flight handlers finish), then drain the
	// pipeline so every accepted request is answered.
	if err := hs.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", "err", err.Error())
	}
	if err := s.Close(ctx); err != nil {
		fatal(logger, err)
	}
	if tracer != nil && *traceDir != "" {
		path := filepath.Join(*traceDir, "spans.json")
		if err := dumpSpans(tracer, path); err != nil {
			logger.Warn("span dump failed", "err", err.Error())
		} else {
			logger.Info("spans dumped", "path", path, "total", tracer.Total())
		}
	}
	logger.Info("drained cleanly")
}

// dumpSpans writes the flight recorder's contents as Chrome trace-event
// JSON (the same format GET /debug/trace serves).
func dumpSpans(t *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteSpans(f, t.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(logger *slog.Logger, err error) {
	logger.Error("fatal", "err", err.Error())
	os.Exit(1)
}
