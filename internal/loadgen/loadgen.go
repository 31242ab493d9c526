// Package loadgen is the load driver for a pimserve endpoint. It is a
// client like any other: it speaks only the public HTTP API (POST
// /v1/infer, GET /metrics.json) and the exported request/response types
// of internal/serve, so what it measures and verifies is what a remote
// caller would see.
//
// One driver serves both model kinds. A Source says what to send and how
// to judge a 200 — GEMV input vectors checked against the PIM-order
// software GEMV, or LSTM frame sequences checked step by step against the
// host-session oracle — and Run owns everything else: the closed or open
// arrival loop, the transport, the status taxonomy, the drop check and
// the one Report.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pimsim/internal/blas"
	"pimsim/internal/fp16"
	"pimsim/internal/isa"
	"pimsim/internal/metrics"
	"pimsim/internal/models"
	"pimsim/internal/nn"
	"pimsim/internal/serve"
)

// Source is the request side of a run: a fixed, reproducible set of
// request bodies and the check a 200 response must pass.
type Source struct {
	Model    string
	Workload string // what the bodies are, for the report

	// Bodies are the POST bodies; request i sends Bodies[i%len(Bodies)].
	Bodies [][]byte

	// Check reports whether the 200 response to Bodies[i] carries the
	// right data; nil accepts any.
	Check func(i int, ir *serve.InferResponse) bool
}

// grfDepth is the GRF depth of the PIM-HBM part pimserve simulates (a
// remote server cannot be asked): the oracles accumulate in its order.
const grfDepth = isa.GRFEntries

// GemvSource builds n deterministic K-element input vectors for a GEMV
// model (data does not affect timing, and fixed inputs let the oracle be
// computed once). With verify set, every output is recomputed in the
// device's accumulation order from the spec's regenerated weights.
func GemvSource(spec serve.ModelSpec, n int, verify bool) Source {
	src := Source{Model: spec.Name, Workload: fmt.Sprintf("gemv %dx%d", spec.M, spec.K)}
	var W fp16.Vector
	if verify {
		W = spec.Weights()
	}
	oracle := make([]fp16.Vector, n)
	for i := 0; i < n; i++ {
		x := randVector(rand.New(rand.NewSource(int64(1000+i))), spec.K, 1)
		body, _ := json.Marshal(serve.InferRequest{Model: spec.Name, Input: floats(x)})
		src.Bodies = append(src.Bodies, body)
		if verify {
			oracle[i] = blas.RefGemvPIMOrder(W, spec.M, spec.K, x, grfDepth)
		}
	}
	if verify {
		src.Check = func(i int, ir *serve.InferResponse) bool { return matches(ir.Output, oracle[i]) }
	}
	return src
}

// SeqSource pre-draws n frame sequences for a sequence model from one
// seeded RNG (lengths from dist), each sent with the EOS class eos (< 0
// disables early retirement). A 200 must carry one output per executed
// step; with verify set the steps are replayed on the host-session oracle
// (weights regenerated from model.Seed) and compared bit for bit.
func SeqSource(model models.Config, n int, dist SeqLenDist, eos int, seed int64, verify bool) (Source, error) {
	src := Source{Model: model.Name, Workload: "sequences " + dist.String()}
	if err := model.Validate(); err != nil {
		return src, err
	}
	var plan *nn.Plan
	if verify {
		w, err := nn.GenWeights(model)
		if err != nil {
			return src, err
		}
		if plan, err = nn.Compile(w); err != nil {
			return src, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	frames := make([][]fp16.Vector, n)
	for i := range frames {
		req := serve.InferRequest{Model: model.Name}
		for t := dist.draw(rng); t > 0; t-- {
			x := randVector(rng, model.Input, 0.5)
			frames[i] = append(frames[i], x)
			req.Frames = append(req.Frames, floats(x))
		}
		if eos >= 0 {
			req.EOS = &eos
		}
		body, _ := json.Marshal(req)
		src.Bodies = append(src.Bodies, body)
	}
	src.Check = func(i int, ir *serve.InferResponse) bool {
		if ir.Steps <= 0 || ir.Steps > len(frames[i]) || len(ir.StepOutputs) != ir.Steps {
			return false
		}
		if plan == nil {
			return true
		}
		// Replay exactly the frames the server executed: with EOS the
		// sequence may have retired early, so truncate before the oracle.
		want, err := plan.HostOracle(frames[i][:ir.Steps], grfDepth)
		if err != nil {
			return false
		}
		for step := range want {
			if !matches(ir.StepOutputs[step], want[step]) {
				return false
			}
		}
		return true
	}
	return src, nil
}

func randVector(rng *rand.Rand, n int, scale float64) fp16.Vector {
	x := fp16.NewVector(n)
	for i := range x {
		x[i] = fp16.FromFloat32(float32(rng.NormFloat64() * scale))
	}
	return x
}

func floats(x fp16.Vector) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = float64(v.Float32())
	}
	return out
}

func matches(got []float64, want fp16.Vector) bool {
	if len(got) != len(want) {
		return false
	}
	for i, v := range got {
		if fp16.FromFloat32(float32(v)) != want[i] {
			return false
		}
	}
	return true
}

// SeqLenDist is a parsed sequence-length distribution: "fixed:N" (every
// sequence N frames) or "uniform:A:B" (lengths drawn uniformly from
// [A, B], inclusive, per sequence from the run's seeded RNG).
type SeqLenDist struct {
	Kind string // "fixed" or "uniform"
	A, B int
}

// ParseSeqLenDist parses a -seqlen-dist flag value.
func ParseSeqLenDist(s string) (SeqLenDist, error) {
	parts := strings.Split(s, ":")
	switch {
	case len(parts) == 2 && parts[0] == "fixed":
		n, err := strconv.Atoi(parts[1])
		if err != nil || n <= 0 {
			return SeqLenDist{}, fmt.Errorf("seqlen-dist: bad fixed length %q", parts[1])
		}
		return SeqLenDist{Kind: "fixed", A: n, B: n}, nil
	case len(parts) == 3 && parts[0] == "uniform":
		a, err1 := strconv.Atoi(parts[1])
		b, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || a <= 0 || b < a {
			return SeqLenDist{}, fmt.Errorf("seqlen-dist: bad uniform range %q", s)
		}
		return SeqLenDist{Kind: "uniform", A: a, B: b}, nil
	default:
		return SeqLenDist{}, fmt.Errorf("seqlen-dist: want fixed:N or uniform:A:B, got %q", s)
	}
}

func (d SeqLenDist) draw(rng *rand.Rand) int {
	if d.A == d.B {
		return d.A
	}
	return d.A + rng.Intn(d.B-d.A+1)
}

func (d SeqLenDist) String() string {
	if d.Kind == "fixed" {
		return fmt.Sprintf("fixed:%d", d.A)
	}
	return fmt.Sprintf("%s:%d:%d", d.Kind, d.A, d.B)
}

// Config drives one load-generation run against a serve endpoint.
type Config struct {
	BaseURL string // e.g. http://127.0.0.1:8080
	Source  Source

	Mode        string        // "closed" (default) or "open"
	Concurrency int           // closed-loop in-flight requests (default 8)
	Requests    int           // total requests to send (default 256)
	RatePerSec  float64       // open-loop arrival rate (required for open)
	Timeout     time.Duration // per-request client timeout (default 30s)

	Client *http.Client
}

func (c *Config) applyDefaults() error {
	if c.BaseURL == "" || c.Source.Model == "" || len(c.Source.Bodies) == 0 {
		return fmt.Errorf("loadgen: BaseURL and a Source with bodies are required")
	}
	if c.Mode == "" {
		c.Mode = "closed"
	}
	if c.Mode != "closed" && c.Mode != "open" {
		return fmt.Errorf("loadgen: unknown mode %q", c.Mode)
	}
	if c.Mode == "open" && c.RatePerSec <= 0 {
		return fmt.Errorf("loadgen: open loop needs RatePerSec")
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Requests <= 0 {
		c.Requests = 256
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: c.Timeout}
	}
	c.BaseURL = strings.TrimRight(c.BaseURL, "/")
	return nil
}

// Report is the outcome of a load run. A request is one POST: a GEMV
// input or a whole sequence. A step is one device launch behind a 200: a
// GEMV request is one step, a sequence one per executed timestep. Latency
// quantiles come from the shared metrics.HistogramSnapshot.Quantile
// estimator; simulated-device numbers from the per-response device time
// (deterministic), wall numbers from the host clock. Per-step wall time
// is the request's wall time over its steps (the client cannot see step
// boundaries over HTTP).
type Report struct {
	Mode        string  `json:"mode"`
	Model       string  `json:"model"`
	Workload    string  `json:"workload"`
	Concurrency int     `json:"concurrency"`
	RatePerSec  float64 `json:"rate_per_sec,omitempty"`

	Sent        int `json:"sent"`
	OK          int `json:"ok"`
	Rejected    int `json:"rejected"`    // 429 backpressure
	Timeouts    int `json:"timeouts"`    // 504 deadline
	Unavailable int `json:"unavailable"` // 503 no healthy shards / retries exhausted
	BadOutputs  int `json:"bad_outputs"` // 200s whose data failed the source's check
	Failures    int `json:"failures"`    // transport errors and other 5xx

	Steps      int64 `json:"steps"`       // device launches across OK requests
	EOSRetired int   `json:"eos_retired"` // sequences that stopped on EOS
	Migrations int64 `json:"migrations"`  // shard migrations across OK sequences

	WallSeconds      float64 `json:"wall_seconds"`
	ThroughputRPS    float64 `json:"throughput_rps"`     // OK / wall
	SimThroughputRPS float64 `json:"sim_throughput_rps"` // steps / attributed device-busy time

	WallP50Us float64 `json:"wall_p50_us"`
	WallP95Us float64 `json:"wall_p95_us"`
	WallP99Us float64 `json:"wall_p99_us"`

	StepP50Us float64 `json:"step_p50_us"`
	StepP95Us float64 `json:"step_p95_us"`
	StepP99Us float64 `json:"step_p99_us"`

	QueueP50Us float64 `json:"queue_p50_us"`
	QueueP99Us float64 `json:"queue_p99_us"`

	CyclesP50 float64 `json:"step_cycles_p50"` // device cycles per step
	CyclesP95 float64 `json:"step_cycles_p95"`
	CyclesP99 float64 `json:"step_cycles_p99"`

	AvgBatch       float64          `json:"avg_batch"` // GEMV: device batch the request rode in
	BatchHistogram map[string]int64 `json:"batch_histogram"`
	MaxQueueDepth  int64            `json:"max_queue_depth"`
}

// Run sends cfg.Requests requests and aggregates the outcome. The closed
// loop keeps Concurrency requests in flight back-to-back (peak
// sustainable throughput); the open loop fires at RatePerSec regardless
// of completions (latency under a fixed arrival process, the
// backpressure/timeout regime).
func Run(cfg Config) (*Report, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	src := cfg.Source

	reg := metrics.New()
	wallH := reg.Histogram("wall_us", metrics.ExpBuckets(1, 2, 30))
	stepH := reg.Histogram("step_us", metrics.ExpBuckets(1, 2, 30))
	queueH := reg.Histogram("queue_us", metrics.ExpBuckets(1, 2, 30))
	cycH := reg.Histogram("step_cycles", metrics.ExpBuckets(64, 2, 26))

	var okN, rejN, toN, unavN, badN, failN atomic.Int64
	var stepsN, migN, eosN, batchSum, busyNs atomic.Int64
	var batchMu sync.Mutex
	batchHist := map[int]int64{}

	shoot := func(i int) {
		i %= len(src.Bodies)
		start := time.Now()
		resp, err := cfg.Client.Post(cfg.BaseURL+"/v1/infer", "application/json", bytes.NewReader(src.Bodies[i]))
		wallUs := time.Since(start).Microseconds()
		var raw []byte
		if err == nil {
			raw, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if err != nil {
			failN.Add(1)
			return
		}
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			rejN.Add(1)
			return
		case http.StatusGatewayTimeout:
			toN.Add(1)
			return
		case http.StatusServiceUnavailable:
			unavN.Add(1)
			return
		default:
			failN.Add(1)
			return
		}
		var ir serve.InferResponse
		if err := json.Unmarshal(raw, &ir); err != nil {
			failN.Add(1)
			return
		}
		if src.Check != nil && !src.Check(i, &ir) {
			// A 200 carrying wrong data is the one outcome the fault
			// machinery may never produce; count it apart from mundane
			// failures so chaos runs can assert exactly zero.
			badN.Add(1)
			return
		}
		// Device time attributed to this request: a sequence reports its
		// share of every step it ran in, a GEMV request its batch's
		// kernel, amortized here over the batch's members.
		steps, cycles, ns := int64(1), ir.KernelCycles, ir.KernelNs
		if ir.BatchSize > 0 {
			ns /= float64(ir.BatchSize)
			batchSum.Add(int64(ir.BatchSize))
			batchMu.Lock()
			batchHist[ir.BatchSize]++
			batchMu.Unlock()
		}
		if ir.Steps > 0 {
			steps, cycles, ns = int64(ir.Steps), ir.DeviceCycles/int64(ir.Steps), ir.DeviceNs
		}
		okN.Add(1)
		stepsN.Add(steps)
		migN.Add(int64(ir.Migrations))
		if ir.EOSStep != nil {
			eosN.Add(1)
		}
		busyNs.Add(int64(ns))
		wallH.Observe(wallUs)
		stepH.Observe(wallUs / steps)
		queueH.Observe(ir.QueueUs)
		cycH.Observe(cycles)
	}

	// Sample the server's queue-depth gauge while the run is live.
	var maxDepth int64
	stopSampling := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-t.C:
				if d, err := fetchQueueDepth(cfg.Client, cfg.BaseURL); err == nil && d > maxDepth {
					maxDepth = d
				}
			}
		}
	}()

	startWall := time.Now()
	var wg sync.WaitGroup
	switch cfg.Mode {
	case "closed":
		var next atomic.Int64
		for range cfg.Concurrency {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < int64(cfg.Requests); i = next.Add(1) - 1 {
					shoot(int(i))
				}
			}()
		}
	case "open":
		t := time.NewTicker(time.Duration(float64(time.Second) / cfg.RatePerSec))
		for i := 0; i < cfg.Requests; i++ {
			<-t.C
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				shoot(i)
			}(i)
		}
		t.Stop()
	}
	wg.Wait()
	wall := time.Since(startWall)
	close(stopSampling)
	samplerWG.Wait()

	snap := reg.Snapshot()
	wallS, stepS := snap.Histograms["wall_us"], snap.Histograms["step_us"]
	queueS, cycS := snap.Histograms["queue_us"], snap.Histograms["step_cycles"]
	rep := &Report{
		Mode:        cfg.Mode,
		Model:       src.Model,
		Workload:    src.Workload,
		Concurrency: cfg.Concurrency,
		RatePerSec:  cfg.RatePerSec,
		Sent:        cfg.Requests,
		OK:          int(okN.Load()),
		Rejected:    int(rejN.Load()),
		Timeouts:    int(toN.Load()),
		Unavailable: int(unavN.Load()),
		BadOutputs:  int(badN.Load()),
		Failures:    int(failN.Load()),
		Steps:       stepsN.Load(),
		EOSRetired:  int(eosN.Load()),
		Migrations:  migN.Load(),
		WallSeconds: wall.Seconds(),
		WallP50Us:   wallS.Quantile(0.50),
		WallP95Us:   wallS.Quantile(0.95),
		WallP99Us:   wallS.Quantile(0.99),
		StepP50Us:   stepS.Quantile(0.50),
		StepP95Us:   stepS.Quantile(0.95),
		StepP99Us:   stepS.Quantile(0.99),
		QueueP50Us:  queueS.Quantile(0.50),
		QueueP99Us:  queueS.Quantile(0.99),
		CyclesP50:   cycS.Quantile(0.50),
		CyclesP95:   cycS.Quantile(0.95),
		CyclesP99:   cycS.Quantile(0.99),

		BatchHistogram: map[string]int64{},
		MaxQueueDepth:  maxDepth,
	}
	if rep.OK > 0 {
		rep.ThroughputRPS = float64(rep.OK) / wall.Seconds()
		rep.AvgBatch = float64(batchSum.Load()) / float64(rep.OK)
		if busy := busyNs.Load(); busy > 0 {
			rep.SimThroughputRPS = float64(rep.Steps) / (float64(busy) / 1e9)
		}
	}
	for b, n := range batchHist {
		rep.BatchHistogram[fmt.Sprint(b)] = n
	}
	if got := rep.OK + rep.Rejected + rep.Timeouts + rep.Unavailable + rep.BadOutputs + rep.Failures; got != rep.Sent {
		return rep, fmt.Errorf("loadgen: dropped responses: sent %d, accounted %d", rep.Sent, got)
	}
	return rep, nil
}

func fetchQueueDepth(c *http.Client, base string) (int64, error) {
	resp, err := c.Get(base + "/metrics.json")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, err
	}
	return snap.Gauge("serve_queue_depth"), nil
}

// String renders the report for terminals.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s loop, model %s, %s, %d in flight", r.Mode, r.Model, r.Workload, r.Concurrency)
	if r.RatePerSec > 0 {
		fmt.Fprintf(&b, ", %.0f req/s offered", r.RatePerSec)
	}
	fmt.Fprintf(&b, "\n  sent %d: %d ok, %d rejected (429), %d timeouts (504), %d unavailable (503), %d bad outputs, %d failures\n",
		r.Sent, r.OK, r.Rejected, r.Timeouts, r.Unavailable, r.BadOutputs, r.Failures)
	fmt.Fprintf(&b, "  steps %d (%d sequences EOS-retired, %d migrations)\n", r.Steps, r.EOSRetired, r.Migrations)
	fmt.Fprintf(&b, "  throughput  %.1f req/s wall, %.1f steps/s simulated-device\n", r.ThroughputRPS, r.SimThroughputRPS)
	fmt.Fprintf(&b, "  wall latency  p50 %.0fus  p95 %.0fus  p99 %.0fus\n", r.WallP50Us, r.WallP95Us, r.WallP99Us)
	fmt.Fprintf(&b, "  step latency  p50 %.0fus  p95 %.0fus  p99 %.0fus\n", r.StepP50Us, r.StepP95Us, r.StepP99Us)
	fmt.Fprintf(&b, "  queue wait    p50 %.0fus  p99 %.0fus   max depth %d\n", r.QueueP50Us, r.QueueP99Us, r.MaxQueueDepth)
	fmt.Fprintf(&b, "  step cycles   p50 %.0f  p95 %.0f  p99 %.0f\n", r.CyclesP50, r.CyclesP95, r.CyclesP99)
	fmt.Fprintf(&b, "  batch size    avg %.2f  histogram %s\n", r.AvgBatch, batchHistString(r.BatchHistogram))
	return b.String()
}

func batchHistString(h map[string]int64) string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%d", k, h[k]))
	}
	return "{" + strings.Join(parts, " ") + "}"
}
