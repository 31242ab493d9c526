package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pimsim/internal/blas"
	"pimsim/internal/fp16"
	"pimsim/internal/isa"
	"pimsim/internal/models"
	"pimsim/internal/nn"
	"pimsim/internal/obs"
	"pimsim/internal/serve"
)

const (
	poolSize   = 256 // distinct GEMV requests a run cycles through
	warmupOps  = 50  // untimed ops before the clock starts
	clientConn = 2   // client connections = nproc on the sizing machine
	grfDepth   = isa.GRFEntries
)

// request is one pre-encoded /v1/infer body with the inputs it carries;
// want is its oracle output, computed on first use after the timed phase.
type request struct {
	body []byte
	xs   []fp16.Vector // GEMV inputs, or the frames of one sequence
	want []fp16.Vector
}

// reply is everything kept from one request for the checks and metrics
// that run after the clock stops.
type reply struct {
	op, req        int // issue index, pool index
	due, sent, end time.Time
	ok             bool
	ys             []fp16.Vector
	simNs, cycles  float64 // device time attributed to this request
	queueUs, batch float64
	id             string // X-Request-ID, joins the server's own spans
	httpSpan       int
}

// serverWorkload drives an in-process serve.Server over a loopback
// listener, speaking only POST /v1/infer.
type serverWorkload struct {
	cfg     serve.Config
	model   string
	seq     *nn.Plan // set for sequence models: ops are timesteps
	W       fp16.Vector
	m, k    int
	pool    []request
	first   request  // what setup pushes through the fresh server
	rate    float64  // open loop arrivals per second; 0 = closed loop
	tenants []string // one drawn per request from the seed
	seed    int64

	traced bool
	tracer *obs.Tracer
	srv    *serve.Server
	hs     *http.Server
	client *http.Client
	url    string

	oracleCalls int
	oracleTime  time.Duration
}

func f64s(v fp16.Vector) []float64 {
	out := make([]float64, len(v))
	for i, h := range v {
		out[i] = float64(h.Float32())
	}
	return out
}

func randVec(rng *rand.Rand, n int, scale float64) fp16.Vector {
	v := fp16.NewVector(n)
	for i := range v {
		v[i] = fp16.FromFloat32(float32(rng.NormFloat64() * scale))
	}
	return v
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of numbers and strings cannot fail to encode
	}
	return b
}

// gemvPool draws poolSize requests for spec; every batchEvery-th one (0 =
// never) carries a 4-vector `inputs` batch.
func gemvPool(rng *rand.Rand, spec serve.ModelSpec, batchEvery int) []request {
	pool := make([]request, poolSize)
	for i := range pool {
		n := 1
		if batchEvery > 0 && i%batchEvery == batchEvery-1 {
			n = 4
		}
		xs := make([]fp16.Vector, n)
		in := make([][]float64, n)
		for j := range xs {
			xs[j] = randVec(rng, spec.K, 1)
			in[j] = f64s(xs[j])
		}
		req := serve.InferRequest{Model: spec.Name}
		if n == 1 {
			req.Input = in[0]
		} else {
			req.Inputs = in
		}
		pool[i] = request{body: mustJSON(req), xs: xs}
	}
	return pool
}

// requestTimeout replaces the server's 2 s default deadline. A stall of the
// VM (or the race detector in tests) can hold a 12-frame sequence longer
// than that, and a 504 would be counted as a failed op when nothing in the
// program failed.
const requestTimeout = 30 * time.Second

func newGemvServer(seed int64, spec serve.ModelSpec) *serverWorkload {
	return &serverWorkload{
		cfg:   serve.Config{Shards: 2, Channels: 4, Engine: "parallel", Models: []serve.ModelSpec{spec}, RequestTimeout: requestTimeout},
		model: spec.Name, W: spec.Weights(), m: spec.M, k: spec.K, seed: seed,
	}
}

func newGemvClosed(seed int64) workload {
	spec := serve.ModelSpec{Name: "micro-256x256", M: 256, K: 256, Seed: 3}
	w := newGemvServer(seed, spec)
	w.pool = gemvPool(rand.New(rand.NewSource(seed)), spec, 0)
	w.first = w.pool[0]
	return w
}

func newNanoOpen(seed int64) workload {
	spec := serve.ModelSpec{Name: "nano-16x64", M: 16, K: 64, Seed: 5}
	w := newGemvServer(seed, spec)
	w.cfg.Tenants = []serve.TenantSpec{
		{Name: "gold", Weight: 4, Priority: 1}, {Name: "silver", Weight: 2}, {Name: "bronze", Weight: 1},
	}
	w.tenants = []string{"gold", "silver", "bronze"}
	w.rate = 200
	w.pool = gemvPool(rand.New(rand.NewSource(seed)), spec, 8)
	w.first = w.pool[0]
	return w
}

func newSeqClosed(seed int64) workload {
	mc := models.DS2Small()
	weights, err := nn.GenWeights(mc)
	if err != nil {
		panic(err) // a predefined config
	}
	plan, err := nn.Compile(weights)
	if err != nil {
		panic(err)
	}
	w := &serverWorkload{
		cfg: serve.Config{Shards: 2, Channels: 4, Engine: "parallel", Models: []serve.ModelSpec{}, SeqModels: []models.Config{mc},
			RequestTimeout: requestTimeout},
		model: mc.Name, seq: plan, seed: seed,
	}
	// Lengths are uniform over 4..12 by construction: every length twice, in
	// seeded order. Drawing 18 lengths at random would move the mean length,
	// and with it every figure, by several percent from seed to seed; more
	// sequences would cost more oracle time (about 15 ms a step).
	rng := rand.New(rand.NewSource(seed))
	lengths := make([]int, 18)
	for i := range lengths {
		lengths[i] = 4 + i%9
	}
	rng.Shuffle(len(lengths), func(i, j int) { lengths[i], lengths[j] = lengths[j], lengths[i] })
	w.pool = make([]request, len(lengths))
	for i := range w.pool {
		frames := make([]fp16.Vector, lengths[i])
		in := make([][]float64, len(frames))
		for t := range frames {
			frames[t] = randVec(rng, mc.Input, 0.5)
			in[t] = f64s(frames[t])
		}
		w.pool[i] = request{body: mustJSON(serve.InferRequest{Model: mc.Name, Frames: in}), xs: frames}
	}
	// One frame, whatever the seed: set-up time must not depend on how long
	// the first sequence of the pool happens to be.
	w.first = request{body: mustJSON(serve.InferRequest{Model: mc.Name, Frames: [][]float64{f64s(w.pool[0].xs[0])}})}
	return w
}

// opsOf is how many ops a request stands for: a timestep each for a
// sequence, one for a GEMV request whatever its input count.
func (w *serverWorkload) opsOf(r *request) int {
	if w.seq != nil {
		return len(r.xs)
	}
	return 1
}

func (w *serverWorkload) setup() error {
	cfg := w.cfg
	if w.traced {
		// Sized to hold every span of a third-length run (about five per
		// request), so the join in serverSpans misses none.
		w.tracer = obs.NewTracer(1 << 17)
		cfg.Tracer = w.tracer
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = srv
	w.hs = &http.Server{Handler: srv.Handler()}
	go func() { _ = w.hs.Serve(ln) }() // returns ErrServerClosed at Shutdown
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: clientConn, MaxIdleConnsPerHost: clientConn}}
	w.url = "http://" + ln.Addr().String() + "/v1/infer"
	if rp := w.shoot(&w.first, 0, time.Now(), nil); !rp.ok {
		return fmt.Errorf("first request to %s failed", w.model)
	}
	return nil
}

func (w *serverWorkload) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx)
	_ = w.srv.Close(ctx)
	w.client.CloseIdleConnections()
}

// shoot sends r as the run's i-th request and keeps its reply. due is when
// the request was meant to leave; latency is counted from there.
func (w *serverWorkload) shoot(r *request, i int, due time.Time, rec *recorder) reply {
	rp := reply{op: i, req: i % len(w.pool), due: due, sent: time.Now()}
	hr, err := http.NewRequest(http.MethodPost, w.url, bytes.NewReader(r.body))
	if err != nil {
		rp.end = rp.sent
		return rp
	}
	hr.Header.Set("Content-Type", "application/json")
	if w.tenants != nil {
		hr.Header.Set("X-Tenant", w.tenants[mix(uint64(w.seed), uint64(i))%uint64(len(w.tenants))])
	}
	resp, err := w.client.Do(hr)
	if err != nil {
		rp.end = time.Now()
		return rp
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rp.end = time.Now()
	if rec != nil {
		root := rec.add("bench.op", rp.due, rp.end, 0, i)
		rp.httpSpan = rec.add("serve.http", rp.sent, rp.end, root, i)
		rp.id = resp.Header.Get("X-Request-ID")
	}
	var ir serve.InferResponse
	if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &ir) != nil {
		return rp
	}
	// The reply is decoded here, after the latency sample is taken, and
	// kept as fp16 (2 bytes an element) so memory does not grow with the
	// JSON text of every answer.
	var outs [][]float64
	switch {
	case w.seq != nil:
		outs = ir.StepOutputs
		rp.simNs, rp.cycles, rp.queueUs = ir.DeviceNs, float64(ir.DeviceCycles), float64(ir.QueueUs)
	case ir.Outputs != nil:
		outs = ir.Outputs
		for j, b := range ir.BatchSizes {
			if b < 1 {
				return rp // a served vector always rode in a batch
			}
			rp.simNs += ir.KernelNsEach[j] / float64(b)
			rp.cycles += float64(ir.KernelCycled[j]) / float64(b)
			rp.batch += float64(b) / float64(len(ir.BatchSizes))
		}
		rp.queueUs = float64(ir.QueueUsEach[0])
	default:
		if ir.BatchSize < 1 {
			return rp
		}
		outs = [][]float64{ir.Output}
		b := float64(ir.BatchSize)
		rp.simNs, rp.cycles, rp.batch, rp.queueUs = ir.KernelNs/b, float64(ir.KernelCycles)/b, b, float64(ir.QueueUs)
	}
	rp.ys = make([]fp16.Vector, len(outs))
	for j, o := range outs {
		y := fp16.NewVector(len(o))
		for e, v := range o {
			y[e] = fp16.FromFloat32(float32(v))
		}
		rp.ys[j] = y
	}
	rp.ok = true
	return rp
}

// closedLoop runs clientConn clients, each sending its next request only
// after the previous reply, until more() says stop.
func (w *serverWorkload) closedLoop(more func(i int) bool, rec *recorder) []reply {
	var next atomic.Int64
	per := make([][]reply, clientConn)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if !more(i) {
					return
				}
				per[c] = append(per[c], w.shoot(&w.pool[i%len(w.pool)], i, time.Now(), rec))
			}
		}(c)
	}
	wg.Wait()
	var all []reply
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].op < all[b].op })
	return all
}

// openLoop sends on a seeded Poisson schedule regardless of replies.
func (w *serverWorkload) openLoop(d time.Duration, rec *recorder) []reply {
	rng := rand.New(rand.NewSource(w.seed ^ 0x6f70656e)) // "open"
	var due []time.Duration
	for t := rng.ExpFloat64() / w.rate; t < d.Seconds(); t += rng.ExpFloat64() / w.rate {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	all := make([]reply, len(due))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, off := range due {
		at := t0.Add(off)
		time.Sleep(time.Until(at))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			all[i] = w.shoot(&w.pool[i%len(w.pool)], i, at, rec)
		}(i)
	}
	wg.Wait()
	return all
}

func (w *serverWorkload) run(d time.Duration, div int, rec *recorder) *outcome {
	warm := warmupOps / div
	if w.seq != nil {
		warm /= 8 // sequences average 8 timesteps
	}
	w.closedLoop(func(i int) bool { return i < max(1, warm) }, nil)
	before := w.srv.Metrics().Snapshot()

	t0 := time.Now()
	var replies []reply
	if w.rate > 0 {
		replies = w.openLoop(d, rec)
	} else {
		deadline := t0.Add(d)
		replies = w.closedLoop(func(int) bool { return time.Now().Before(deadline) }, rec)
	}
	out := &outcome{open: w.rate > 0, start: t0, wall: time.Since(t0), layer: metricSet{}}
	after := w.srv.Metrics().Snapshot()

	w.verify(replies)
	var perOp, queue, late, batch []float64
	for i := range replies {
		rp := &replies[i]
		n := w.opsOf(&w.pool[rp.req])
		out.attempted += n
		if !rp.ok {
			out.failed += n
			continue
		}
		out.done = append(out.done, served{due: rp.due, from: rp.sent, to: rp.end, ops: n, simNs: rp.simNs})
		out.cycles += rp.cycles
		step := ms(rp.end.Sub(rp.due)) / float64(n)
		for s := 0; s < n; s++ {
			perOp = append(perOp, step-rp.queueUs/1e3/float64(n))
		}
		queue = append(queue, rp.queueUs)
		late = append(late, ms(rp.sent.Sub(rp.due)))
		batch = append(batch, rp.batch)
	}
	if rec != nil {
		w.serverSpans(replies, rec)
	}

	diff := after.Diff(before)
	l := out.layer
	l["serve.queue_wait_us_p50"] = median(queue)
	l["serve.batch_size_avg"] = mean(batch)
	l["serve.lat_p99_ms"] = quantile(out.latencies(nil), 0.99)
	l["serve.admitted"] = float64(diff.Counter("serve_admitted_total") + diff.Counter("serve_seq_admitted_total"))
	l["serve.served"] = float64(diff.Counter("serve_served_total") + diff.Counter("serve_seq_completed_total"))
	l["serve.batches"] = float64(diff.Counter("serve_batches_total") + diff.Counter("serve_seq_steps_total"))
	l["serve.shed"] = float64(diff.Counter("serve_shed_total"))
	l["serve.retries"] = float64(diff.Counter("serve_retries_total"))
	l["serve.hedges"] = float64(diff.Counter("serve_hedges_total"))
	if h := diff.Histograms["serve_seq_occupancy"]; h.Count > 0 {
		l["serve.seq_occupancy_avg"] = float64(h.Sum) / float64(h.Count)
	}
	l["bench.gen_late_p99_ms"] = quantile(late, 0.99)
	l["metrics.snapshot_us"] = us(medianOf(50, func() { w.srv.Metrics().Snapshot() }))
	out.latMinusQueueP50 = median(perOp)
	if w.oracleCalls > 0 {
		per := w.oracleTime / time.Duration(w.oracleCalls)
		if w.seq != nil {
			l["nn.host_oracle_step_ms"] = ms(per)
		} else {
			l["blas.oracle_us"] = us(per)
		}
	}
	return out
}

// verify marks every reply whose outputs differ from the host oracle in
// any bit as failed. It runs after the clock stops; the oracle's cost is
// kept so it can be printed.
func (w *serverWorkload) verify(replies []reply) {
	for i := range replies {
		rp := &replies[i]
		if !rp.ok {
			continue
		}
		r := &w.pool[rp.req]
		if r.want == nil {
			t0 := time.Now()
			if w.seq != nil {
				want, err := w.seq.HostOracle(r.xs, grfDepth)
				if err != nil {
					rp.ok = false
					continue
				}
				r.want = want
			} else {
				for _, x := range r.xs {
					r.want = append(r.want, blas.RefGemvPIMOrder(w.W, w.m, w.k, x, grfDepth))
				}
			}
			w.oracleTime += time.Since(t0)
			w.oracleCalls += len(r.xs)
		}
		rp.ok = len(rp.ys) == len(r.want)
		for j := 0; rp.ok && j < len(r.want); j++ {
			rp.ok = vecEqual(rp.ys[j], r.want[j])
		}
	}
}

func vecEqual(a, b fp16.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// serverSpans joins the server's own spans (request, queue, exec) under
// the client's serve.http span of the same request, by X-Request-ID.
func (w *serverWorkload) serverSpans(replies []reply, rec *recorder) {
	byID := make(map[string]*reply, len(replies))
	for i := range replies {
		if replies[i].id != "" {
			byID[replies[i].id] = &replies[i]
		}
	}
	spans := w.tracer.Snapshot()
	sort.Slice(spans, func(a, b int) bool { return spans[a].ID < spans[b].ID }) // parents before children
	ids := map[obs.SpanID]int{}
	for _, sp := range spans {
		rp := byID[sp.Req]
		if rp == nil || sp.Instant() {
			continue
		}
		parent := rp.httpSpan
		if sp.Parent != 0 {
			parent = ids[sp.Parent]
		}
		ids[sp.ID] = rec.add("serve."+sp.Name, sp.Start, sp.End, parent, rp.op)
	}
}

func (w *serverWorkload) shapes() probeShapes {
	sh := probeShapes{m: 256, k: 256, serve: &w.cfg}
	r := &w.pool[0]
	_ = json.Unmarshal(r.body, &sh.req) // our own encoding
	if w.seq != nil {
		sh.seqOp = true
		for range r.xs {
			sh.resp.StepOutputs = append(sh.resp.StepOutputs, make([]float64, w.seq.Cfg.Output))
		}
	} else {
		sh.m, sh.k = w.m, w.k
		sh.resp.Output = make([]float64, w.m)
	}
	return sh
}
