package serve

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"pimsim/internal/fault"
	"pimsim/internal/fp16"
	"pimsim/internal/models"
	"pimsim/internal/nn"
)

// tinySeq is a fast two-layer LSTM stack for sequence-pipeline tests.
var tinySeq = models.Config{Name: "tinyseq", Input: 16, Hidden: []int{32, 16}, Output: 8, Seed: 42}

// seqOracle computes the expected per-step logits for a frame sequence.
func seqOracle(t *testing.T, cfg models.Config, frames []fp16.Vector) []fp16.Vector {
	t.Helper()
	w, err := nn.GenWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := nn.Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.HostOracle(frames, 8)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func seqFrames(seed int64, n, dim int) ([]fp16.Vector, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	f16 := make([]fp16.Vector, n)
	f64 := make([][]float64, n)
	for t := range f16 {
		x := fp16.NewVector(dim)
		row := make([]float64, dim)
		for i := range x {
			x[i] = fp16.FromFloat32(float32(rng.NormFloat64() * 0.5))
			row[i] = float64(x[i].Float32())
		}
		f16[t] = x
		f64[t] = row
	}
	return f16, f64
}

func seqBody(t *testing.T, model string, frames [][]float64, eos *int) string {
	t.Helper()
	b, err := json.Marshal(InferRequest{Model: model, Frames: frames, EOS: eos})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func checkSeqResponse(t *testing.T, body []byte, want []fp16.Vector) *InferResponse {
	t.Helper()
	var ir InferResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatalf("bad response body: %v: %s", err, body)
	}
	if ir.Steps != len(want) || len(ir.StepOutputs) != len(want) {
		t.Fatalf("steps = %d (%d outputs), want %d", ir.Steps, len(ir.StepOutputs), len(want))
	}
	for step := range want {
		if !slices.Equal(toF16(ir.StepOutputs[step]), want[step]) {
			t.Fatalf("step %d output mismatch: got %v, want oracle", step, ir.StepOutputs[step])
		}
	}
	return &ir
}

// TestSeqInferCorrectness: a full multi-step sequence served over HTTP is
// bit-exact against the host-session oracle at every step.
func TestSeqInferCorrectness(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, Channels: 2, SeqModels: []models.Config{tinySeq}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	f16, f64 := seqFrames(7, 5, tinySeq.Input)
	resp, body := postInfer(t, ts, seqBody(t, "tinyseq", f64, nil))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	ir := checkSeqResponse(t, body, seqOracle(t, tinySeq, f16))
	if ir.DeviceCycles <= 0 || ir.DeviceNs <= 0 {
		t.Errorf("no device time attributed: cycles=%d ns=%f", ir.DeviceCycles, ir.DeviceNs)
	}
	if ir.EOSStep != nil {
		t.Errorf("eos_step set without eos in the request")
	}
	if got := s.seqCompleted.Value(); got != 1 {
		t.Errorf("seq_completed = %d, want 1", got)
	}
	if got := s.seqSteps.Value(); got != 5 {
		t.Errorf("seq_steps = %d, want 5", got)
	}
}

// TestDebugOpsCountsSequenceSteps: on a server holding only a sequence
// model, every step is a batch of the windowed occupancy /debug/ops and
// pimtop read, its slots the live sequences of that step.
func TestDebugOpsCountsSequenceSteps(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, Channels: 4, SeqModels: []models.Config{tinySeq}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i, n := range []int{6, 3, 5} {
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			_, f64 := seqFrames(int64(300+i), n, tinySeq.Input)
			if resp, body := postInfer(t, ts, seqBody(t, "tinyseq", f64, nil)); resp.StatusCode != 200 {
				t.Errorf("seq %d: status %d: %s", i, resp.StatusCode, body)
			}
		}(i, n)
	}
	wg.Wait()

	steps := s.seqSteps.Value()
	occ := s.Metrics().Snapshot().Histograms["serve_seq_occupancy"]
	w := s.opsReport().Window
	if steps == 0 || w.Batches != steps {
		t.Fatalf("ops window batches = %d, want the %d sequence steps", w.Batches, steps)
	}
	if want := float64(occ.Sum) / float64(occ.Count); w.MeanBatch != want {
		t.Errorf("ops window mean batch = %v, want the mean slot occupancy %v", w.MeanBatch, want)
	}
}

// TestSeqContinuousBatching: concurrent sequences of different lengths
// share the step loop — occupancy exceeds one — and every response stays
// bit-exact against its own oracle.
func TestSeqContinuousBatching(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, Channels: 4, SeqModels: []models.Config{tinySeq}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	lengths := []int{9, 4, 7, 5, 6, 3}
	var wg sync.WaitGroup
	for i, n := range lengths {
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			f16, f64 := seqFrames(int64(100+i), n, tinySeq.Input)
			resp, body := postInfer(t, ts, seqBody(t, "tinyseq", f64, nil))
			if resp.StatusCode != 200 {
				t.Errorf("seq %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			checkSeqResponse(t, body, seqOracle(t, tinySeq, f16))
		}(i, n)
	}
	wg.Wait()

	if got := s.seqCompleted.Value(); got != int64(len(lengths)) {
		t.Errorf("seq_completed = %d, want %d", got, len(lengths))
	}
	// At least one step must have run with >1 active slot, or this was
	// sequential execution in disguise. (Scheduling is timing-dependent,
	// so assert via the occupancy histogram's upper buckets.)
	snap := s.Metrics().Snapshot()
	occ := snap.Histograms["serve_seq_occupancy"]
	if occ.Count == 0 {
		t.Fatal("occupancy histogram empty")
	}
	if occ.Quantile(1.0) <= 1 {
		t.Logf("warning: peak occupancy %.0f — continuous batching never overlapped (timing-dependent)", occ.Quantile(1.0))
	}
}

// TestSeqEOSRetirement: a sequence whose argmax hits the EOS class
// retires early — fewer executed steps than frames, eos_step set.
func TestSeqEOSRetirement(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, Channels: 2, SeqModels: []models.Config{tinySeq}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	f16, f64 := seqFrames(21, 12, tinySeq.Input)
	want := seqOracle(t, tinySeq, f16)
	// Pick the class the first step's argmax lands on: retirement at step 0.
	eos := nn.Argmax(want[0])
	resp, body := postInfer(t, ts, seqBody(t, "tinyseq", f64, &eos))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	ir := checkSeqResponse(t, body, want[:1])
	if ir.EOSStep == nil || *ir.EOSStep != 0 {
		t.Errorf("eos_step = %v, want 0", ir.EOSStep)
	}
	if got := s.seqEOS.Value(); got != 1 {
		t.Errorf("seq_eos = %d, want 1", got)
	}
}

// TestSeqTaxonomy: the sequence-path error taxonomy — 404 for unknown
// models, 400 for shape errors and form confusion on both model kinds.
func TestSeqTaxonomy(t *testing.T) {
	s := newTestServer(t, Config{
		Shards: 1, Channels: 2,
		Models:    []ModelSpec{tiny},
		SeqModels: []models.Config{tinySeq},
		MaxSeqLen: 8,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, f64 := seqFrames(3, 4, tinySeq.Input)
	_, long := seqFrames(3, 9, tinySeq.Input)
	_, narrow := seqFrames(3, 4, tinySeq.Input-1)
	in, _ := testInput(tiny.K, 5)
	neg := -2
	cases := []struct {
		name string
		body string
		want int
	}{
		{"unknown model", seqBody(t, "nope", f64, nil), 404},
		{"frames to gemv model", seqBody(t, "tiny", f64, nil), 400},
		{"input to seq model", inferBody(t, "tinyseq", in), 400},
		{"wrong frame width", seqBody(t, "tinyseq", narrow, nil), 400},
		{"over max seq len", seqBody(t, "tinyseq", long, nil), 400},
		{"empty frames", `{"model":"tinyseq","frames":[]}`, 400},
		{"frames and input", `{"model":"tinyseq","frames":[[1]],"input":[1]}`, 400},
		{"negative eos", seqBody(t, "tinyseq", f64, &neg), 400},
	}
	for _, c := range cases {
		resp, body := postInfer(t, ts, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, body, c.want)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body not in taxonomy form: %s", c.name, body)
		}
	}
	eosBig := tinySeq.Output
	if resp, body := postInfer(t, ts, seqBody(t, "tinyseq", f64, &eosBig)); resp.StatusCode != 400 {
		t.Errorf("eos out of range: status %d (%s), want 400", resp.StatusCode, body)
	}

	t.Run("queue bound follows surviving capacity", testSeqHalfCapacity429)
}

// testSeqHalfCapacity429: admission applies the capacity-aware queue
// bound to sequence models as it does to GEMV models — with one of two
// shards evicted, a 4-deep queue bounces the third waiting sequence with
// 429 queue-full and Retry-After.
func testSeqHalfCapacity429(t *testing.T) {
	const depth = 4
	s := newTestServer(t, Config{
		Shards: 2, Channels: 1, QueueDepth: depth,
		Models:     []ModelSpec{},
		SeqModels:  []models.Config{tinySeq},
		Fault:      &fault.Config{Seed: 5, DeadShard: 0, DieAfterBatches: 1},
		EvictAfter: 1, RetryBackoff: time.Millisecond, ProbeInterval: 5 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The first sequence starts on shard 0, which dies under it: shard 0
	// is evicted for good and the sequence finishes on shard 1.
	_, f64 := seqFrames(3, 2, tinySeq.Input)
	if resp, body := postInfer(t, ts, seqBody(t, "tinyseq", f64, nil)); resp.StatusCode != 200 {
		t.Fatalf("status %d (%s) — sequence lost to the outage", resp.StatusCode, body)
	}
	if s.HealthyShards() != 1 {
		t.Fatalf("healthy shards = %d, want 1 of 2", s.HealthyShards())
	}

	sh := <-s.pool // withhold the survivor so a backlog builds
	var wg sync.WaitGroup
	send := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, body := postInfer(t, ts, seqBody(t, "tinyseq", f64, nil)); resp.StatusCode != 200 {
				t.Errorf("accepted sequence finished %d (%s), want 200", resp.StatusCode, body)
			}
		}()
	}
	send() // popped by the stepper, which blocks on the lease
	waitFor(t, func() bool { return s.queueDepth.Value() == 0 && s.seqAdmitted.Value() == 2 })
	for i := 0; i < depth/2; i++ {
		send()
	}
	waitFor(t, func() bool { return s.queueDepth.Value() == depth/2 })

	// Half the capacity, half the bound. The short timeout only matters
	// where the bound is not applied: the request then queues and expires.
	body := mustJSON(InferRequest{Model: "tinyseq", Frames: f64, TimeoutMs: 300})
	resp, raw := postInfer(t, ts, body)
	var er ErrorResponse
	_ = json.Unmarshal(raw, &er)
	if resp.StatusCode != http.StatusTooManyRequests || er.Reason != ShedQueueFull {
		t.Errorf("status %d reason %q (%s), want 429 queue-full at depth %d of %d", resp.StatusCode, er.Reason, raw, depth/2, depth)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	s.pool <- sh
	wg.Wait()
}

// TestModelsEndpoint: GET /v1/models lists both model kinds with shape,
// resident footprint, placement split, and the shard row budget.
func TestModelsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{
		Shards: 1, Channels: 2,
		Models:    []ModelSpec{tiny},
		SeqModels: []models.Config{tinySeq},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got struct {
		Models []struct {
			Name          string         `json:"name"`
			Type          string         `json:"type"`
			Layers        int            `json:"layers"`
			ResidentBytes int64          `json:"resident_bytes"`
			Placement     map[string]int `json:"placement"`
		} `json:"models"`
		Rows map[string]int `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Models) != 2 {
		t.Fatalf("listed %d models, want 2", len(got.Models))
	}
	byName := map[string]int{}
	for i, m := range got.Models {
		byName[m.Name] = i
	}
	g := got.Models[byName["tiny"]]
	if g.Type != "gemv" || g.ResidentBytes != 2*int64(tiny.M)*int64(tiny.K) {
		t.Errorf("gemv entry wrong: %+v", g)
	}
	q := got.Models[byName["tinyseq"]]
	if q.Type != "sequence" || q.Layers != 2 {
		t.Errorf("sequence entry wrong: %+v", q)
	}
	if q.Placement["pim"] != 3 || q.Placement["host"] == 0 {
		t.Errorf("placement split wrong: %+v (want 3 pim GEMVs: 1 per layer + output)", q.Placement)
	}
	if q.ResidentBytes <= 0 {
		t.Errorf("sequence resident_bytes = %d", q.ResidentBytes)
	}
	if got.Rows["live"] <= 0 || got.Rows["free"] <= 0 {
		t.Errorf("row budget missing: %+v", got.Rows)
	}
	if resp, _ := postInfer(t, ts, ""); resp.StatusCode != 405 {
		// POST /v1/models must be 405, not a silent 200.
		r2, err := ts.Client().Post(ts.URL+"/v1/models", "application/json", nil)
		if err == nil && r2.StatusCode != 405 {
			t.Errorf("POST /v1/models: status %d, want 405", r2.StatusCode)
		}
	}
}

// TestPerModelBatchWait: a ModelSpec.BatchWait override must reach that
// model's flush timer while other models keep the server-wide default —
// the regression for the hard-coded global 2ms wait.
func TestPerModelBatchWait(t *testing.T) {
	slow := ModelSpec{Name: "slow", M: 16, K: 32, Seed: 43, BatchWait: time.Hour}
	s := newTestServer(t, Config{
		Shards: 1, Channels: 4,
		BatchWait: time.Millisecond,
		Models:    []ModelSpec{tiny, slow},
	})
	var (
		mu    sync.Mutex
		waits []time.Duration
	)
	s.newTimer = func(d time.Duration) batchTimer {
		mu.Lock()
		waits = append(waits, d)
		mu.Unlock()
		f := newFakeBatchTimer()
		f.fire() // flush immediately so requests complete
		return f
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in, _ := testInput(tiny.K, 9)
	if resp, body := postInfer(t, ts, inferBody(t, "tiny", in)); resp.StatusCode != 200 {
		t.Fatalf("tiny: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postInfer(t, ts, inferBody(t, "slow", in)); resp.StatusCode != 200 {
		t.Fatalf("slow: status %d: %s", resp.StatusCode, body)
	}
	mu.Lock()
	defer mu.Unlock()
	want := map[time.Duration]bool{time.Millisecond: false, time.Hour: false}
	for _, d := range waits {
		if _, ok := want[d]; !ok {
			t.Errorf("timer armed with unexpected wait %v", d)
		}
		want[d] = true
	}
	if !want[time.Millisecond] || !want[time.Hour] {
		t.Errorf("timer waits %v: want both the default (1ms) and the override (1h)", waits)
	}
}

// TestHedgeSkipsStatefulSteps: hedging duplicates a step onto an idle
// shard, which holds none of a sequence's recurrent state — a hedged LSTM
// step would compute from zero state and could win with a wrong answer.
// With the hedge timer firing instantly and a spare shard idle, every
// sequence must still match its oracle bit for bit and no hedge may be
// launched.
func TestHedgeSkipsStatefulSteps(t *testing.T) {
	s := newTestServer(t, Config{
		Shards: 2, Channels: 2,
		Models:     []ModelSpec{},
		SeqModels:  []models.Config{tinySeq},
		HedgeDelay: time.Millisecond, // >0 enables hedging; the fake timer ignores it
	})
	s.newHedgeTimer = newInstantTimer
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	lengths := []int{5, 3, 6, 4}
	var wg sync.WaitGroup
	for i, n := range lengths {
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			f16, f64 := seqFrames(int64(300+i), n, tinySeq.Input)
			resp, body := postInfer(t, ts, seqBody(t, "tinyseq", f64, nil))
			if resp.StatusCode != 200 {
				t.Errorf("seq %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			checkSeqResponse(t, body, seqOracle(t, tinySeq, f16))
		}(i, n)
	}
	wg.Wait()
	if got := s.hedges.Value(); got != 0 {
		t.Errorf("serve_hedges_total = %d, want 0: a sequence step was hedged", got)
	}
}

// TestChaosSeqMigration is the chaos-matrix case for continuous
// batching: the shard serving a sequence dies mid-flight; the sequence
// must migrate (state and all) to the survivor and finish with
// bit-exact outputs — a fault costs latency, never correctness.
func TestChaosSeqMigration(t *testing.T) {
	fc := &fault.Config{
		Seed:      3,
		DeadShard: 0, DieAfterBatches: 2, ReviveAfterProbes: 0,
	}
	s := newTestServer(t, Config{
		Shards: 2, Channels: 2,
		SeqModels: []models.Config{tinySeq},
		Fault:     fc, EvictAfter: 1, MaxRetries: 3,
		RetryBackoff: time.Millisecond, ProbeInterval: 5 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	f16, f64 := seqFrames(31, 8, tinySeq.Input)
	resp, body := postInfer(t, ts, seqBody(t, "tinyseq", f64, nil))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d (%s) — sequence lost to the outage", resp.StatusCode, body)
	}
	ir := checkSeqResponse(t, body, seqOracle(t, tinySeq, f16))
	if ir.Migrations < 1 {
		t.Errorf("migrations = %d, want >= 1 (shard 0 died after step 2)", ir.Migrations)
	}
	if got := s.seqMigrations.Value(); got < 1 {
		t.Errorf("seq_migrations = %d, want >= 1", got)
	}
	if st := s.ShardStates(); st[0] != "evicted" {
		t.Errorf("shard states = %v, want shard 0 evicted", st)
	}
}

// TestChaosSeqShardEarnsHealthBack: sequence steps feed the shard health
// machine like batches do. One faulted step makes the shard suspect;
// okProbation clean steps later it is healthy again with its failure
// streak cleared, so a second fault much later is again a first failure
// (suspect), not the second consecutive one that evicts at EvictAfter=2.
func TestChaosSeqShardEarnsHealthBack(t *testing.T) {
	s := newTestServer(t, Config{
		Shards: 2, Channels: 2,
		Models:       []ModelSpec{},
		SeqModels:    []models.Config{tinySeq},
		RetryBackoff: time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// arm leases both shards (the pool hand-off orders the writes against
	// the stepper), gives shard 0 an injector that fails its next launch
	// — or none — and returns shard 0 first so the next episode leases
	// it. With other withheld, shard 0 is the only device.
	arm := func(inj *fault.Injector, withholdOther bool) (other *shard) {
		a, b := <-s.pool, <-s.pool
		if a.id != 0 {
			a, b = b, a
		}
		a.inj = inj
		s.pool <- a
		if withholdOther {
			return b
		}
		s.pool <- b
		return nil
	}
	oneFault := func() *fault.Injector { return fault.New(fault.Config{DieAfterBatches: 1}) }
	run := func(seed int64, wantMigrations int) {
		t.Helper()
		f16, f64 := seqFrames(seed, 2, tinySeq.Input)
		resp, body := postInfer(t, ts, seqBody(t, "tinyseq", f64, nil))
		if resp.StatusCode != 200 {
			t.Fatalf("status %d (%s)", resp.StatusCode, body)
		}
		if ir := checkSeqResponse(t, body, seqOracle(t, tinySeq, f16)); ir.Migrations != wantMigrations {
			t.Fatalf("migrations = %d, want %d", ir.Migrations, wantMigrations)
		}
	}

	arm(oneFault(), false)
	run(41, 1) // first step faults on shard 0, the sequence moves to shard 1
	if st := s.ShardStates(); st[0] != "suspect" {
		t.Fatalf("after one faulted step: shard states %v, want shard 0 suspect", st)
	}

	other := arm(nil, true)
	for i := 0; i < okProbation; i++ {
		run(int64(50+i), 0)
	}
	if st := s.ShardStates(); st[0] != "healthy" {
		t.Fatalf("after %d clean sequences: shard states %v, want shard 0 healthy again", okProbation, st)
	}
	s.pool <- other

	arm(oneFault(), false)
	run(61, 1)
	if st := s.ShardStates(); st[0] != "suspect" {
		t.Errorf("after a second, non-consecutive fault: shard states %v, want shard 0 suspect (not evicted)", st)
	}
	if got := s.evictions.Value(); got != 0 {
		t.Errorf("evictions = %d, want 0: the faults were not consecutive", got)
	}
}
