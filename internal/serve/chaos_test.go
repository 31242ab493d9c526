package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pimsim/internal/blas"
	"pimsim/internal/fault"
	"pimsim/internal/models"
)

// The chaos matrix: every test injects a deterministic fault profile and
// asserts the serving layer's contract under it — no accepted request is
// ever lost or answered with wrong data; faults cost availability (503)
// or latency, never correctness.

func tinyOracle(t *testing.T, seed int64) ([]float64, []float64) {
	t.Helper()
	in, x16 := testInput(tiny.K, seed)
	want := blas.RefGemvPIMOrder(tiny.Weights(), tiny.M, tiny.K, x16, 8)
	out := make([]float64, len(want))
	for i, v := range want {
		out[i] = float64(v.Float32())
	}
	return in, out
}

func checkOutput(t *testing.T, body []byte, want []float64) {
	t.Helper()
	var ir InferResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatalf("bad response body: %v: %s", err, body)
	}
	if len(ir.Output) != len(want) {
		t.Fatalf("output length %d, want %d", len(ir.Output), len(want))
	}
	for i := range want {
		if ir.Output[i] != want[i] {
			t.Fatalf("output[%d] = %v, want %v (a fault leaked into served data)", i, ir.Output[i], want[i])
		}
	}
}

// TestChaosShardDeathRedispatch: a shard dies mid-service and never
// revives. Every request must still be answered 200 with correct data —
// the failed batch is re-dispatched to the surviving shard — and the
// dead shard must end up evicted.
func TestChaosShardDeathRedispatch(t *testing.T) {
	fc := &fault.Config{
		Seed:      1,
		DeadShard: 0, DieAfterBatches: 1, ReviveAfterProbes: 0,
	}
	s := newTestServer(t, Config{
		Shards: 2, Channels: 2, Models: []ModelSpec{tiny},
		BatchWait: time.Millisecond,
		Fault:     fc, EvictAfter: 1, MaxRetries: 3,
		RetryBackoff: time.Millisecond, ProbeInterval: 5 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in, want := tinyOracle(t, 11)
	for i := 0; i < 8; i++ {
		resp, body := postInfer(t, ts, inferBody(t, "tiny", in))
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d (%s) — request lost to the outage", i, resp.StatusCode, body)
		}
		checkOutput(t, body, want)
	}

	if got := s.evictions.Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if s.retries.Value() < 1 || s.redispatched.Value() < 1 {
		t.Errorf("retries = %d, redispatched = %d; the dead shard's batch was not re-dispatched",
			s.retries.Value(), s.redispatched.Value())
	}
	if got := s.HealthyShards(); got != 1 {
		t.Errorf("healthy shards = %d, want 1", got)
	}
	if st := s.ShardStates(); st[0] != "evicted" {
		t.Errorf("shard states = %v, want shard 0 evicted", st)
	}
}

// TestChaosAllShardsEvicted: with the only shard dead and revival
// disabled, in-flight work fails 503 (bounded, not hung), new work is
// refused 503 at admission, and healthz reports unavailable.
func TestChaosAllShardsEvicted(t *testing.T) {
	fc := &fault.Config{
		Seed:      2,
		DeadShard: 0, DieAfterBatches: 1, ReviveAfterProbes: 0,
	}
	s := newTestServer(t, Config{
		Shards: 1, Channels: 1, Models: []ModelSpec{tiny},
		BatchWait: time.Millisecond,
		Fault:     fc, EvictAfter: 1, MaxRetries: 1,
		RetryBackoff: time.Millisecond, RetryLeaseWait: 30 * time.Millisecond,
		ProbeInterval: 5 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in, _ := tinyOracle(t, 12)
	resp, body := postInfer(t, ts, inferBody(t, "tiny", in))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, body)
	}
	waitFor(t, func() bool { return s.HealthyShards() == 0 })

	// Admission now fails fast: there is no device to run on.
	resp, body = postInfer(t, ts, inferBody(t, "tiny", in))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("admission with zero healthy shards: status %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if hz, _ := ts.Client().Get(ts.URL + "/healthz"); hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz with zero healthy shards: %d, want 503", hz.StatusCode)
	}
}

// TestChaosOutageRecovery: the only shard dies, the prober's probation
// probes ride out the outage, and the shard revives — the in-flight
// request survives the whole episode and completes 200.
func TestChaosOutageRecovery(t *testing.T) {
	fc := &fault.Config{
		Seed:      3,
		DeadShard: 0, DieAfterBatches: 1, ReviveAfterProbes: 2,
	}
	s := newTestServer(t, Config{
		Shards: 1, Channels: 1, Models: []ModelSpec{tiny},
		BatchWait: time.Millisecond,
		Fault:     fc, EvictAfter: 1, MaxRetries: 5,
		RetryBackoff: time.Millisecond, RetryLeaseWait: 5 * time.Second,
		ProbeInterval: 2 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in, want := tinyOracle(t, 13)
	resp, body := postInfer(t, ts, inferBody(t, "tiny", in))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d (%s) — request did not survive the outage", resp.StatusCode, body)
	}
	checkOutput(t, body, want)

	if got := s.revivals.Value(); got != 1 {
		t.Errorf("revivals = %d, want 1", got)
	}
	if got := s.HealthyShards(); got != 1 {
		t.Errorf("healthy shards after revival = %d, want 1", got)
	}
	// Post-recovery the shard serves directly, no retries needed.
	resp, body = postInfer(t, ts, inferBody(t, "tiny", in))
	if resp.StatusCode != 200 {
		t.Fatalf("post-recovery status %d (%s)", resp.StatusCode, body)
	}
	checkOutput(t, body, want)
	if hz, _ := ts.Client().Get(ts.URL + "/healthz"); hz.StatusCode != 200 {
		t.Errorf("healthz after recovery: %d, want 200", hz.StatusCode)
	}
}

// TestChaosLatencySpikeSuspect: a shard whose every command issues late
// is demoted to suspect by the latency baseline — but keeps serving, so
// no in-flight work is lost.
func TestChaosLatencySpikeSuspect(t *testing.T) {
	// Every 4th command pays 3000 extra cycles — painful but below tREFI,
	// so refresh still keeps up (a spike of a full tREFI on every command
	// would wedge the channel, which is the outage test's territory).
	fc := &fault.Config{
		Seed:       4,
		SpikeShard: -1, SpikeEvery: 4, SpikeCycles: 3000,
	}
	s := newTestServer(t, Config{
		Shards: 1, Channels: 2, Models: []ModelSpec{tiny},
		BatchWait: time.Millisecond,
		Fault:     fc, SuspectCycleFactor: 3,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Pretend the model's fault-free latency baseline is known (every
	// batch in this test is spiked, so the baseline could never form).
	s.mods["tiny"].minCycles.Store(100)

	in, want := tinyOracle(t, 14)
	resp, body := postInfer(t, ts, inferBody(t, "tiny", in))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d (%s) — slow is not broken; the request must complete", resp.StatusCode, body)
	}
	checkOutput(t, body, want)

	if st := s.ShardStates(); st[0] != "suspect" {
		t.Errorf("shard state = %v, want suspect after a spiked batch", st)
	}
	if got := s.suspects.Value(); got < 1 {
		t.Errorf("suspect demotions = %d, want >= 1", got)
	}
	if got := s.HealthyShards(); got != 1 {
		t.Errorf("healthy shards = %d, want 1 (suspect still serves)", got)
	}
}

// TestChaosUncorrectableQuarantineRelocate: a permanently stuck pair of
// bits in one ECC word of the model's first weight row. Batches on it
// fail typed (never silently wrong), the shard is evicted, and the
// probe-driven recovery quarantines the poisoned row and relocates the
// weights — after which the same request succeeds with correct data.
func TestChaosUncorrectableQuarantineRelocate(t *testing.T) {
	fc := &fault.Config{
		Seed: 5,
		// Two stuck bits in word 0 of (bank 0, row 2048, col 0): row 2048
		// is the first PIM row, where first-fit puts tiny's weights.
		Stuck: []fault.StuckBit{
			{Shard: -1, Channel: -1, Bank: 0, Row: 2048, Col: 0, Bit: 3},
			{Shard: -1, Channel: -1, Bank: 0, Row: 2048, Col: 0, Bit: 12},
		},
	}
	s := newTestServer(t, Config{
		Shards: 1, Channels: 1, Models: []ModelSpec{tiny},
		BatchWait: time.Millisecond,
		Fault:     fc, EvictAfter: 2, MaxRetries: 4,
		RetryBackoff: time.Millisecond, RetryLeaseWait: 5 * time.Second,
		ProbeInterval: 2 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if !s.shards[0].models["tiny"].OwnsRow(2048) {
		t.Fatal("tiny's weights not on row 2048 — stuck-cell address no longer matches the layout")
	}

	in, want := tinyOracle(t, 15)
	resp, body := postInfer(t, ts, inferBody(t, "tiny", in))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d (%s) — recovery did not rescue the request", resp.StatusCode, body)
	}
	checkOutput(t, body, want)

	drv := s.shards[0].rt.Drv
	if got := drv.PIMRowsQuarantined(); got != 1 {
		t.Errorf("quarantined rows = %d, want 1", got)
	}
	if s.shards[0].models["tiny"].OwnsRow(2048) {
		t.Error("weights still resident on the poisoned row after relocation")
	}
	if got := s.evictions.Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if got := s.revivals.Value(); got != 1 {
		t.Errorf("revivals = %d, want 1", got)
	}
	if got := s.eccUncorrC.Value(); got < 2 {
		t.Errorf("serve_ecc_uncorrectable_total = %d, want >= 2", got)
	}
	// The relocated weights serve cleanly.
	resp, body = postInfer(t, ts, inferBody(t, "tiny", in))
	if resp.StatusCode != 200 {
		t.Fatalf("post-relocation status %d (%s)", resp.StatusCode, body)
	}
	checkOutput(t, body, want)
}

// TestChaosSequenceQuarantineRelocate is the same drill on a server that
// holds only a sequence model: two stuck bits in one ECC word of the
// first row of layer 0's weights. The sequence's failing steps evict the
// shard, the prober's known-answer step blames the row twice, quarantines
// it and reloads the plan past it, and the sequence, migrated onto the
// recovered shard, finishes bit-exact.
func TestChaosSequenceQuarantineRelocate(t *testing.T) {
	fc := &fault.Config{
		Seed: 5,
		// Row 2048 is the first PIM row, where first-fit puts layer 0.
		Stuck: []fault.StuckBit{
			{Shard: -1, Channel: -1, Bank: 0, Row: 2048, Col: 0, Bit: 3},
			{Shard: -1, Channel: -1, Bank: 0, Row: 2048, Col: 0, Bit: 12},
		},
	}
	s := newTestServer(t, Config{
		Shards: 1, Channels: 2,
		Models:    []ModelSpec{},
		SeqModels: []models.Config{tinySeq},
		Fault:     fc, EvictAfter: 2, MaxRetries: 4,
		RetryBackoff: time.Millisecond, RetryLeaseWait: 5 * time.Second,
		ProbeInterval: 2 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if !s.shards[0].models[tinySeq.Name].OwnsRow(2048) {
		t.Fatal("layer 0 not on row 2048 — stuck-cell address no longer matches the layout")
	}

	f16, f64 := seqFrames(15, 4, tinySeq.Input)
	resp, body := postInfer(t, ts, seqBody(t, tinySeq.Name, f64, nil))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d (%s) — recovery did not rescue the sequence", resp.StatusCode, body)
	}
	checkSeqResponse(t, body, seqOracle(t, tinySeq, f16))

	if got := s.shards[0].rt.Drv.PIMRowsQuarantined(); got != 1 {
		t.Errorf("quarantined rows = %d, want 1", got)
	}
	if s.shards[0].models[tinySeq.Name].OwnsRow(2048) {
		t.Error("model still resident on the poisoned row after relocation")
	}
	if got := s.evictions.Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if got := s.revivals.Value(); got != 1 {
		t.Errorf("revivals = %d, want 1", got)
	}
	// The relocated model serves cleanly.
	f16, f64 = seqFrames(16, 3, tinySeq.Input)
	resp, body = postInfer(t, ts, seqBody(t, tinySeq.Name, f64, nil))
	if resp.StatusCode != 200 {
		t.Fatalf("post-relocation status %d (%s)", resp.StatusCode, body)
	}
	if ir := checkSeqResponse(t, body, seqOracle(t, tinySeq, f16)); ir.Migrations != 0 {
		t.Errorf("post-relocation sequence migrated %d times, want 0", ir.Migrations)
	}
}

// TestChaosCorrectedFlipsInvisible: a heavy single-bit flip rate under
// ECC must be completely invisible to clients — every response correct,
// no retries, only the corrected counter moves.
func TestChaosCorrectedFlipsInvisible(t *testing.T) {
	fc := &fault.Config{Seed: 6, FlipRate: 1e-2}
	s := newTestServer(t, Config{
		Shards: 1, Channels: 2, Models: []ModelSpec{tiny},
		BatchWait: time.Millisecond, Fault: fc,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in, want := tinyOracle(t, 16)
	for i := 0; i < 4; i++ {
		resp, body := postInfer(t, ts, inferBody(t, "tiny", in))
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, body)
		}
		checkOutput(t, body, want)
	}
	if got := s.eccCorrC.Value(); got == 0 {
		t.Error("flip rate 1e-2 produced zero ECC corrections — the injector is not wired into the serve path")
	}
	if got := s.retries.Value(); got != 0 {
		t.Errorf("corrected flips caused %d retries, want 0", got)
	}
	if got := s.evictions.Value(); got != 0 {
		t.Errorf("corrected flips caused %d evictions, want 0", got)
	}
}
