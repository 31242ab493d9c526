package loadgen

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"pimsim/internal/models"
	"pimsim/internal/serve"
)

// tiny is a fast GEMV model for pipeline tests: single block, single macro.
var tiny = serve.ModelSpec{Name: "tiny", M: 16, K: 32, Seed: 42}

// tinySeq is a fast two-layer LSTM stack for sequence-pipeline tests.
var tinySeq = models.Config{Name: "tinyseq", Input: 16, Hidden: []int{32, 16}, Output: 8, Seed: 42}

// boot starts an in-process server behind a loopback listener and returns
// its URL; the drain on cleanup is part of every run.
func boot(t *testing.T, cfg serve.Config) string {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return ts.URL
}

// runLoop boots a server with the given batch bound, drives it with the
// GEMV source (outputs verified against the oracle), and returns the
// report.
func runLoop(t *testing.T, maxBatch, requests, conc int, mode string, rate float64) *Report {
	t.Helper()
	url := boot(t, serve.Config{
		Shards: 1, Channels: 4, MaxBatch: maxBatch,
		Models:    []serve.ModelSpec{tiny},
		BatchWait: 2 * time.Millisecond,
	})
	rep, err := Run(Config{
		BaseURL: url, Source: GemvSource(tiny, conc, true),
		Mode: mode, Concurrency: conc, Requests: requests, RatePerSec: rate,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestLoadgenClosedLoop: every request must come back, verified, with a
// full accounting and sane latency quantiles.
func TestLoadgenClosedLoop(t *testing.T) {
	rep := runLoop(t, 4, 48, 6, "closed", 0)
	if rep.OK != rep.Sent || rep.Failures != 0 {
		t.Fatalf("closed loop: %s", rep)
	}
	if rep.WallP50Us <= 0 || rep.WallP99Us < rep.WallP50Us {
		t.Errorf("wall quantiles out of order: %s", rep)
	}
	if rep.CyclesP50 <= 0 {
		t.Errorf("no kernel cycle quantiles: %s", rep)
	}
	if rep.ThroughputRPS <= 0 || rep.SimThroughputRPS <= 0 {
		t.Errorf("no throughput: %s", rep)
	}
	if rep.Steps != int64(rep.OK) {
		t.Errorf("steps = %d, want one per GEMV request (%d)", rep.Steps, rep.OK)
	}
}

// TestLoadgenOpenLoop: fixed arrival rate; all arrivals must be
// accounted (ok/rejected/timeout), never silently lost.
func TestLoadgenOpenLoop(t *testing.T) {
	rep := runLoop(t, 4, 32, 8, "open", 2000)
	if got := rep.OK + rep.Rejected + rep.Timeouts + rep.Failures; got != rep.Sent {
		t.Fatalf("open loop dropped responses: %s", rep)
	}
	if rep.Failures != 0 {
		t.Errorf("open loop failures: %s", rep)
	}
}

// TestBatchingThroughputGain is the core serving claim: with the same
// shard count, dynamic batching must beat the batch-size-1 configuration
// on simulated-device throughput, because a full batch retires one
// request per pseudo channel in a single kernel (the channels' clocks
// advance in parallel). The BENCH_serve run asserts >= 2x at the CI
// config; here a conservative floor guards the mechanism itself against
// regression without timing flakiness.
func TestBatchingThroughputGain(t *testing.T) {
	batched := runLoop(t, 4, 64, 8, "closed", 0)
	serial := runLoop(t, 1, 64, 8, "closed", 0)
	if batched.OK != 64 || serial.OK != 64 {
		t.Fatalf("incomplete runs:\nbatched: %s\nserial: %s", batched, serial)
	}
	if batched.AvgBatch < 2 {
		t.Errorf("dynamic batcher never batched: avg %.2f", batched.AvgBatch)
	}
	if serial.AvgBatch != 1 {
		t.Errorf("maxBatch=1 config batched anyway: avg %.2f", serial.AvgBatch)
	}
	gain := batched.SimThroughputRPS / serial.SimThroughputRPS
	if gain < 1.5 {
		t.Errorf("batching gain %.2fx < 1.5x:\nbatched: %s\nserial: %s", gain, batched, serial)
	}
}

// TestParseSeqLenDist pins the -seqlen-dist grammar.
func TestParseSeqLenDist(t *testing.T) {
	good := map[string]SeqLenDist{
		"fixed:8":      {Kind: "fixed", A: 8, B: 8},
		"uniform:2:10": {Kind: "uniform", A: 2, B: 10},
	}
	for in, want := range good {
		got, err := ParseSeqLenDist(in)
		if err != nil || got != want {
			t.Errorf("ParseSeqLenDist(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "fixed", "fixed:0", "fixed:x", "uniform:5:2", "uniform:0:3", "poisson:4"} {
		if _, err := ParseSeqLenDist(bad); err == nil {
			t.Errorf("ParseSeqLenDist(%q) accepted", bad)
		}
	}
}

// TestSequenceLoad: the same driver on the sequence source, end to end
// with client-side oracle verification on — every response re-checked
// against the host session, zero drops, sane latency aggregation.
func TestSequenceLoad(t *testing.T) {
	url := boot(t, serve.Config{Shards: 1, Channels: 4, Models: []serve.ModelSpec{}, SeqModels: []models.Config{tinySeq}})
	src, err := SeqSource(tinySeq, 12, SeqLenDist{Kind: "uniform", A: 2, B: 6}, -1, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{BaseURL: url, Source: src, Requests: 12, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 12 || rep.BadOutputs != 0 || rep.Failures != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Steps < 2*12 || rep.Steps > 6*12 {
		t.Errorf("steps = %d, outside [24, 72] for uniform:2:6 lengths", rep.Steps)
	}
	if rep.ThroughputRPS <= 0 || rep.SimThroughputRPS <= 0 || rep.WallP50Us <= 0 || rep.StepP50Us <= 0 || rep.CyclesP50 <= 0 {
		t.Errorf("throughput/latency not aggregated: %+v", rep)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}
