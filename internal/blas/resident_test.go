package blas

import (
	"math/rand"
	"testing"

	"pimsim/internal/engine"
	"pimsim/internal/fp16"
)

// TestResidentGemvMatchesReference checks that every lane of a batched
// resident launch is bit-exact against the PIM-order oracle, across
// batch sizes and layouts with and without multiple macro passes.
func TestResidentGemvMatchesReference(t *testing.T) {
	cases := []struct {
		M, K  int
		batch int
	}{
		{16, 8, 1},    // single block, batch 1
		{29, 64, 4},   // small-M serving shape, full batch
		{48, 72, 3},   // padding on both dims, partial batch
		{160, 520, 2}, // row switches and >U blocks (2 macros per channel)
		{48, 1088, 4}, // passes > 128: multiple CRF invocations
	}
	for _, c := range cases {
		rt := testRuntime(t, 4, true)
		rng := rand.New(rand.NewSource(int64(c.M*17 + c.K + c.batch)))
		W := randVec(rng, c.M*c.K)
		g, err := LoadGemv(rt, W, c.M, c.K)
		if err != nil {
			t.Fatalf("%dx%d: %v", c.M, c.K, err)
		}
		xs := make([]fp16.Vector, c.batch)
		for i := range xs {
			xs[i] = randVec(rng, c.K)
		}
		ys, ks, err := g.RunBatch(rt, xs)
		if err != nil {
			t.Fatalf("%dx%d batch %d: %v", c.M, c.K, c.batch, err)
		}
		if len(ys) != c.batch {
			t.Fatalf("%dx%d: %d outputs for batch %d", c.M, c.K, len(ys), c.batch)
		}
		for i, x := range xs {
			want := RefGemvPIMOrder(W, c.M, c.K, x, GRFDepth(rt))
			for o := range want {
				if ys[i][o] != want[o] {
					t.Fatalf("%dx%d batch %d: y[%d][%d] = %v, want %v",
						c.M, c.K, c.batch, i, o, ys[i][o], want[o])
				}
			}
		}
		if ks.Cycles <= 0 || ks.Triggers <= 0 {
			t.Errorf("%dx%d: empty kernel stats %+v", c.M, c.K, ks)
		}
	}
}

// TestResidentGemvRepeatedRuns re-runs the same resident model many times
// with fresh inputs: weights must stay intact (no per-run relayout) and
// every run stays bit-exact.
func TestResidentGemvRepeatedRuns(t *testing.T) {
	rt := testRuntime(t, 2, true)
	const M, K = 32, 96
	rng := rand.New(rand.NewSource(5))
	W := randVec(rng, M*K)
	g, err := LoadGemv(rt, W, M, K)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 8; run++ {
		xs := []fp16.Vector{randVec(rng, K), randVec(rng, K)}
		ys, _, err := g.RunBatch(rt, xs)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for i, x := range xs {
			want := RefGemvPIMOrder(W, M, K, x, GRFDepth(rt))
			for o := range want {
				if ys[i][o] != want[o] {
					t.Fatalf("run %d lane %d drifted at output %d", run, i, o)
				}
			}
		}
	}
}

// TestResidentGemvCoexistsWithAdHocKernels pins the allocator contract
// the serving layer depends on: an ad-hoc PimGemv between batched runs
// must not clobber resident weights (each kernel frees only its own rows).
func TestResidentGemvCoexistsWithAdHocKernels(t *testing.T) {
	rt := testRuntime(t, 2, true)
	const M, K = 32, 64
	rng := rand.New(rand.NewSource(7))
	W := randVec(rng, M*K)
	g, err := LoadGemv(rt, W, M, K)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(rng, K)
	want := RefGemvPIMOrder(W, M, K, x, GRFDepth(rt))

	check := func(tag string) {
		ys, _, err := g.RunBatch(rt, []fp16.Vector{x})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		for o := range want {
			if ys[0][o] != want[o] {
				t.Fatalf("%s: resident weights clobbered at output %d", tag, o)
			}
		}
	}
	check("before ad-hoc kernel")

	W2, x2 := randVec(rng, 64*128), randVec(rng, 128)
	if _, _, err := PimGemv(rt, W2, 64, 128, x2); err != nil {
		t.Fatal(err)
	}
	check("after ad-hoc PimGemv")
}

// TestResidentGemvLoadUnload cycles load/run/unload and checks rows are
// returned, reuse works, and stale handles fail loudly.
func TestResidentGemvLoadUnload(t *testing.T) {
	rt := testRuntime(t, 2, true)
	freeBefore := rt.Drv.PIMRowsFree()
	const M, K = 32, 64
	rng := rand.New(rand.NewSource(9))
	W := randVec(rng, M*K)

	for cycle := 0; cycle < 5; cycle++ {
		g, err := LoadGemv(rt, W, M, K)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if g.Rows() <= 0 {
			t.Fatalf("cycle %d: resident model occupies %d rows", cycle, g.Rows())
		}
		if _, _, err := g.RunBatch(rt, []fp16.Vector{randVec(rng, K)}); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if err := g.Unload(rt); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if got := rt.Drv.PIMRowsFree(); got != freeBefore {
			t.Fatalf("cycle %d leaked PIM rows: %d free, want %d", cycle, got, freeBefore)
		}
	}

	g, err := LoadGemv(rt, W, M, K)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Unload(rt); err != nil {
		t.Fatal(err)
	}
	if err := g.Unload(rt); err == nil {
		t.Error("double unload accepted")
	}
	if _, _, err := g.RunBatch(rt, []fp16.Vector{randVec(rng, K)}); err == nil {
		t.Error("RunBatch on an unloaded model accepted")
	}
}

// TestResidentGemvBatchValidation covers the kernel-shape bound and
// operand checks.
func TestResidentGemvBatchValidation(t *testing.T) {
	rt := testRuntime(t, 2, true)
	rng := rand.New(rand.NewSource(3))
	const M, K = 16, 32
	g, err := LoadGemv(rt, randVec(rng, M*K), M, K)
	if err != nil {
		t.Fatal(err)
	}
	ok := randVec(rng, K)
	if _, _, err := g.RunBatch(rt, []fp16.Vector{ok, ok, ok}); err == nil {
		t.Error("batch larger than the channel count accepted")
	}
	if _, _, err := g.RunBatch(rt, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, _, err := g.RunBatch(rt, []fp16.Vector{randVec(rng, K-1)}); err == nil {
		t.Error("wrong-length input accepted")
	}
	if _, err := LoadGemv(testRuntime(t, 2, false), randVec(rng, M*K), M, K); err == nil {
		t.Error("LoadGemv accepted a timing-only device")
	}
}

// TestLoadGemvChannelParallel: a replicated layout written by every
// channel at once through the parallel engine leaves each channel where
// the one-channel-after-another load leaves it (clock, command census,
// refreshes) and holding the same weights: a full batch is bit-exact
// against the oracle on both.
func TestLoadGemvChannelParallel(t *testing.T) {
	const M, K = 160, 520 // two macros a channel, rows that switch mid-macro
	rng := rand.New(rand.NewSource(24))
	W := randVec(rng, M*K)
	xs := []fp16.Vector{randVec(rng, K), randVec(rng, K), randVec(rng, K), randVec(rng, K)}

	serial, parallel := testRuntime(t, 4, true), testRuntime(t, 4, true)
	parallel.UseEngine(engine.NewParallel(4))
	defer parallel.CloseEngine()
	gs, err := LoadGemv(serial, W, M, K)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := LoadGemv(parallel, W, M, K)
	if err != nil {
		t.Fatal(err)
	}
	for ch := range serial.Chans {
		cs, cp := serial.Chans[ch], parallel.Chans[ch]
		if cs.Now() != cp.Now() || cs.PCH().Stats() != cp.PCH().Stats() || cs.Refreshes() != cp.Refreshes() {
			t.Errorf("ch%d after load: serial cycle %d %+v, parallel cycle %d %+v",
				ch, cs.Now(), cs.PCH().Stats(), cp.Now(), cp.PCH().Stats())
		}
		if cs.PCH().Stats().WR == 0 {
			t.Errorf("ch%d: the load wrote nothing", ch)
		}
	}
	ys, _, err := gs.RunBatch(serial, xs)
	if err != nil {
		t.Fatal(err)
	}
	yp, _, err := gp.RunBatch(parallel, xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		want := RefGemvPIMOrder(W, M, K, x, GRFDepth(serial))
		for o := range want {
			if ys[i][o] != want[o] || yp[i][o] != want[o] {
				t.Fatalf("y[%d][%d]: serial %v, parallel %v, want %v", i, o, ys[i][o], yp[i][o], want[o])
			}
		}
	}
}
