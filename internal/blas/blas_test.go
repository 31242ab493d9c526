package blas

import (
	"math/rand"
	"testing"

	"pimsim/internal/engine"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/runtime"
)

// testRuntime builds a small functional system: one device trimmed to a
// few pseudo channels so functional kernels run fast.
func testRuntime(t *testing.T, channels int, functional bool) *runtime.Runtime {
	t.Helper()
	cfg := hbm.PIMHBMConfig(1000)
	cfg.PseudoChannels = channels
	cfg.Functional = functional
	dev, err := hbm.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := runtime.New([]*hbm.Device{dev})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func randVec(rng *rand.Rand, n int) fp16.Vector {
	v := fp16.NewVector(n)
	for i := range v {
		v[i] = fp16.FromFloat32(float32(rng.NormFloat64()))
	}
	return v
}

func TestPimGemvMatchesReference(t *testing.T) {
	cases := []struct{ M, K int }{
		{16, 8},    // single block, single pass
		{32, 16},   // two blocks
		{160, 64},  // fills one channel's units
		{130, 72},  // both dims need padding
		{300, 96},  // multiple macros (2ch x 8u x 16 = 256 < 300)
		{48, 1088}, // passes > 128: multiple invocations
		{64, 520},  // row switches (64 cols = 8 passes per row)
	}
	for _, c := range cases {
		rt := testRuntime(t, 2, true)
		rng := rand.New(rand.NewSource(int64(c.M*31 + c.K)))
		W := randVec(rng, c.M*c.K)
		x := randVec(rng, c.K)

		got, ks, err := PimGemv(rt, W, c.M, c.K, x)
		if err != nil {
			t.Fatalf("%dx%d: %v", c.M, c.K, err)
		}
		want := RefGemvPIMOrder(W, c.M, c.K, x, 8)
		for o := range want {
			if !fp16.Eq(got[o], want[o]) && got[o] != want[o] {
				t.Fatalf("%dx%d: y[%d] = %v, want %v", c.M, c.K, o, got[o], want[o])
			}
		}
		if ks.Cycles <= 0 || ks.Triggers <= 0 {
			t.Errorf("%dx%d: stats %+v", c.M, c.K, ks)
		}
		// PIM result should also be close to float32 math.
		f32 := HostGemvF32(W, c.M, c.K, x)
		if d := fp16.MaxAbsDiff(got, f32); d > 0.5 {
			t.Errorf("%dx%d: fp16 drift vs f32 = %v", c.M, c.K, d)
		}
	}
}

func TestPimGemvRejectsBadArgs(t *testing.T) {
	rt := testRuntime(t, 2, true)
	if _, _, err := PimGemv(rt, nil, 16, 8, nil); err == nil {
		t.Error("functional GEMV accepted nil operands")
	}
	if _, _, err := PimGemv(rt, fp16.NewVector(10), 16, 8, fp16.NewVector(8)); err == nil {
		t.Error("wrong W length accepted")
	}
	if _, _, err := PimGemv(rt, nil, 0, 8, nil); err == nil {
		t.Error("zero dim accepted")
	}
}

func TestPimAddMatchesReference(t *testing.T) {
	for _, n := range []int{100, 512, 8192, 9000} {
		rt := testRuntime(t, 2, true)
		rng := rand.New(rand.NewSource(int64(n)))
		a := randVec(rng, n)
		b := randVec(rng, n)
		got, ks, err := PimAdd(rt, a, b, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := RefAdd(a, b)
		for i := range want {
			if got[i] != want[i] && !(got[i].IsNaN() && want[i].IsNaN()) {
				t.Fatalf("n=%d: c[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
		if ks.Fences == 0 {
			t.Errorf("n=%d: no fences counted", n)
		}
	}
}

func TestPimMulMatchesReference(t *testing.T) {
	const n = 1000
	rt := testRuntime(t, 2, true)
	rng := rand.New(rand.NewSource(5))
	a := randVec(rng, n)
	b := randVec(rng, n)
	got, _, err := PimMul(rt, a, b, n)
	if err != nil {
		t.Fatal(err)
	}
	want := RefMul(a, b)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("c[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPimReLUMatchesReference(t *testing.T) {
	const n = 3000
	rt := testRuntime(t, 2, true)
	rng := rand.New(rand.NewSource(6))
	x := randVec(rng, n)
	got, _, err := PimReLU(rt, x, n)
	if err != nil {
		t.Fatal(err)
	}
	want := RefReLU(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("y[%d] = %v, want %v (x=%v)", i, got[i], want[i], x[i])
		}
	}
}

func TestPimBNMatchesReference(t *testing.T) {
	const n = 2000
	rt := testRuntime(t, 2, true)
	rng := rand.New(rand.NewSource(7))
	x := randVec(rng, n)
	gamma := fp16.FromFloat32(1.25)
	beta := fp16.FromFloat32(-0.5)
	got, _, err := PimBN(rt, x, n, gamma, beta)
	if err != nil {
		t.Fatal(err)
	}
	want := RefBN(x, gamma, beta)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPimLSTMCellMatchesHostMath(t *testing.T) {
	const H, X = 32, 48
	rt := testRuntime(t, 2, true)
	rng := rand.New(rand.NewSource(8))
	w := LSTMWeights{
		Wx: randVec(rng, 4*H*X),
		Wh: randVec(rng, 4*H*H),
		B:  randVec(rng, 4*H),
		X:  X, H: H,
	}
	x := randVec(rng, X)
	h := randVec(rng, H)
	c := randVec(rng, H)

	ph, pc, ks, err := PimLSTMCell(rt, w, x, h, c)
	if err != nil {
		t.Fatal(err)
	}
	hh, hc, err := HostLSTMCell(w, x, h, c)
	if err != nil {
		t.Fatal(err)
	}
	// PIM accumulates in fp16, host in f32; gate saturation keeps the
	// divergence small.
	if d := fp16.MaxAbsDiff(ph, hh); d > 0.05 {
		t.Errorf("h diverged by %v", d)
	}
	if d := fp16.MaxAbsDiff(pc, hc); d > 0.10 {
		t.Errorf("c diverged by %v", d)
	}
	if ks.Cycles <= 0 {
		t.Error("no cycles measured")
	}
}

func TestTimingOnlyKernels(t *testing.T) {
	rt := testRuntime(t, 2, false)
	_, ks, err := PimGemv(rt, nil, 256, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 256/8 = 32 passes x 16 triggers per channel.
	if want := int64(2 * 32 * 16); ks.Triggers != want {
		t.Errorf("triggers = %d, want %d", ks.Triggers, want)
	}
	if ks.Cycles <= 0 {
		t.Error("no cycles")
	}
	if _, _, err := PimAdd(rt, nil, nil, 1<<16); err != nil {
		t.Fatal(err)
	}
}

func TestGemvThroughputSane(t *testing.T) {
	rt := testRuntime(t, 1, false)
	const M, K = 128, 4096
	_, ks, err := PimGemv(rt, nil, M, K, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Weight bytes consumed by the channel's units.
	weightBytes := float64(M * K * 2)
	bpc := weightBytes / float64(ks.Cycles)
	// The fenced kernel should land between ~0.5x and ~4x of the off-chip
	// per-channel streaming rate (16 B/cycle at 1 GHz): well above a
	// bandwidth-starved design, below the no-overhead 64 B/cycle ceiling.
	if bpc < 8 || bpc > 64 {
		t.Errorf("GEMV weight throughput = %.1f B/cycle, expected 8-64", bpc)
	}
}

func TestGuaranteeOrderSpeedsUpGemv(t *testing.T) {
	run := func(order bool) int64 {
		rt := testRuntime(t, 1, false)
		rt.SetGuaranteeOrder(order)
		_, ks, err := PimGemv(rt, nil, 128, 4096, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ks.Cycles
	}
	fenced := run(false)
	free := run(true)
	speedup := float64(fenced) / float64(free)
	// Section VII-B: removing fences yields around 2x on microbenchmarks.
	if speedup < 1.3 || speedup > 3.5 {
		t.Errorf("fence-removal speedup = %.2f, expected ~2x", speedup)
	}
}

func TestAddStoresDoNotCorruptInputs(t *testing.T) {
	// The ADD result region (odd columns 32-63) must not alias b (odd
	// columns 0-31): add twice and re-check.
	const n = 600
	rt := testRuntime(t, 2, true)
	rng := rand.New(rand.NewSource(11))
	a := randVec(rng, n)
	b := randVec(rng, n)
	first, _, err := PimAdd(rt, a, b, n)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := PimAdd(rt, a, b, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("run-to-run mismatch at %d: %v vs %v", i, first[i], second[i])
		}
	}
}

// TestParallelKernelsDeterministic: driving each channel from its own
// goroutine must not change results or cycle counts — channels are fully
// independent simulated clock domains.
func TestParallelKernelsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	const M, K = 192, 128
	W := randVec(rng, M*K)
	x := randVec(rng, K)

	seqRT := testRuntime(t, 4, true)
	seqY, seqKS, err := PimGemv(seqRT, W, M, K, x)
	if err != nil {
		t.Fatal(err)
	}

	parRT := testRuntime(t, 4, true)
	parRT.UseEngine(engine.NewParallel(4))
	defer parRT.CloseEngine()
	parY, parKS, err := PimGemv(parRT, W, M, K, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqY {
		if parY[i] != seqY[i] {
			t.Fatalf("y[%d] differs under parallel execution", i)
		}
	}
	if parKS.Cycles != seqKS.Cycles || parKS.Triggers != seqKS.Triggers {
		t.Errorf("stats differ: %+v vs %+v", parKS, seqKS)
	}

	// Same for an elementwise kernel.
	const n = 5000
	a := randVec(rng, n)
	b := randVec(rng, n)
	c1, k1, err := PimAdd(testRuntime(t, 4, true), a, b, n)
	if err != nil {
		t.Fatal(err)
	}
	rt2 := testRuntime(t, 4, true)
	rt2.UseEngine(engine.NewParallel(4))
	defer rt2.CloseEngine()
	c2, k2, err := PimAdd(rt2, a, b, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("c[%d] differs under parallel execution", i)
		}
	}
	if k1.Cycles != k2.Cycles {
		t.Errorf("ADD cycles differ: %d vs %d", k1.Cycles, k2.Cycles)
	}
}

// TestTimingFunctionalCycleParity: the timing-only fast path issues the
// exact command stream the functional path does — data never affects
// timing. Cycle counts match to within refresh-phase alignment (the
// functional region starts after the layout writes, so tREFI boundaries
// fall at different offsets inside the two regions).
func TestTimingFunctionalCycleParity(t *testing.T) {
	const M, K = 128, 256
	rng := rand.New(rand.NewSource(66))
	W := randVec(rng, M*K)
	x := randVec(rng, K)

	fRT := testRuntime(t, 2, true)
	_, fKS, err := PimGemv(fRT, W, M, K, x)
	if err != nil {
		t.Fatal(err)
	}
	tRT := testRuntime(t, 2, false)
	_, tKS, err := PimGemv(tRT, nil, M, K, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fKS.Triggers != tKS.Triggers || fKS.Fences != tKS.Fences {
		t.Errorf("command counts differ: functional %+v vs timing-only %+v", fKS, tKS)
	}
	if d := fKS.Cycles - tKS.Cycles; d > 64 || d < -64 {
		t.Errorf("cycles diverged by %d: functional %d vs timing-only %d", d, fKS.Cycles, tKS.Cycles)
	}

	const n = 4000
	a, b := randVec(rng, n), randVec(rng, n)
	_, fK2, err := PimAdd(testRuntime(t, 2, true), a, b, n)
	if err != nil {
		t.Fatal(err)
	}
	_, tK2, err := PimAdd(testRuntime(t, 2, false), nil, nil, n)
	if err != nil {
		t.Fatal(err)
	}
	if d := fK2.Cycles - tK2.Cycles; d > 64 || d < -64 {
		t.Errorf("ADD cycles diverged by %d: functional %d vs timing-only %d", d, fK2.Cycles, tK2.Cycles)
	}
}
