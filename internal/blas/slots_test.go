package blas

import (
	"bytes"
	"math/rand"
	"testing"

	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/runtime"
)

func newSlotsRT(t *testing.T, channels int) *runtime.Runtime {
	t.Helper()
	cfg := hbm.PIMHBMConfig(1200)
	cfg.PseudoChannels = channels
	cfg.Functional = true
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

// TestRunSlotsSparseBitExact: a sparse slot map must produce, on every
// occupied channel, exactly the output a dense batch produces — the
// result is channel-independent and idle channels change nothing.
func TestRunSlotsSparseBitExact(t *testing.T) {
	const M, K, C = 48, 24, 4
	rt := newSlotsRT(t, C)
	rng := rand.New(rand.NewSource(5))
	W := fp16.NewVector(M * K)
	for i := range W {
		W[i] = fp16.FromFloat32(float32(rng.NormFloat64() * 0.25))
	}
	g, err := LoadGemv(rt, W, M, K)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]fp16.Vector, C)
	want := make([]fp16.Vector, C)
	for ch := 0; ch < C; ch++ {
		if ch == 1 {
			continue // idle slot in the middle of the map
		}
		x := fp16.NewVector(K)
		for i := range x {
			x[i] = fp16.FromFloat32(float32(rng.NormFloat64()))
		}
		xs[ch] = x
		want[ch] = RefGemvPIMOrder(W, M, K, x, GRFDepth(rt))
	}
	ys, ks, err := g.RunSlots(rt, xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ys) != C {
		t.Fatalf("got %d outputs, want %d (aligned with slots)", len(ys), C)
	}
	if ys[1] != nil {
		t.Error("idle slot produced an output")
	}
	for ch := 0; ch < C; ch++ {
		if xs[ch] == nil {
			continue
		}
		for i := range want[ch] {
			if ys[ch][i] != want[ch][i] {
				t.Fatalf("slot %d output %d: %v != oracle %v", ch, i, ys[ch][i], want[ch][i])
			}
		}
	}
	if ks.Cycles <= 0 {
		t.Error("no cycles accounted")
	}
}

func TestRunSlotsRejects(t *testing.T) {
	const M, K, C = 16, 16, 2
	rt := newSlotsRT(t, C)
	W := fp16.NewVector(M * K)
	g, err := LoadGemv(rt, W, M, K)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.RunSlots(rt, make([]fp16.Vector, C)); err == nil {
		t.Error("all-idle slot map accepted")
	}
	if _, _, err := g.RunSlots(rt, make([]fp16.Vector, C+1)); err == nil {
		t.Error("slot map wider than the channel count accepted")
	}
	if _, _, err := g.RunSlots(rt, []fp16.Vector{fp16.NewVector(K + 1)}); err == nil {
		t.Error("wrong-length input accepted")
	}
}

// TestRunSlotsAllocsIndependentOfK: the input splats are written into the
// channel's reused runtime.Payloads buffer, so at 256 rows a launch at
// K = 256 costs about the allocations of one at K = 64; they used to be
// 2K+1 more (+387 here). The few that remain follow simulated time, not
// K: a longer kernel crosses more refresh intervals, and each refresh
// allocates.
func TestRunSlotsAllocsIndependentOfK(t *testing.T) {
	const M = 256
	allocs := func(K int) float64 {
		rt := newSlotsRT(t, 1)
		rng := rand.New(rand.NewSource(9))
		g, err := LoadGemv(rt, randVec(rng, M*K), M, K)
		if err != nil {
			t.Fatal(err)
		}
		xs := []fp16.Vector{randVec(rng, K)}
		return testing.AllocsPerRun(5, func() {
			if _, _, err := g.RunSlots(rt, xs); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(64), allocs(256); large > small+16 {
		t.Errorf("RunSlots allocates %v times at K=64 and %v at K=256; want no growth with K", small, large)
	}
}

// TestSplatsOverwriteReusedBuffer: a Payloads buffer comes back holding
// what the last launch wrote, so splats must write every lane of every
// payload, the zero padding past len(x) included.
func TestSplatsOverwriteReusedBuffer(t *testing.T) {
	out := make([][]byte, 5)
	for k := range out {
		out[k] = bytes.Repeat([]byte{0xA5}, 2*fp16.Lanes)
	}
	x := fp16.Vector{0x3C00, 0x8001, 0x7E01}
	splats(out, x)
	for k, p := range out {
		want := fp16.Zero
		if k < len(x) {
			want = x[k]
		}
		for l, h := range fp16.VectorFromBytes(p) {
			if h != want {
				t.Fatalf("payload %d lane %d = %#04x, want %#04x", k, l, uint16(h), uint16(want))
			}
		}
	}
}
