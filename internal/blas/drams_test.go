package blas

import (
	"math/rand"
	"testing"

	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/runtime"
)

// TestGemvAcrossDRAMFamilies runs the identical PIM BLAS flow on HBM2,
// GDDR6 and LPDDR5 PIM devices — the Section III claim that the
// architecture ports to any standard DRAM "with a few changes" (here:
// none above the device model).
func TestGemvAcrossDRAMFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const M, K = 128, 96
	W := randVec(rng, M*K)
	x := randVec(rng, K)
	want := RefGemvPIMOrder(W, M, K, x, 8)

	configs := []struct {
		name string
		cfg  hbm.Config
	}{
		{"HBM2", func() hbm.Config {
			c := hbm.PIMHBMConfig(1000)
			c.PseudoChannels = 2
			return c
		}()},
		{"GDDR6", hbm.GDDR6PIMConfig(1250)},
		{"LPDDR5", hbm.LPDDR5PIMConfig(800)},
	}
	for _, tc := range configs {
		dev, err := hbm.NewDevice(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rt, err := runtime.New([]*hbm.Device{dev})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, ks, err := PimGemv(rt, W, M, K, x)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: y[%d] = %v, want %v", tc.name, i, got[i], want[i])
			}
		}
		if ks.Cycles <= 0 {
			t.Errorf("%s: no cycles", tc.name)
		}
		t.Logf("%s: %d cycles (%.0f ns), %d triggers", tc.name, ks.Cycles,
			tc.cfg.Timing.CyclesToNs(ks.Cycles), ks.Triggers)
	}
}

// TestEltwiseAcrossDRAMFamilies does the same for the ADD kernel, which
// additionally exercises the odd-bank write path on every geometry.
func TestEltwiseAcrossDRAMFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	const n = 3000
	a := randVec(rng, n)
	b := randVec(rng, n)
	want := RefAdd(a, b)

	for _, tc := range []struct {
		name string
		cfg  hbm.Config
	}{
		{"GDDR6", hbm.GDDR6PIMConfig(1250)},
		{"LPDDR5", hbm.LPDDR5PIMConfig(800)},
	} {
		dev, err := hbm.NewDevice(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rt, err := runtime.New([]*hbm.Device{dev})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, _, err := PimAdd(rt, a, b, n)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: c[%d] = %v, want %v", tc.name, i, got[i], want[i])
			}
		}
	}
}

// TestGemv2XVariantFunctional verifies the PIM-HBM-2x DSE variant is not
// just a timing model: with one unit per bank and a 16-deep GRF (the AAM
// window doubles), the GEMV kernel still produces bit-exact results —
// also across macro tiles, where the accumulators in GRF_B[0..15] must be
// cleared between one tile's outputs and the next.
func TestGemv2XVariantFunctional(t *testing.T) {
	for _, tc := range []struct {
		pchs, M, K int
		resident   bool
	}{
		{2, 160, 208, false},  // one macro tile; K pads to a multiple of 16
		{1, 1024, 256, false}, // 4 tiles
		{2, 2048, 512, false}, // 4 tiles per channel
		{2, 288, 64, true},    // resident layout: 2 tiles in every channel
	} {
		cfg := hbm.PIMHBMVariantConfig(hbm.Variant2X, 1000)
		cfg.PseudoChannels = tc.pchs
		rt, _, err := runtime.NewStack(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(88))
		W := randVec(rng, tc.M*tc.K)
		x := randVec(rng, tc.K)
		var got fp16.Vector
		var ks KernelStats
		if tc.resident {
			g, err := LoadGemv(rt, W, tc.M, tc.K)
			if err != nil {
				t.Fatal(err)
			}
			var ys []fp16.Vector
			ys, ks, err = g.RunSlots(rt, []fp16.Vector{nil, x})
			if err != nil {
				t.Fatal(err)
			}
			got = ys[1]
		} else {
			got, ks, err = PimGemv(rt, W, tc.M, tc.K, x)
			if err != nil {
				t.Fatal(err)
			}
		}
		want := RefGemvPIMOrder(W, tc.M, tc.K, x, cfg.GRFDepth()) // 16 interleaved accumulators
		bad := 0
		for i := range want {
			if got[i] != want[i] {
				bad++
			}
		}
		if bad > 0 {
			t.Errorf("%dx%d on %d pCH (resident %v): %d of %d outputs wrong", tc.M, tc.K, tc.pchs, tc.resident, bad, tc.M)
		}
		if ks.Fences == 0 {
			t.Error("no fences")
		}
	}
}

// TestGemvSRWVariantFunctional: the SRW variant's merged load+MAC path
// must also be bit-exact, at roughly half the triggers of the baseline.
func TestGemvSRWVariantFunctional(t *testing.T) {
	mk := func(variant hbm.Variant) *runtime.Runtime {
		cfg := hbm.PIMHBMVariantConfig(variant, 1000)
		cfg.PseudoChannels = 2
		rt, _, err := runtime.NewStack(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	rng := rand.New(rand.NewSource(89))
	const M, K = 96, 128
	W := randVec(rng, M*K)
	x := randVec(rng, K)

	base, baseKS, err := PimGemv(mk(hbm.VariantBase), W, M, K, x)
	if err != nil {
		t.Fatal(err)
	}
	srw, srwKS, err := PimGemv(mk(hbm.VariantSRW), W, M, K, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if srw[i] != base[i] {
			t.Fatalf("y[%d]: SRW %v vs base %v", i, srw[i], base[i])
		}
	}
	if srwKS.Triggers*2 != baseKS.Triggers {
		t.Errorf("SRW triggers %d, want half of %d", srwKS.Triggers, baseKS.Triggers)
	}
	if srwKS.Cycles >= baseKS.Cycles {
		t.Error("SRW not faster than baseline")
	}
}
