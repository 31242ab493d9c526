package nn

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pimsim/internal/blas"
	"pimsim/internal/engine"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/models"
	"pimsim/internal/runtime"
)

// variantRT is a functional 4-pCH stack of one Fig. 14 variant.
func variantRT(t *testing.T, v hbm.Variant) *runtime.Runtime {
	t.Helper()
	cfg := hbm.PIMHBMVariantConfig(v, 1200)
	cfg.PseudoChannels = 4
	cfg.Functional = true
	rt, _, err := runtime.NewStack(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// genSeq is one generated sequence: where and when it runs.
type genSeq struct {
	slot, join int
	frames     []fp16.Vector
	want       []fp16.Vector // HostOracle logits per step
	pos        int
}

// TestStepSlotsGeneratedStacks checks StepSlots against HostOracle bit for
// bit over generated models and schedules: random stacks (1-4 layers,
// hidden widths 16..128, input widths that are not multiples of the GRF
// depth, output 8..64) on the product and the 2x device, sequences of 3-6
// steps joining and leaving slots 0-2 between timesteps (a slot is reused
// once its sequence retired), and one sequence migrated mid-flight through
// ExportState/ImportState into slot 3, which nothing else uses. An idle
// slot's channel must not move: its stale state is fed to nothing.
func TestStepSlotsGeneratedStacks(t *testing.T) {
	cases := 100
	if testing.Short() {
		cases = 25
	}
	for i := 0; i < cases; i++ {
		i := i
		t.Run(fmt.Sprintf("case%02d", i), func(t *testing.T) {
			rng := rand.New(rand.NewSource(2400 + int64(i)))
			cfg := models.Config{
				Name:   fmt.Sprintf("gen%d", i),
				Input:  16 + rng.Intn(81),
				Output: 8 + rng.Intn(57),
				Seed:   rng.Int63(),
			}
			for l := 1 + rng.Intn(4); l > 0; l-- {
				cfg.Hidden = append(cfg.Hidden, 16*(1+rng.Intn(8)))
			}
			rt := variantRT(t, []hbm.Variant{hbm.VariantBase, hbm.Variant2X}[i%2])
			w, err := GenWeights(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Compile(w)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Load(rt, p)
			if err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
			defer r.Unload(rt)

			// Up to two sequences a slot, back to back or a few idle steps
			// apart; a slot may also stay empty.
			var seqs []*genSeq
			for slot := 0; slot < 3; slot++ {
				at := rng.Intn(3)
				for n := rng.Intn(3); n > 0; n-- {
					q := &genSeq{slot: slot, join: at, frames: genFrames(rng, 3+rng.Intn(4), cfg.Input)}
					seqs = append(seqs, q)
					at += len(q.frames) + rng.Intn(3)
				}
			}
			if len(seqs) == 0 {
				seqs = append(seqs, &genSeq{slot: rng.Intn(3), frames: genFrames(rng, 3+rng.Intn(4), cfg.Input)})
			}
			for _, q := range seqs {
				if q.want, err = p.HostOracle(q.frames, blas.GRFDepth(rt)); err != nil {
					t.Fatal(err)
				}
			}
			mover := seqs[rng.Intn(len(seqs))]
			moveAt := mover.join + 1 + rng.Intn(len(mover.frames)-1) // before its 2nd..last step

			served := 0
			for step := 0; served < len(seqs); step++ {
				if step > 40 {
					t.Fatalf("schedule did not finish: %d of %d sequences served", served, len(seqs))
				}
				if step == moveAt {
					st, err := r.ExportState(mover.slot)
					if err != nil {
						t.Fatal(err)
					}
					// The old slot keeps its stale state: a later sequence
					// joining it must start from its own reset.
					mover.slot = 3
					if err := r.ImportState(3, st); err != nil {
						t.Fatal(err)
					}
				}
				xs := make([]fp16.Vector, r.Slots())
				for _, q := range seqs {
					if q.join == step {
						if err := r.ResetSlot(q.slot); err != nil {
							t.Fatal(err)
						}
					}
					if step >= q.join && q.pos < len(q.frames) {
						xs[q.slot] = q.frames[q.pos]
					}
				}
				idle := true
				for _, x := range xs {
					idle = idle && x == nil
				}
				if idle {
					continue
				}
				before := make([]int64, r.Slots())
				for s := range before {
					before[s] = rt.Now(s)
				}
				logits, _, err := r.StepSlots(rt, xs)
				if err != nil {
					t.Fatalf("%+v step %d: %v", cfg, step, err)
				}
				for s, x := range xs {
					if x == nil && rt.Now(s) != before[s] {
						t.Fatalf("%+v step %d: idle slot %d's channel ran %d cycles", cfg, step, s, rt.Now(s)-before[s])
					}
				}
				for n, q := range seqs {
					if step < q.join || q.pos == len(q.frames) {
						continue
					}
					for j, ref := range q.want[q.pos] {
						if logits[q.slot][j] != ref {
							t.Fatalf("%+v step %d seq %d slot %d logit %d: %v != oracle %v",
								cfg, step, n, q.slot, j, logits[q.slot][j], ref)
						}
					}
					if q.pos++; q.pos == len(q.frames) {
						served++
					}
				}
			}
		})
	}
}

// TestFusedStepSameModel: fusing moved where a parameter is stored and the
// order its products are rounded in, nothing else. The model before the
// fusion is rebuilt here from the seed (all of Wx, all of Wh, the bias, in
// that draw order) and stepped the way it was served (two GEMVs in device
// order, an fp16 add of the two, the bias add); over eight ds2-small steps
// its logits and the fused oracle's agree to fp16 rounding noise, and are
// not required to be bit-equal.
func TestFusedStepSameModel(t *testing.T) {
	cfg := models.DS2Small()
	w, err := GenWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	const grf = 8
	frames := genFrames(rand.New(rand.NewSource(24)), 8, cfg.Input)
	got, err := p.HostOracle(frames, grf)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := func(n int, scale float64) fp16.Vector {
		v := fp16.NewVector(n)
		for i := range v {
			v[i] = fp16.FromFloat32(float32(rng.NormFloat64() * scale))
		}
		return v
	}
	type layer struct {
		x, h       int
		wx, wh, b  fp16.Vector
		hid, state fp16.Vector
	}
	var layers []*layer
	in := cfg.Input
	for _, h := range cfg.Hidden {
		layers = append(layers, &layer{x: in, h: h, wx: gen(4*h*in, 0.25), wh: gen(4*h*h, 0.25), b: gen(4*h, 0.1),
			hid: fp16.NewVector(h), state: fp16.NewVector(h)})
		in = h
	}
	wOut := gen(cfg.Output*in, 0.25)

	// Every parameter is the number it was: row r of a fused matrix is
	// [Wx row r | Wh row r].
	for li, l := range layers {
		fused, k := w.Layers[li].W, l.x+l.h
		for r := 0; r < 4*l.h; r++ {
			if !slices.Equal(fused[r*k:r*k+l.x], l.wx[r*l.x:(r+1)*l.x]) || !slices.Equal(fused[r*k+l.x:(r+1)*k], l.wh[r*l.h:(r+1)*l.h]) {
				t.Fatalf("layer %d row %d is not [Wx row | Wh row] of the seed's draws", li, r)
			}
		}
		if !slices.Equal(w.Layers[li].B, l.b) {
			t.Fatalf("layer %d bias differs from the seed's draws", li)
		}
	}
	if !slices.Equal(w.WOut, wOut) {
		t.Fatal("output projection differs from the seed's draws")
	}

	worst := 0.0
	for step, x := range frames {
		cur := x
		for _, l := range layers {
			z := fp16.NewVector(4 * l.h)
			fp16.AddVec(z, blas.RefGemvPIMOrder(l.wx, 4*l.h, l.x, cur, grf), blas.RefGemvPIMOrder(l.wh, 4*l.h, l.h, l.hid, grf))
			fp16.AddVec(z, z, l.b)
			hN, cN := fp16.NewVector(l.h), fp16.NewVector(l.h)
			for j := 0; j < l.h; j++ {
				i, f, g, o := sigmoid(z[j]), sigmoid(z[l.h+j]), tanhF(z[2*l.h+j]), sigmoid(z[3*l.h+j])
				cN[j] = fp16.Add(fp16.Mul(f, l.state[j]), fp16.Mul(i, g))
				hN[j] = fp16.Mul(o, tanhF(cN[j]))
			}
			l.hid, l.state, cur = hN, cN, hN
		}
		want := blas.RefGemvPIMOrder(wOut, cfg.Output, in, cur, grf)
		d := fp16.MaxAbsDiff(got[step], want)
		if d > worst {
			worst = d
		}
		// Logits are sums of 112 products of magnitude ~0.25 x 0.5; a
		// different model (another seed, [Wh|Wx] rows, [h;x] inputs) is
		// off by ~1.
		if d > 0.05 {
			t.Errorf("step %d: fused logits differ from the two-GEMV model's by %v", step, d)
		}
	}
	t.Logf("largest logit difference over %d steps: %v", len(frames), worst)
}

// countingEngine counts kernel launches: every PIM kernel crosses
// ForEachChannel exactly once.
type countingEngine struct {
	engine.Serial
	launches int
}

func (e *countingEngine) Run(n int, fn func(ch int) error) error {
	e.launches++
	return e.Serial.Run(n, fn)
}

// TestStepLaunchCensus pins what one ds2-small timestep at one occupied
// slot costs on the device: L+1 launches (one fused GEMV a layer and the
// output projection), 25 macro tiles (4 per 448-row layer, 1 for the
// projection; a tile zeroes the accumulators once and unloads them once)
// and the step's simulated cycles in steady state. A change that adds a
// launch or a per-tile round trip fails here, not in a benchmark.
func TestStepLaunchCensus(t *testing.T) {
	cfg := models.DS2Small()
	w, err := GenWeights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	rt := variantRT(t, hbm.VariantBase)
	eng := &countingEngine{}
	rt.UseEngine(eng)
	r, err := Load(rt, p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Unload(rt)
	// 8 passes a row: layer 0 (24 passes) is 3 rows a tile, layers 1-5
	// (28) 4 rows, the projection (14) 2.
	if got, want := weightRows(r), 4*3+5*4*4+2; got != want {
		t.Errorf("weight rows %d, want %d", got, want)
	}

	xs := genFrames(rand.New(rand.NewSource(7)), 1, cfg.Input)
	var cycles int64
	const steps = 50
	for i := 0; i < steps; i++ {
		eng.launches = 0
		rt.BeginPhaseObs()
		_, ks, err := r.StepSlots(rt, xs)
		if err != nil {
			t.Fatal(err)
		}
		obs := rt.TakePhaseObs()
		if want := p.Layers() + 1; eng.launches != want || p.PIMOps != want {
			t.Fatalf("step %d: %d launches, plan schedules %d PIM ops, want %d", i, eng.launches, p.PIMOps, want)
		}
		if tiles := obs.Count[runtime.PhaseGRF]; tiles != 25 {
			t.Fatalf("step %d: %d macro tiles, want 25", i, tiles)
		}
		// Layer 0 has 4 tiles of 24 passes, layers 1-5 20 tiles of 28, the
		// projection one of 14; a pass is G WR and G RD triggers.
		if want := int64(2 * 8 * (4*24 + 20*28 + 14)); ks.Triggers != want {
			t.Fatalf("step %d: %d triggers, want %d", i, ks.Triggers, want)
		}
		cycles += ks.Cycles
	}
	// Refresh falls differently in every step (133,645 to 135,088 cycles),
	// so the pin is the mean over the first 50 steps of a fresh device.
	if got, want := cycles/steps, int64(134415); got != want {
		t.Errorf("mean step = %d cycles, want %d", got, want)
	}
}
