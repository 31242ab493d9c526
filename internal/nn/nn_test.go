package nn

import (
	"math/rand"
	"testing"

	"pimsim/internal/blas"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/models"
	"pimsim/internal/runtime"
)

func newNNRT(t *testing.T, channels int) *runtime.Runtime {
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

func tinyConfig() models.Config {
	return models.Config{Name: "tiny", Input: 16, Hidden: []int{32, 16}, Output: 8, Seed: 42}
}

func genFrames(rng *rand.Rand, n, dim int) []fp16.Vector {
	frames := make([]fp16.Vector, n)
	for t := range frames {
		x := fp16.NewVector(dim)
		for i := range x {
			x[i] = fp16.FromFloat32(float32(rng.NormFloat64() * 0.5))
		}
		frames[t] = x
	}
	return frames
}

func TestCompileSchedule(t *testing.T) {
	w, err := GenWeights(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	// One fused GEMV per LSTM layer plus the output projection, all on PIM.
	if want := p.Layers() + 1; p.PIMOps != want {
		t.Errorf("PIMOps = %d, want %d", p.PIMOps, want)
	}
	if p.HostOps == 0 {
		t.Error("no host ops scheduled (gate math must be host-placed)")
	}
	pim := 0
	for _, op := range p.Schedule {
		if op.Where == "pim" {
			pim++
			if op.Kind != "MatVec" {
				t.Errorf("op %s (%s) placed on PIM", op.Name, op.Kind)
			}
		}
	}
	if pim != p.PIMOps {
		t.Errorf("schedule has %d PIM ops, counter says %d", pim, p.PIMOps)
	}
	if p.StateBytesPerSlot != 2*2*(32+16) {
		t.Errorf("StateBytesPerSlot = %d", p.StateBytesPerSlot)
	}
}

// TestStepSlotsContinuousMatchesOracle is the subsystem's core contract:
// sequences that join and leave a running step loop at different times,
// on different slots (including a slot reused after its first sequence
// retires), each produce logits bit-identical to the pure-host oracle
// running that sequence alone.
func TestStepSlotsContinuousMatchesOracle(t *testing.T) {
	rt := newNNRT(t, 4)
	grf := blas.GRFDepth(rt)
	w, err := GenWeights(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Load(rt, p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Unload(rt)

	rng := rand.New(rand.NewSource(99))
	lengths := []int{6, 3, 4, 3}
	joinStep := []int{0, 0, 2, 3} // seq 3 reuses seq 1's slot after it retires
	slotOf := []int{0, 1, 2, 1}
	seqs := make([][]fp16.Vector, len(lengths))
	want := make([][]fp16.Vector, len(lengths))
	for i, n := range lengths {
		seqs[i] = genFrames(rng, n, p.Cfg.Input)
		want[i], err = p.HostOracle(seqs[i], grf)
		if err != nil {
			t.Fatal(err)
		}
	}

	pos := make([]int, len(lengths)) // next frame per sequence
	active := make([]int, r.Slots()) // slot -> sequence, -1 idle
	for s := range active {
		active[s] = -1
	}
	for step := 0; step < 8; step++ {
		for i := range lengths {
			if joinStep[i] == step {
				if err := r.ResetSlot(slotOf[i]); err != nil {
					t.Fatal(err)
				}
				active[slotOf[i]] = i
			}
		}
		xs := make([]fp16.Vector, r.Slots())
		occupied := 0
		for s, seq := range active {
			if seq < 0 {
				continue
			}
			xs[s] = seqs[seq][pos[seq]]
			occupied++
		}
		if occupied == 0 {
			continue
		}
		logits, ks, err := r.StepSlots(rt, xs)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if ks.Cycles <= 0 {
			t.Fatalf("step %d accounted no cycles", step)
		}
		for s, seq := range active {
			if seq < 0 {
				continue
			}
			ref := want[seq][pos[seq]]
			for j := range ref {
				if logits[s][j] != ref[j] {
					t.Fatalf("step %d seq %d slot %d logit %d: %v != oracle %v",
						step, seq, s, j, logits[s][j], ref[j])
				}
			}
			pos[seq]++
			if pos[seq] == lengths[seq] {
				active[s] = -1
			}
		}
	}
	for i, n := range lengths {
		if pos[i] != n {
			t.Errorf("sequence %d served %d of %d steps", i, pos[i], n)
		}
	}
}

// TestExportImportMigration: exporting a mid-sequence state and importing
// it into a different slot must continue the sequence bit-exactly — the
// mechanism the serving layer uses to migrate sequences off a faulted
// shard.
func TestExportImportMigration(t *testing.T) {
	rt := newNNRT(t, 4)
	grf := blas.GRFDepth(rt)
	w, err := GenWeights(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Load(rt, p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Unload(rt)

	rng := rand.New(rand.NewSource(5))
	const T = 6
	frames := genFrames(rng, T, p.Cfg.Input)
	want, err := p.HostOracle(frames, grf)
	if err != nil {
		t.Fatal(err)
	}

	step := func(slot int, x fp16.Vector) fp16.Vector {
		xs := make([]fp16.Vector, r.Slots())
		xs[slot] = x
		logits, _, err := r.StepSlots(rt, xs)
		if err != nil {
			t.Fatal(err)
		}
		return logits[slot]
	}

	checkStep := func(tIdx int, got fp16.Vector) {
		for j := range want[tIdx] {
			if got[j] != want[tIdx][j] {
				t.Fatalf("step %d logit %d: %v != oracle %v", tIdx, j, got[j], want[tIdx][j])
			}
		}
	}

	if err := r.ResetSlot(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		checkStep(i, step(0, frames[i]))
	}
	st, err := r.ExportState(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ResetSlot(0); err != nil { // old slot is gone
		t.Fatal(err)
	}
	if err := r.ResetSlot(3); err != nil {
		t.Fatal(err)
	}
	if err := r.ImportState(3, st); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < T; i++ {
		checkStep(i, step(3, frames[i]))
	}

	// Dimension checks on import.
	if err := r.ImportState(3, &SlotState{}); err == nil {
		t.Error("layer-count mismatch accepted")
	}
	if err := r.ImportState(9, st); err == nil {
		t.Error("out-of-range slot accepted")
	}
}

// TestImportStateRejects: a nil state, one with the wrong layer count and
// one whose last layer has the wrong width are each refused with an error
// (the nil one without a panic), and the slot keeps the state it had: the
// width check must not let the layers before the bad one through.
func TestImportStateRejects(t *testing.T) {
	rt := newNNRT(t, 2)
	w, err := GenWeights(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Load(rt, p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Unload(rt)

	held, err := r.ExportState(1)
	if err != nil {
		t.Fatal(err)
	}
	for l := range held.H {
		for i := range held.H[l] {
			held.H[l][i], held.C[l][i] = fp16.FromFloat32(float32(l+i)/8), fp16.FromFloat32(-float32(l+i)/16)
		}
	}
	if err := r.ImportState(1, held); err != nil {
		t.Fatal(err)
	}
	narrow, err := r.ExportState(1)
	if err != nil {
		t.Fatal(err)
	}
	last := len(narrow.H) - 1
	for l := range narrow.H {
		for i := range narrow.H[l] {
			narrow.H[l][i], narrow.C[l][i] = fp16.One, fp16.One
		}
	}
	narrow.H[last], narrow.C[last] = narrow.H[last][1:], narrow.C[last][1:]
	for _, c := range []struct {
		name string
		st   *SlotState
	}{
		{"nil", nil},
		{"layers", &SlotState{H: held.H[:last], C: held.C[:last]}},
		{"width", narrow},
	} {
		if err := r.ImportState(1, c.st); err == nil {
			t.Errorf("%s: state accepted", c.name)
		}
		got, err := r.ExportState(1)
		if err != nil {
			t.Fatal(err)
		}
		for l := range held.H {
			if fp16.MaxAbsDiff(got.H[l], held.H[l]) != 0 || fp16.MaxAbsDiff(got.C[l], held.C[l]) != 0 {
				t.Errorf("%s: layer %d of the slot changed by a rejected import", c.name, l)
			}
		}
	}
}

func TestLoadUnloadRowAccounting(t *testing.T) {
	rt := newNNRT(t, 2)
	liveBefore := rt.Drv.PIMRowsLive()
	freeBefore := rt.Drv.PIMRowsFree()
	w, err := GenWeights(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Load(rt, p)
	if err != nil {
		t.Fatal(err)
	}
	wantLive := r.WeightRows() + r.StateRows()
	if got := rt.Drv.PIMRowsLive() - liveBefore; got != wantLive {
		t.Errorf("live rows grew by %d, resident accounts %d", got, wantLive)
	}
	if err := r.Unload(rt); err != nil {
		t.Fatal(err)
	}
	if got := rt.Drv.PIMRowsLive(); got != liveBefore {
		t.Errorf("live rows %d after unload, want %d", got, liveBefore)
	}
	if got := rt.Drv.PIMRowsFree(); got != freeBefore {
		t.Errorf("free rows %d after unload, want %d", got, freeBefore)
	}
	if err := r.Unload(rt); err == nil {
		t.Error("double unload accepted")
	}
	if _, _, err := r.StepSlots(rt, make([]fp16.Vector, 2)); err == nil {
		t.Error("step on unloaded model accepted")
	}
}

func TestServingConfigsLoad(t *testing.T) {
	// Every serving-scale config must fit a shard's row budget.
	for _, cfg := range models.ServingConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			rt := newNNRT(t, 2)
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
				t.Fatalf("%s does not fit: %v (free rows %d)", cfg.Name, err, rt.Drv.PIMRowsFree())
			}
			xs := make([]fp16.Vector, r.Slots())
			xs[0] = genFrames(rand.New(rand.NewSource(1)), 1, cfg.Input)[0]
			logits, _, err := r.StepSlots(rt, xs)
			if err != nil {
				t.Fatal(err)
			}
			if len(logits[0]) != cfg.Output {
				t.Errorf("logits width %d, want %d", len(logits[0]), cfg.Output)
			}
			if err := r.Unload(rt); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestArgmax(t *testing.T) {
	v := fp16.FromFloat32s([]float32{1, 3, 3, 2})
	if got := Argmax(v); got != 1 {
		t.Errorf("Argmax tie = %d, want first max (1)", got)
	}
	if got := Argmax(nil); got != -1 {
		t.Errorf("Argmax(nil) = %d", got)
	}
}
