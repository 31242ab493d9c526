package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"pimsim/internal/engine"
	"pimsim/internal/hbm"
	"pimsim/internal/models"
	"pimsim/internal/runtime"
)

// BenchmarkStepSlots is the steady-state wall cost of one ds2-small
// timestep (7 resident GEMV launches plus the host gate math) at 1, 2 and 4
// occupied slots, on the serial and on the parallel engine: the op of
// bench/'s seq_closed workload without the server around it. The stack
// (4 functional pCHs, as a serving shard has) is built and the model
// loaded once per engine; an untimed step touches every weight row first.
func BenchmarkStepSlots(b *testing.B) {
	mc := models.DS2Small()
	w, err := GenWeights(mc)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := Compile(w)
	if err != nil {
		b.Fatal(err)
	}
	cfg := hbm.PIMHBMConfig(1200)
	cfg.PseudoChannels = 4
	cfg.Functional = true
	frames := genFrames(rand.New(rand.NewSource(19)), cfg.PseudoChannels, mc.Input)

	for _, eng := range []engine.Engine{engine.Serial{}, engine.NewParallel(cfg.PseudoChannels)} {
		rt, _, err := runtime.NewStack(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		rt.UseEngine(eng)
		res, err := Load(rt, plan)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/s%d", eng.Name(), s), func(b *testing.B) {
				step := func() {
					if _, _, err := res.StepSlots(rt, frames[:s]); err != nil {
						b.Fatal(err)
					}
				}
				step()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		}
		rt.CloseEngine()
	}
}

// TestStepSlotsAllocs pins what one one-slot ds2-small timestep allocates
// on the host: outputs, kernel statistics and refresh bookkeeping, but no
// write payload, which every launch builds in its channel's reused
// runtime.Payloads buffer (two allocations a launch, 14 a step, before),
// and no kernel-region snapshot, which every launch notes in the
// runtime's marks.
func TestStepSlotsAllocs(t *testing.T) {
	mc := models.DS2Small()
	w, err := GenWeights(mc)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hbm.PIMHBMConfig(1200)
	cfg.PseudoChannels = 4
	cfg.Functional = true
	rt, _, err := runtime.NewStack(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Load(rt, plan)
	if err != nil {
		t.Fatal(err)
	}
	frames := genFrames(rand.New(rand.NewSource(19)), 1, mc.Input)
	const limit = 62
	if n := testing.AllocsPerRun(20, func() {
		if _, _, err := res.StepSlots(rt, frames); err != nil {
			t.Fatal(err)
		}
	}); n > limit {
		t.Errorf("one-slot step allocates %v objects, want at most %d", n, limit)
	}
}
