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
// timestep (13 resident GEMVs plus the host gate math) at 1, 2 and 4
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
