// LSTM inference: the paper's flagship application pattern. A two-layer
// LSTM (a miniature DeepSpeech2 tower) runs its matrix-vector work on the
// PIM units step by step, with the gate math on the host, and the hidden
// state trajectory is compared against the pure-host baseline. The second
// half evaluates the real DS2 configuration end to end on the full
// system model.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"pimsim/internal/blas"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/models"
	"pimsim/internal/runtime"
	"pimsim/internal/sim"
)

func randVec(rng *rand.Rand, n int) fp16.Vector {
	v := fp16.NewVector(n)
	for i := range v {
		v[i] = fp16.FromFloat32(float32(rng.NormFloat64() * 0.3))
	}
	return v
}

func main() {
	// Part 1: functional two-layer LSTM on a small PIM system.
	cfg := hbm.PIMHBMConfig(1200)
	cfg.PseudoChannels = 2
	cfg.Functional = true
	rt, _, err := runtime.NewStack(cfg, 1)
	if err != nil {
		log.Fatal(err)
	}

	const (
		X     = 64
		H     = 48
		steps = 6
	)
	rng := rand.New(rand.NewSource(11))
	layers := []blas.LSTMWeights{
		{Wx: randVec(rng, 4*H*X), Wh: randVec(rng, 4*H*H), B: randVec(rng, 4*H), X: X, H: H},
		{Wx: randVec(rng, 4*H*H), Wh: randVec(rng, 4*H*H), B: randVec(rng, 4*H), X: H, H: H},
	}

	inputs := make([]fp16.Vector, steps)
	for t := range inputs {
		inputs[t] = randVec(rng, X)
	}

	var totalCycles int64
	run := func(onPIM bool) []fp16.Vector {
		hs := make([]fp16.Vector, len(layers))
		cs := make([]fp16.Vector, len(layers))
		for i := range hs {
			hs[i] = fp16.NewVector(H)
			cs[i] = fp16.NewVector(H)
		}
		outs := make([]fp16.Vector, steps)
		for t := 0; t < steps; t++ {
			x := inputs[t]
			for i, w := range layers {
				var err error
				if onPIM {
					var ks blas.KernelStats
					hs[i], cs[i], ks, err = blas.PimLSTMCell(rt, w, x, hs[i], cs[i])
					totalCycles += ks.Cycles
				} else {
					hs[i], cs[i], err = blas.HostLSTMCell(w, x, hs[i], cs[i])
				}
				if err != nil {
					log.Fatal(err)
				}
				x = hs[i]
			}
			outs[t] = hs[len(layers)-1]
		}
		return outs
	}

	pimOut := run(true)
	hostOut := run(false)
	var maxDiff float64
	for t := range pimOut {
		if d := fp16.MaxAbsDiff(pimOut[t], hostOut[t]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("two-layer LSTM, %d steps: PIM vs host trajectory diverges by at most %.4f\n", steps, maxDiff)
	fmt.Printf("(FP16 PIM accumulation vs float32 host accumulation)\n")
	fmt.Printf("PIM GEMV cycles across the run: %d\n\n", totalCycles)

	// Part 2: the full DS2 model on the evaluated system.
	pimSys, err := sim.NewPIMSystem(hbm.VariantBase)
	if err != nil {
		log.Fatal(err)
	}
	hostSys := sim.NewHostSystem(1)
	for _, b := range []int{1, 2} {
		r, err := sim.EvalApp(pimSys, hostSys, models.DS2(), b)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("DS2 batch %d: PROC-HBM %.1f ms, PIM-HBM %.1f ms -> %.2fx (energy %.2fx)\n",
			b, r.HostNs/1e6, r.PimNs/1e6, r.Speedup, r.EnergyEffGain())
	}
	fmt.Println("paper: 3.5x at batch 1, 1.6x at batch 2, 3.2x energy efficiency")
}
