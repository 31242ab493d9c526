package sim

import (
	"fmt"

	"pimsim/internal/blas"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/runtime"
)

// PhaseRow is one kernel's phase breakdown: how often the runtime entered
// each phase and how many memory-clock cycles it spent there.
type PhaseRow struct {
	Kernel string
	Cycles int64 // end-to-end kernel cycles
	Phases runtime.PhaseBreakdown
}

// RunPhaseBreakdown runs a representative kernel set on one timing-only
// PIM device and reports where each kernel's runtime work goes, each
// kernel's phases read from the runtime's phase ledgers around it.
func RunPhaseBreakdown() ([]PhaseRow, error) {
	cfg := hbm.PIMHBMConfig(MemClockMHz)
	cfg.Functional = false
	rt, _, err := runtime.NewStack(cfg, 1)
	if err != nil {
		return nil, err
	}

	gamma, beta := fp16.FromFloat32(1.25), fp16.FromFloat32(-0.5)
	kernels := []struct {
		name string
		run  func() (blas.KernelStats, error)
	}{
		{"GEMV 1kx4k", func() (blas.KernelStats, error) {
			_, ks, err := blas.PimGemv(rt, nil, 1024, 4096, nil)
			return ks, err
		}},
		{"ADD 1M", func() (blas.KernelStats, error) {
			_, ks, err := blas.PimAdd(rt, nil, nil, 1<<20)
			return ks, err
		}},
		{"MUL 1M", func() (blas.KernelStats, error) {
			_, ks, err := blas.PimMul(rt, nil, nil, 1<<20)
			return ks, err
		}},
		{"RELU 1M", func() (blas.KernelStats, error) {
			_, ks, err := blas.PimReLU(rt, nil, 1<<20)
			return ks, err
		}},
		{"BN 1M", func() (blas.KernelStats, error) {
			_, ks, err := blas.PimBN(rt, nil, 1<<20, gamma, beta)
			return ks, err
		}},
	}

	out := make([]PhaseRow, 0, len(kernels))
	rt.BeginPhaseObs()
	for _, k := range kernels {
		ks, err := k.run()
		if err != nil {
			return nil, fmt.Errorf("sim: %s: %w", k.name, err)
		}
		out = append(out, PhaseRow{Kernel: k.name, Cycles: ks.Cycles, Phases: rt.TakePhaseObs()})
	}
	return out, nil
}
