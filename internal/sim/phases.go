package sim

import (
	"fmt"

	"pimsim/internal/blas"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/runtime"
)

// PhaseCell is one runtime phase of a kernel: how often the runtime
// entered it and how many memory-clock cycles it spent there.
type PhaseCell struct {
	Name   string
	Count  int64
	Cycles int64
}

// PhaseRow is one kernel's phase breakdown, derived by diffing metrics
// snapshots around the kernel run.
type PhaseRow struct {
	Kernel string
	Cycles int64 // end-to-end kernel cycles
	Phases []PhaseCell
}

// phaseCounters maps display names to the runtime counter pairs that
// back them (see internal/runtime/metrics.go).
var phaseCounters = []struct {
	name, count, cycles string
}{
	{"mode", "runtime_mode_transitions_total", "runtime_mode_transition_cycles_total"},
	{"crf", "runtime_crf_programs_total", "runtime_crf_program_cycles_total"},
	{"srf", "runtime_srf_programs_total", "runtime_srf_program_cycles_total"},
	{"grf0", "runtime_grf_zeros_total", "runtime_grf_zero_cycles_total"},
	{"trigger", "runtime_triggers_total", "runtime_trigger_cycles_total"},
}

// RunPhaseBreakdown runs a representative kernel set on one timing-only
// PIM device and reports where each kernel's runtime work goes, using
// metrics snapshot diffs so consecutive kernels on the same runtime
// don't bleed into each other's rows.
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
	prev := rt.Metrics.Snapshot()
	for _, k := range kernels {
		ks, err := k.run()
		if err != nil {
			return nil, fmt.Errorf("sim: %s: %w", k.name, err)
		}
		snap := rt.Metrics.Snapshot()
		d := snap.Diff(prev)
		prev = snap
		row := PhaseRow{Kernel: k.name, Cycles: ks.Cycles}
		for _, p := range phaseCounters {
			row.Phases = append(row.Phases, PhaseCell{
				Name:   p.name,
				Count:  d.Counter(p.count),
				Cycles: d.Counter(p.cycles),
			})
		}
		out = append(out, row)
	}
	// Guard the snapshot-diff plumbing itself: every registered phase
	// counter pair must exist in the snapshot (a renamed counter would
	// otherwise silently report zeros forever).
	for _, p := range phaseCounters {
		if _, ok := prev.Counters[p.count]; !ok {
			return nil, fmt.Errorf("sim: phase counter %q missing from snapshot", p.count)
		}
		if _, ok := prev.Counters[p.cycles]; !ok {
			return nil, fmt.Errorf("sim: phase counter %q missing from snapshot", p.cycles)
		}
	}
	return out, nil
}
