// Package dse runs the Fig. 14 design space exploration: three enhanced
// PIM microarchitectures that could not be fabricated — PIM-HBM-2x
// (doubled resources), PIM-HBM-2BA (simultaneous even/odd bank access)
// and PIM-HBM-SRW (simultaneous column read and write) — evaluated on the
// microbenchmarks plus batch normalization, as performance over the HBM
// baseline. Like the paper's DRAMSim2 study, these are simulator-derived
// bounds; the 2BA datapath is timing-only.
package dse

import (
	"fmt"
	"math"

	"pimsim/internal/hbm"
	"pimsim/internal/sim"
)

// Benchmarks returns the Fig. 14 workload set: the Table VI
// microbenchmarks plus the BN kernels with the ADD input sizes.
func Benchmarks() []sim.MicroSpec {
	return append(sim.TableVI(), sim.BNSpecs()...)
}

// Result is one variant's evaluation.
type Result struct {
	Variant hbm.Variant
	// Speedups over the HBM host baseline, by benchmark name.
	Speedups map[string]float64
	Geomean  float64
	// GeomeanOverBase is the variant's geomean improvement over the
	// fabricated PIM-HBM (paper: 2x ~ +40%, 2BA ~ +20%, SRW ~ +10%).
	GeomeanOverBase float64
}

// Run evaluates the baseline and all three variants at batch 1. The
// baseline comes first: the other rows' GeomeanOverBase divide by it.
func Run() ([]Result, error) {
	hostSys := sim.NewHostSystem(1)
	variants := []hbm.Variant{hbm.VariantBase, hbm.Variant2X, hbm.Variant2BA, hbm.VariantSRW}
	out := make([]Result, 0, len(variants))

	for _, v := range variants {
		pimSys, err := sim.NewPIMSystem(v)
		if err != nil {
			return nil, fmt.Errorf("dse: %s: %w", v, err)
		}
		r := Result{Variant: v, Speedups: map[string]float64{}}
		logSum, n := 0.0, 0
		for _, spec := range Benchmarks() {
			mr, err := runOne(pimSys, hostSys, spec)
			if err != nil {
				return nil, fmt.Errorf("dse: %s %s: %w", v, spec.Name, err)
			}
			r.Speedups[spec.Name] = mr
			logSum += math.Log(mr)
			n++
		}
		r.Geomean = math.Exp(logSum / float64(n))
		baseGeo := r.Geomean
		if len(out) > 0 {
			baseGeo = out[0].Geomean
		}
		r.GeomeanOverBase = r.Geomean / baseGeo
		out = append(out, r)
	}
	return out, nil
}

// runOne returns the variant's speedup over the host for one benchmark.
func runOne(pimSys, hostSys *sim.System, spec sim.MicroSpec) (float64, error) {
	launch := pimSys.Proc.KernelLaunchNs
	if spec.IsGemv() {
		hc, err := hostSys.Proc.Gemv(spec.M, spec.K, 1)
		if err != nil {
			return 0, err
		}
		pc, err := pimSys.PimGemvCost(spec.M, spec.K)
		if err != nil {
			return 0, err
		}
		return hc.NS / (pc.Ns + launch), nil
	}
	op, streams := "add", 3
	if spec.Name[:2] == "BN" {
		op, streams = "bn", 2
	}
	hc, err := hostSys.Proc.Eltwise(spec.N, 1, streams)
	if err != nil {
		return 0, err
	}
	pc, err := pimSys.PimEltCost(op, spec.N)
	if err != nil {
		return 0, err
	}
	return hc.NS / (pc.Ns + launch), nil
}
