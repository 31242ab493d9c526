package sim

import (
	"fmt"
	"math"
)

// The Table VI microbenchmarks.
type MicroSpec struct {
	Name string
	// GEMV: M x K. ADD/BN: N elements.
	M, K, N int
}

// IsGemv reports whether the spec is a matrix-vector benchmark.
func (m MicroSpec) IsGemv() bool { return m.M > 0 }

// TableVI returns the paper's microbenchmark set.
func TableVI() []MicroSpec {
	return []MicroSpec{
		{Name: "GEMV1", M: 1024, K: 4096},
		{Name: "GEMV2", M: 2048, K: 4096},
		{Name: "GEMV3", M: 4096, K: 8192},
		{Name: "GEMV4", M: 8192, K: 8192},
		{Name: "ADD1", N: 2 << 20},
		{Name: "ADD2", N: 4 << 20},
		{Name: "ADD3", N: 8 << 20},
		{Name: "ADD4", N: 16 << 20},
	}
}

// BNSpecs returns the Fig. 14 batch-normalization benchmarks (same input
// sizes as ADD).
func BNSpecs() []MicroSpec {
	return []MicroSpec{
		{Name: "BN1", N: 2 << 20},
		{Name: "BN2", N: 4 << 20},
		{Name: "BN3", N: 8 << 20},
		{Name: "BN4", N: 16 << 20},
	}
}

// MicroResult is one Fig. 10 cell.
type MicroResult struct {
	Spec    MicroSpec
	Batch   int
	HostNs  float64
	PimNs   float64
	Speedup float64 // host / PIM (PIM advantage > 1)

	HostLLCMiss float64

	// System energies in joules.
	HostProcJ, HostDevJ float64
	PimProcJ, PimDevJ   float64
}

// EnergyEffGain returns (host energy)/(PIM energy): how much less energy
// the PIM system spends on the same work.
func (r MicroResult) EnergyEffGain() float64 {
	return (r.HostProcJ + r.HostDevJ) / (r.PimProcJ + r.PimDevJ)
}

// RunMicro evaluates one microbenchmark at one batch size on a PIM system
// and a host system.
func RunMicro(pim, hostSys *System, spec MicroSpec, batch int) (MicroResult, error) {
	if !pim.IsPIM() {
		return MicroResult{}, fmt.Errorf("sim: %s is not a PIM system", pim.Name)
	}
	res := MicroResult{Spec: spec, Batch: batch}
	launch := pim.Proc.KernelLaunchNs

	if spec.IsGemv() {
		hc, err := hostSys.Proc.Gemv(spec.M, spec.K, batch)
		if err != nil {
			return res, err
		}
		res.HostNs = hc.NS
		res.HostLLCMiss = hc.LLCMissRate
		res.HostProcJ, res.HostDevJ = hostSys.hostKernelEnergyJ(hc.NS, hc.DRAMBytes, hc.ProcWatts)

		pc, err := pim.PimGemvCost(spec.M, spec.K)
		if err != nil {
			return res, err
		}
		// Batched inputs run as sequential GEMVs on PIM (Section VII-B).
		res.PimNs = float64(batch) * (pc.Ns + launch)
		st := pc.Stats
		st.Scale(int64(batch))
		res.PimProcJ, res.PimDevJ = pim.pimKernelEnergyJ(res.PimNs, st)
	} else {
		op := "add"
		if len(spec.Name) >= 2 && spec.Name[:2] == "BN" {
			op = "bn"
		}
		streams := 3
		if op == "bn" {
			streams = 2
		}
		hc, err := hostSys.Proc.Eltwise(spec.N, batch, streams)
		if err != nil {
			return res, err
		}
		res.HostNs = hc.NS
		res.HostLLCMiss = hc.LLCMissRate
		res.HostProcJ, res.HostDevJ = hostSys.hostKernelEnergyJ(hc.NS, hc.DRAMBytes, hc.ProcWatts)

		pc, err := pim.PimEltCost(op, spec.N*batch)
		if err != nil {
			return res, err
		}
		res.PimNs = pc.Ns + launch
		res.PimProcJ, res.PimDevJ = pim.pimKernelEnergyJ(res.PimNs, pc.Stats)
	}
	res.Speedup = res.HostNs / res.PimNs
	return res, nil
}

// RunMicroSuite evaluates the full Table VI set at one batch size.
func RunMicroSuite(pim, hostSys *System, batch int) ([]MicroResult, error) {
	specs := TableVI()
	out := make([]MicroResult, 0, len(specs))
	for _, spec := range specs {
		r, err := RunMicro(pim, hostSys, spec, batch)
		if err != nil {
			return nil, fmt.Errorf("sim: %s batch %d: %w", spec.Name, batch, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// GeoMeanSpeedup returns the geometric mean of the results' speedups.
func GeoMeanSpeedup(rs []MicroResult) float64 {
	if len(rs) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rs {
		sum += math.Log(r.Speedup)
	}
	return math.Exp(sum / float64(len(rs)))
}
