// Package host models the unmodified commercial processor the paper
// integrates PIM-HBM with: 60 compute units at 1.725 GHz behind an LLC and
// 1.229 TB/s of HBM bandwidth. It is an envelope model — per-kernel time
// is max(compute, memory) plus launch overhead, with DRAM traffic derived
// from an LLC reuse model — matching the paper's own methodology for
// everything it did not measure directly (Section VII-D notes DRAMSim2
// runs have no host model either).
package host

import "fmt"

// Processor is the host's performance/power envelope.
type Processor struct {
	CUs      int
	ClockGHz float64

	FP16TFlops float64 // peak FP16 throughput
	MemGBps    float64 // aggregate HBM bandwidth
	LLCBytes   int     // last-level cache capacity
	LLCGBps    float64 // LLC bandwidth for resident working sets

	KernelLaunchNs float64 // per-kernel dispatch overhead

	BusyWatts     float64 // package power while a compute kernel runs
	MemBoundWatts float64 // package power while stalled on memory
	IdleWatts     float64 // package power between kernels
}

// Default returns the evaluated system: a 60-CU processor with four HBM2E
// stacks at 1.2 GHz.
func Default() Processor {
	return Processor{
		CUs:            60,
		ClockGHz:       1.725,
		FP16TFlops:     26.5,   // 60 CU x 1.725 GHz x 256 FP16 FLOP/cycle
		MemGBps:        1228.8, // 4 x 307.2 GB/s
		LLCBytes:       4 << 20,
		LLCGBps:        6000,
		KernelLaunchNs: 5000,
		BusyWatts:      225,
		MemBoundWatts:  160,
		IdleWatts:      75,
	}
}

// WithMemory returns a copy with scaled memory bandwidth (the PROC-HBMx4
// hypothetical of Fig. 12).
func (p Processor) WithMemory(scale float64) Processor {
	p.MemGBps *= scale
	return p
}

// Cost is one kernel's modeled execution on the host.
type Cost struct {
	NS          float64 // wall time in nanoseconds
	DRAMBytes   float64 // bytes moved to or from DRAM
	Flops       float64
	LLCMissRate float64 // fraction of LLC lookups that went to DRAM
	ProcWatts   float64 // package power while this kernel runs
}

// memNs converts a DRAM byte count into time at an efficiency factor.
func (p Processor) memNs(bytes, eff float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return bytes / (eff * p.MemGBps)
}

// compNs converts a FLOP count into time at an efficiency factor.
func (p Processor) compNs(flops, eff float64) float64 {
	if flops <= 0 {
		return 0
	}
	return flops / (eff * p.FP16TFlops * 1e3)
}

// Gemv models y = W*x with batch columns on the host BLAS.
//
// DRAM traffic: the weight matrix is touched once per sample; batching
// lets the library tile so cross-sample reuse turns 1-1/B of those
// touches into LLC hits, degraded by the spill factor (imperfect tiling
// and capacity pressure, Fig. 10's 70-80% miss floor at batch 4). Working
// sets that fit in the LLC hit after the first pass instead.
func (p Processor) Gemv(m, k, batch int) (Cost, error) {
	return p.gemv(m, k, batch, gemvEfficiency(batch))
}

// LSTMGemv models the matrix-vector work of one LSTM step through the
// host's recurrent-kernel library (persistent weights, fused gates),
// which streams substantially better than the generic GEMV path.
func (p Processor) LSTMGemv(m, k, batch int) (Cost, error) {
	return p.gemv(m, k, batch, lstmEfficiency(batch))
}

func (p Processor) gemv(m, k, batch int, eff float64) (Cost, error) {
	if m <= 0 || k <= 0 || batch <= 0 {
		return Cost{}, fmt.Errorf("host: gemv dims %dx%d batch %d", m, k, batch)
	}
	weightBytes := 2 * float64(m) * float64(k)
	vecBytes := 2 * float64(batch) * float64(k+m)
	touched := weightBytes*float64(batch) + vecBytes

	miss := gemvMissRate(batch, weightBytes, float64(p.LLCBytes))
	dram := touched*miss + vecBytes
	memT := p.memNs(dram, eff)
	// LLC-resident portion streams from the cache.
	memT += (touched - touched*miss) / p.LLCGBps

	flops := 2 * float64(m) * float64(k) * float64(batch)
	compT := p.compNs(flops, gemmComputeEff)

	ns := maxf(memT, compT) + p.KernelLaunchNs
	watts := p.MemBoundWatts
	if compT > memT {
		watts = p.BusyWatts
	}
	return Cost{NS: ns, DRAMBytes: dram, Flops: flops, LLCMissRate: miss, ProcWatts: watts}, nil
}

// Eltwise models a streaming elementwise kernel touching `streams` operand
// vectors of n elements each (ADD: 3 — two in, one out).
func (p Processor) Eltwise(n, batch, streams int) (Cost, error) {
	if n <= 0 || batch <= 0 || streams <= 0 {
		return Cost{}, fmt.Errorf("host: eltwise n=%d batch=%d", n, batch)
	}
	bytes := 2 * float64(n) * float64(batch) * float64(streams)
	// Streaming data has no reuse at any batch size (level-1 BLAS stays
	// level-2 under batching, Section VII-B).
	cost := Cost{
		DRAMBytes:   bytes,
		Flops:       float64(n) * float64(batch),
		LLCMissRate: streamMissRate,
	}
	cost.NS = p.memNs(bytes, streamEfficiency) + p.KernelLaunchNs
	cost.ProcWatts = p.MemBoundWatts
	return cost, nil
}

// Conv models a compute-bound convolution (or any dense GEMM-shaped
// layer): time is FLOP-limited with activations/weights streamed behind
// the compute.
func (p Processor) Conv(flops, bytes float64, batch int) (Cost, error) {
	if flops <= 0 || batch <= 0 {
		return Cost{}, fmt.Errorf("host: conv flops=%v", flops)
	}
	f := flops * float64(batch)
	b := bytes * float64(batch)
	cost := Cost{DRAMBytes: b, Flops: f, LLCMissRate: convMissRate, ProcWatts: p.BusyWatts}
	cost.NS = maxf(p.compNs(f, convEfficiency(batch)), p.memNs(b, streamEfficiency)) + p.KernelLaunchNs
	return cost, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
