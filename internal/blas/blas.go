// Package blas implements the PIM BLAS library of Section V-A: GEMV, ADD,
// MUL, ReLU, BN and LSTM primitives that lay operands out across banks,
// generate the DRAM command streams that drive the PIM microkernels, and
// read results back — plus bit-exact host reference implementations used
// for verification and as the CPU fallback.
package blas

import (
	"encoding/binary"
	"fmt"

	"pimsim/internal/fp16"
	"pimsim/internal/runtime"
)

// KernelStats reports what one PIM kernel cost.
type KernelStats struct {
	Cycles   int64 // slowest channel's kernel-region cycles
	Triggers int64 // PIM-triggering column commands issued (all channels)
	Fences   int64 // ordering fences executed (all channels)
}

// Ns converts the cycle count to nanoseconds under the runtime's timing.
func (k KernelStats) Ns(rt *runtime.Runtime) float64 {
	return rt.Cfg.Timing.CyclesToNs(k.Cycles)
}

// regionStats is the cost of the kernel region rt.BeginRegion opened: the
// slowest channel's cycles and every channel's fences since.
func regionStats(rt *runtime.Runtime) KernelStats {
	cycles, fences := rt.EndRegion()
	return KernelStats{Cycles: cycles, Fences: fences}
}

// GRFDepth is the GRF accumulator depth of the runtime's device (the g
// that RefGemvPIMOrder interleaves over): oracle builders need it to
// reproduce device accumulation order exactly.
func GRFDepth(rt *runtime.Runtime) int { return rt.Cfg.GRFDepth() }

// splats fills the write-datapath payloads of one GEMV launch on one
// channel, out (a runtime.Payloads run of the padded K): payload k is x[k]
// replicated across the 16 lanes, zero from len(x) on. It writes every
// byte of every payload and allocates nothing.
func splats(out [][]byte, x fp16.Vector) [][]byte {
	for k, p := range out {
		var w uint64
		if k < len(x) {
			w = uint64(x[k]) * 0x0001_0001_0001_0001
		}
		for l := 0; l < 2*fp16.Lanes; l += 8 {
			binary.LittleEndian.PutUint64(p[l:], w)
		}
	}
	return out
}

// foldGRFB folds one unit's G partial-sum registers into the outputs they
// hold, y[o:] (clipped at len(y): the last block of a ragged M): lane by
// lane, left to right from zero, the order RefGemvPIMOrder folds in.
func foldGRFB(y fp16.Vector, o int, regs []fp16.Vector) {
	if o >= len(y) {
		return
	}
	var acc [fp16.Lanes]fp16.F16
	for _, r := range regs {
		fp16.AddVec(acc[:], acc[:], r)
	}
	copy(y[o:], acc[:])
}

// ceilDiv is integer ceiling division.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// checkLen validates a functional operand length.
func checkLen(name string, v fp16.Vector, want int) error {
	if v != nil && len(v) != want {
		return fmt.Errorf("blas: %s has %d elements, want %d", name, len(v), want)
	}
	return nil
}
