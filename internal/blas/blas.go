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

// region measures per-channel cycle deltas around a kernel.
type region struct {
	rt     *runtime.Runtime
	start  []int64
	fences []int64
}

func beginRegion(rt *runtime.Runtime) *region {
	r := &region{rt: rt, start: make([]int64, rt.NumChannels()), fences: make([]int64, rt.NumChannels())}
	for i, c := range rt.Chans {
		r.start[i] = c.Now()
		r.fences[i] = c.Fences()
	}
	return r
}

func (r *region) end() KernelStats {
	var ks KernelStats
	for i, c := range r.rt.Chans {
		if d := c.Now() - r.start[i]; d > ks.Cycles {
			ks.Cycles = d
		}
		ks.Fences += c.Fences() - r.fences[i]
	}
	return ks
}

// GRFDepth is the GRF accumulator depth of the runtime's device (the g
// that RefGemvPIMOrder interleaves over): oracle builders need it to
// reproduce device accumulation order exactly.
func GRFDepth(rt *runtime.Runtime) int { return rt.Cfg.GRFDepth() }

// splats builds the write-datapath payloads of one GEMV launch on one
// channel: payload k is x[k] replicated across the 16 lanes and
// serialized, zero from len(x) up to kp (the padded K). All kp payloads
// share one backing array, so a launch costs two allocations whatever K
// is; TriggerWRRun has issued every command by the time it returns and
// nothing downstream keeps a payload.
func splats(x fp16.Vector, kp int) [][]byte {
	const size = 2 * fp16.Lanes
	buf := make([]byte, kp*size)
	out := make([][]byte, kp)
	for k := range out {
		out[k] = buf[k*size : (k+1)*size : (k+1)*size]
		if k < len(x) {
			for l := 0; l < size; l += 2 {
				binary.LittleEndian.PutUint16(out[k][l:], uint16(x[k]))
			}
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
