// Package pim implements the PIM execution units of Section IV: 16-lane
// FP16 SIMD datapaths with CRF, GRF and SRF register files, driven in lock
// step by standard DRAM column commands. The Executor type implements
// hbm.PIMExecutor and attaches to a pseudo channel.
//
// One column command makes every unit of a pseudo channel execute the same
// CRF instruction on its own bank, so the package is split the same way:
// the Executor is the instruction sequencer (one copy of the control
// state, the instruction's operands resolved once per trigger) and a Unit
// is the data the instruction works on (register files, the unit's own CRF
// words for register-space readback, operand staging).
//
// A trigger that returns an error has failed part way: the units before
// the one the error names have executed the instruction, that one and the
// later ones have not, and registers and banks hold what the ones that ran
// left there. The control state (PPC, loop counters, done flag) is
// unspecified from then until the next ResetPPC (AB-PIM re-entry, how a
// host recovers), and the retirement counters may or may not include the
// failed instruction.
package pim

import (
	"encoding/binary"
	"fmt"

	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/isa"
)

// PipelineStages is the depth of the execution pipeline (fetch/decode,
// bank read, multiply, add, writeback). Execution latency is deterministic
// and hidden under the tCCD_L command cadence, which is what lets a JEDEC
// controller drive the unit blind (Section IV-B).
const PipelineStages = 5

// Unit is one PIM execution unit's data: the register files the 16 SIMD
// lanes share and the staging of one instruction's operands. What to
// execute is the Executor's to decide; a unit only applies it. The unit
// keeps its own CRF words because its register space is written and read
// back per unit; the Executor checks them against unit 0's before it
// sequences a program.
type Unit struct {
	crf [isa.CRFEntries]uint32

	grfA, grfB []fp16.Vector // vector registers, one 16-lane vector each
	srfM, srfA []fp16.F16    // scalar registers

	grfEntries int // registers per GRF half (hbm.Config.GRFDepth)

	// Operand-staging scratch, reused across instructions so the hot path
	// performs no allocation. The ISA guarantees at most one bank operand
	// and one scalar broadcast per instruction, so one buffer of each kind
	// suffices; contents are dead once the instruction retires.
	bankBuf []byte      // bank read burst (2*Lanes bytes)
	bankVec fp16.Vector // decoded bank operand
	srfVec  fp16.Vector // broadcast scalar operand
	tmpVec  fp16.Vector // ReLU staging and register-space marshalling
	outBuf  []byte      // bank write burst (2*Lanes bytes)
}

// newUnit builds a unit with the given GRF depth per half.
func newUnit(grfEntries int) *Unit {
	u := &Unit{grfEntries: grfEntries}
	u.grfA = make([]fp16.Vector, grfEntries)
	u.grfB = make([]fp16.Vector, grfEntries)
	for i := 0; i < grfEntries; i++ {
		u.grfA[i] = fp16.NewVector(fp16.Lanes)
		u.grfB[i] = fp16.NewVector(fp16.Lanes)
	}
	u.srfM = make([]fp16.F16, isa.SRFEntries)
	u.srfA = make([]fp16.F16, isa.SRFEntries)
	u.bankBuf = make([]byte, 2*fp16.Lanes)
	u.bankVec = fp16.NewVector(fp16.Lanes)
	u.srfVec = fp16.NewVector(fp16.Lanes)
	u.tmpVec = fp16.NewVector(fp16.Lanes)
	u.outBuf = make([]byte, 2*fp16.Lanes)
	return u
}

// GRF returns a copy of a vector register (half 0 = GRF_A, 1 = GRF_B).
func (u *Unit) GRF(half, idx int) fp16.Vector {
	regs := u.grfA
	if half == 1 {
		regs = u.grfB
	}
	out := fp16.NewVector(fp16.Lanes)
	copy(out, regs[idx])
	return out
}

// SRF returns a scalar register (port 0 = SRF_M, 1 = SRF_A).
func (u *Unit) SRF(port, idx int) fp16.F16 {
	if port == 0 {
		return u.srfM[idx]
	}
	return u.srfA[idx]
}

// grf returns the register slice for an ISA source.
func (u *Unit) grf(s isa.Src) []fp16.Vector {
	if s == isa.GRFA {
		return u.grfA
	}
	return u.grfB
}

// execute applies one resolved data or arithmetic instruction to this
// unit's registers and banks; evenBank is the flat index of the unit's
// first bank. Every index in op is already checked.
func (u *Unit) execute(op *dataOp, evenBank int) error {
	in := op.in
	if in.Dst.IsBank() {
		// MOV GRF -> bank.
		src := u.grf(op.a.src)[op.a.idx]
		if in.ReLU {
			src = fp16.ReLUVec(u.tmpVec, src)
		}
		src.PutBytes(u.outBuf)
		return op.access.WriteBank(evenBank+op.bank, op.col, u.outBuf)
	}
	if op.forward {
		copy(u.grf(op.a.src)[op.a.idx], op.payload[:])
	}
	if op.bank >= 0 {
		// The one bank operand: 32 bytes from the unit's even or odd bank
		// at the triggering column.
		if err := op.access.ReadBank(evenBank+op.bank, op.col, u.bankBuf); err != nil {
			return err
		}
		u.bankVec.DecodeBytes(u.bankBuf)
	}
	a := u.operand(&op.a, op)
	switch in.Op {
	case isa.MOV:
		if dst := u.grf(in.Dst)[op.dst]; in.ReLU {
			fp16.ReLUVec(dst, a)
		} else {
			copy(dst, a)
		}
	case isa.FILL:
		switch {
		case in.Dst.IsGRF():
			copy(u.grf(in.Dst)[op.dst], a)
		case in.Dst == isa.SRFM:
			// The SRF halves mirror the memory-mapped layout: SRF_M takes
			// lanes 0-7 of the block, SRF_A lanes 8-15.
			copy(u.srfM, a[:isa.SRFEntries])
		default: // SRF_A
			copy(u.srfA, a[isa.SRFEntries:2*isa.SRFEntries])
		}
	case isa.ADD:
		fp16.AddVec(u.grf(in.Dst)[op.dst], a, u.operand(&op.b, op))
	case isa.MUL:
		fp16.MulVec(u.grf(in.Dst)[op.dst], a, u.operand(&op.b, op))
	case isa.MAC:
		fp16.MACVec(u.grf(in.Dst)[op.dst], a, u.operand(&op.b, op))
	case isa.MAD:
		// The scalar addend feeds every lane directly; no broadcast
		// staging needed.
		fp16.MADVec(u.grf(in.Dst)[op.dst], a, u.operand(&op.b, op), u.srfA[op.addend])
	}
	return nil
}

// operand returns one source operand of this unit: a register, the
// executor's decoded payload, the bank burst execute staged (none of them
// to be written through) or a broadcast scalar.
func (u *Unit) operand(o *operand, op *dataOp) fp16.Vector {
	switch o.src {
	case isa.GRFA:
		return u.grfA[o.idx]
	case isa.GRFB:
		return u.grfB[o.idx]
	case isa.SRFM, isa.SRFA:
		return u.broadcast(o)
	}
	if o.payload {
		return op.payload[:]
	}
	return u.bankVec
}

// broadcast splats a scalar register across the unit's reusable broadcast
// buffer, valid until the next one (an instruction has at most one scalar
// operand).
func (u *Unit) broadcast(o *operand) fp16.Vector {
	s := u.srfA[o.idx]
	if o.src == isa.SRFM {
		s = u.srfM[o.idx]
	}
	v := u.srfVec
	for i := range v {
		v[i] = s
	}
	return v
}

// Register-space access (memory-mapped CRF/GRF/SRF, Section III-B).

// writeRegSpace stores a 32-byte block into the unit's register space.
func (u *Unit) writeRegSpace(space hbm.RegSpace, col uint32, data []byte) error {
	if len(data) < 32 {
		return fmt.Errorf("pim: register write payload %dB, want 32B", len(data))
	}
	switch space {
	case hbm.RegCRF:
		base := int(col) * 8
		if base+8 > isa.CRFEntries {
			return fmt.Errorf("pim: CRF column %d out of range", col)
		}
		for i := 0; i < 8; i++ {
			u.crf[base+i] = binary.LittleEndian.Uint32(data[4*i:])
		}
	case hbm.RegGRF:
		half, idx := int(col)/u.grfEntries, int(col)%u.grfEntries
		if half > 1 {
			return fmt.Errorf("pim: GRF column %d out of range", col)
		}
		regs := u.grfA
		if half == 1 {
			regs = u.grfB
		}
		regs[idx].DecodeBytes(data[:32])
	case hbm.RegSRF:
		if col != 0 {
			return fmt.Errorf("pim: SRF column %d out of range", col)
		}
		v := u.tmpVec.DecodeBytes(data[:32])
		copy(u.srfM, v[:isa.SRFEntries])
		copy(u.srfA, v[isa.SRFEntries:])
	default:
		return fmt.Errorf("pim: write to register space %d", space)
	}
	return nil
}

// readRegSpace loads a 32-byte block from the unit's register space.
func (u *Unit) readRegSpace(space hbm.RegSpace, col uint32, buf []byte) error {
	if len(buf) < 32 {
		return fmt.Errorf("pim: register read buffer %dB, want 32B", len(buf))
	}
	switch space {
	case hbm.RegCRF:
		base := int(col) * 8
		if base+8 > isa.CRFEntries {
			return fmt.Errorf("pim: CRF column %d out of range", col)
		}
		for i := 0; i < 8; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], u.crf[base+i])
		}
	case hbm.RegGRF:
		half, idx := int(col)/u.grfEntries, int(col)%u.grfEntries
		if half > 1 {
			return fmt.Errorf("pim: GRF column %d out of range", col)
		}
		regs := u.grfA
		if half == 1 {
			regs = u.grfB
		}
		regs[idx].PutBytes(buf)
	case hbm.RegSRF:
		if col != 0 {
			return fmt.Errorf("pim: SRF column %d out of range", col)
		}
		v := u.tmpVec[:2*isa.SRFEntries]
		copy(v[:isa.SRFEntries], u.srfM)
		copy(v[isa.SRFEntries:], u.srfA)
		v.PutBytes(buf)
	default:
		return fmt.Errorf("pim: read from register space %d", space)
	}
	return nil
}
