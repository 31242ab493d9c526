// Package pim implements the PIM execution units of Section IV: 16-lane
// FP16 SIMD datapaths with CRF, GRF and SRF register files, driven in lock
// step by standard DRAM column commands. The Executor type implements
// hbm.PIMExecutor and attaches to a pseudo channel.
//
// One column command makes every unit of a pseudo channel execute the same
// CRF instruction on its own bank, so the package is split the same way:
// the Executor is the instruction sequencer and the data path (one copy of
// the control state, the instruction's operands resolved once per trigger,
// its form picked once per trigger and then run over units 0..n-1 in one
// loop) and a Unit is the data the instruction works on (register files
// and the unit's own CRF words for register-space readback; a bank operand
// is read where it lies).
//
// A trigger that returns an error has failed part way: the units before
// the one the error names have executed the instruction, that one and the
// later ones have not, and registers and banks hold what the ones that ran
// left there. When a bank read failed, the later units' banks were not
// read either: no read statistic, fault sequence number or scrub is
// theirs. The control state (PPC, loop counters, done flag) is
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
// lanes share. What to execute, and how, is the Executor's to decide,
// once per trigger for all units; a unit has no code path of its own. The
// unit keeps its own CRF words because its register space is written and
// read back per unit; the Executor checks them against unit 0's before it
// sequences a program.
type Unit struct {
	crf [isa.CRFEntries]uint32

	grfA, grfB []fp16.Vector // vector registers, one 16-lane vector each
	srfM, srfA []fp16.F16    // scalar registers

	grfEntries int // registers per GRF half (hbm.Config.GRFDepth)

	tmpVec fp16.Vector // register-space marshalling
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
	u.tmpVec = fp16.NewVector(fp16.Lanes)
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
