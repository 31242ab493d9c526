// Package pim implements the PIM execution units of Section IV: 16-lane
// FP16 SIMD datapaths with CRF, GRF and SRF register files, driven in lock
// step by standard DRAM column commands. The Executor type implements
// hbm.PIMExecutor and attaches to a pseudo channel.
//
// One column command makes every unit of a pseudo channel execute the same
// CRF instruction on its own bank, so the package is split the same way:
// the Executor is the instruction sequencer and the data path (one copy of
// the control state, the program compiled once into a table of its CRF
// slots, the instruction's form picked once per trigger and then run over
// units 0..n-1 in one loop) and a Unit is the data the instruction works
// on (register files and the unit's own CRF words for register-space
// readback; a bank operand is read where it lies). The GRF and SRF hold
// bursts, the 32-byte words a column access carries, so a move is a
// fixed-size copy and an arithmetic instruction one fp16 burst-form call,
// whichever of its operands come from a register or a bank. The executor
// takes a trigger run (an AAM window's column commands) in one call, and
// runs the repetitions of an AAM instruction under a JUMP -1 loop in
// closed form: one bank read of all their columns, one data step over
// every repetition of every unit.
//
// A run that returns an error has failed part way, at the trigger after
// the ones it reports retired. After a failed bank access the units before
// the one the error names have executed that trigger's instruction, that
// one and the later ones have not, and registers and banks hold what the
// ones that ran left there; when a bank read failed, the later units'
// banks were not read either: no read statistic, fault sequence number or
// scrub is theirs. An error of the control walk after the instruction is
// unit 0's, met first, as every unit's: it comes after every unit
// executed the instruction, or only the units before a failed bank
// access, whose error it then overrides.
// The control state (PPC, loop counters, done flag) is unspecified from
// then until the next ResetPPC (AB-PIM re-entry, how a host recovers),
// and the retirement counters may or may not include the failed
// instruction; all of it is what the run's commands issued one at a time
// would have left.
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

// burstBytes is the size of a burst, the word one column access moves:
// 16 lanes of 2 bytes, little-endian. A GRF entry is one burst, and the
// SRF's two 8-lane halves are one burst together.
const burstBytes = 2 * fp16.Lanes

// copyBurst copies the first burst of src into dst, and copyHalf the
// first half burst, an SRF half's worth: fixed-size copies, in 8-byte
// words all loaded before any is stored, with no call.
func copyBurst(dst, src []byte) {
	_, _ = dst[burstBytes-1], src[burstBytes-1]
	w0, w1 := binary.LittleEndian.Uint64(src), binary.LittleEndian.Uint64(src[8:])
	w2, w3 := binary.LittleEndian.Uint64(src[16:]), binary.LittleEndian.Uint64(src[24:])
	binary.LittleEndian.PutUint64(dst, w0)
	binary.LittleEndian.PutUint64(dst[8:], w1)
	binary.LittleEndian.PutUint64(dst[16:], w2)
	binary.LittleEndian.PutUint64(dst[24:], w3)
}

func copyHalf(dst, src []byte) {
	_, _ = dst[burstBytes/2-1], src[burstBytes/2-1]
	w0, w1 := binary.LittleEndian.Uint64(src), binary.LittleEndian.Uint64(src[8:])
	binary.LittleEndian.PutUint64(dst, w0)
	binary.LittleEndian.PutUint64(dst[8:], w1)
}

// Unit is one PIM execution unit's data: the register files the 16 SIMD
// lanes share. What to execute, and how, is the Executor's to decide,
// once per trigger for all units; a unit has no code path of its own. The
// unit keeps its own CRF words because its register space is written and
// read back per unit; the Executor checks them against unit 0's before it
// sequences a program.
//
// The GRF and SRF hold the bursts a column access carries, in the layout
// of a bank's column and of the register space: "the host processor
// pushes 256 bits to the write drivers or PIM registers" (Section III-A),
// and a register's burst is what a MOV to a bank writes. Every move into
// or out of a register is therefore a fixed-size copy, and an arithmetic
// trigger hands the registers to fp16's burst forms as they lie.
type Unit struct {
	crf [isa.CRFEntries]uint32

	grf [2][][]byte // grf[h][idx]: register idx of GRF half h (0: GRF_A), a burst each
	srf []byte      // one burst: SRF_M in lanes 0-7, SRF_A in lanes 8-15

	grfEntries int // registers per GRF half (hbm.Config.GRFDepth)
}

// newUnits builds n units with the given GRF depth per half, in one array
// and without registers: a timing-only device never reads a register in a
// trigger, and most never address the register space at all, so the
// registers are cut only when something first needs them (cutRegisters).
func newUnits(n, grfEntries int) []*Unit {
	backing := make([]Unit, n)
	units := make([]*Unit, n)
	for i := range units {
		backing[i].grfEntries = grfEntries
		units[i] = &backing[i]
	}
	return units
}

// cutRegisters gives units built by newUnits their registers, once. They
// are cut from one array laid out register by register, the units' copies
// of each side by side, then the SRFs: a trigger works on one register of
// every unit, which is then one contiguous run of memory.
func cutRegisters(units []*Unit) {
	if units[0].srf != nil {
		return
	}
	n, grfEntries := len(units), units[0].grfEntries
	regs := make([]byte, (2*grfEntries+1)*n*burstBytes)
	reg := func(r, unit int) []byte {
		o := (r*n + unit) * burstBytes
		return regs[o : o+burstBytes : o+burstBytes]
	}
	for i, u := range units {
		for h := range u.grf {
			u.grf[h] = make([][]byte, grfEntries)
			for idx := range u.grf[h] {
				u.grf[h][idx] = reg(h*grfEntries+idx, i)
			}
		}
		u.srf = reg(2*grfEntries, i)
	}
}

// GRF returns a copy of a vector register (half 0 = GRF_A, 1 = GRF_B).
func (u *Unit) GRF(half, idx int) fp16.Vector {
	return fp16.VectorFromBytes(u.grf[half][idx])
}

// SRF returns a scalar register (port 0 = SRF_M, 1 = SRF_A).
func (u *Unit) SRF(port, idx int) fp16.F16 {
	return srfLane(u.srf, port*isa.SRFEntries+idx)
}

// srfLane decodes lane i of an SRF burst.
func srfLane(srf []byte, i int) fp16.F16 {
	return fp16.F16(binary.LittleEndian.Uint16(srf[2*i:]))
}

// Register-space access (memory-mapped CRF/GRF/SRF, Section III-B).

// regSpaceBurst returns the register a GRF or SRF register-space column
// maps to, as the burst it holds.
func (u *Unit) regSpaceBurst(space hbm.RegSpace, col uint32) ([]byte, error) {
	if space == hbm.RegSRF {
		if col != 0 {
			return nil, fmt.Errorf("pim: SRF column %d out of range", col)
		}
		return u.srf, nil
	}
	half, idx := int(col)/u.grfEntries, int(col)%u.grfEntries
	if half > 1 {
		return nil, fmt.Errorf("pim: GRF column %d out of range", col)
	}
	return u.grf[half][idx], nil
}

// writeRegSpace stores a 32-byte block into the unit's register space.
func (u *Unit) writeRegSpace(space hbm.RegSpace, col uint32, data []byte) error {
	if len(data) < burstBytes {
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
	case hbm.RegGRF, hbm.RegSRF:
		reg, err := u.regSpaceBurst(space, col)
		if err != nil {
			return err
		}
		copyBurst(reg, data)
	default:
		return fmt.Errorf("pim: write to register space %d", space)
	}
	return nil
}

// readRegSpace loads a 32-byte block from the unit's register space.
func (u *Unit) readRegSpace(space hbm.RegSpace, col uint32, buf []byte) error {
	if len(buf) < burstBytes {
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
	case hbm.RegGRF, hbm.RegSRF:
		reg, err := u.regSpaceBurst(space, col)
		if err != nil {
			return err
		}
		copyBurst(buf, reg)
	default:
		return fmt.Errorf("pim: read from register space %d", space)
	}
	return nil
}
