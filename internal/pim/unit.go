// Package pim implements the PIM execution unit of Section IV: a 16-lane
// FP16 SIMD datapath with CRF, GRF and SRF register files, driven in lock
// step by standard DRAM column commands. The Executor type implements
// hbm.PIMExecutor and attaches to a pseudo channel.
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

// Unit is one PIM execution unit: the state shared by the 16 SIMD lanes.
type Unit struct {
	crf [isa.CRFEntries]uint32

	grfA, grfB []fp16.Vector // vector registers, one 16-lane vector each
	srfM, srfA []fp16.F16    // scalar registers

	ppc       int                   // PIM program counter
	nopLeft   int                   // remaining idle command slots of a multi-cycle NOP
	jumpLeft  [isa.CRFEntries]int32 // per-CRF-slot remaining JUMP iterations
	jumpArmed [isa.CRFEntries]bool  // whether jumpLeft holds a live count for the slot
	done      bool

	// Decode cache: the unit re-fetches the same 32-slot microkernel once
	// per trigger, so decoding from the raw CRF word on every fetch
	// dominates the timing-only profile. Entries are invalidated when the
	// covering CRF slots are written.
	decoded [isa.CRFEntries]isa.Instruction
	decErr  [isa.CRFEntries]error
	decOK   [isa.CRFEntries]bool

	grfEntries int // registers per GRF half (hbm.Config.GRFDepth)

	opRetired  [isa.NumOpcodes]int64 // instructions retired, indexed by isa.Opcode
	aamRetired int64                 // of which address-aligned (AAM) instructions

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
	u.resetPPC()
	return u
}

func (u *Unit) resetPPC() {
	u.ppc = 0
	u.nopLeft = 0
	u.jumpLeft = [isa.CRFEntries]int32{}
	u.jumpArmed = [isa.CRFEntries]bool{}
	u.done = false
}

// fetchSlot returns the cached decode of CRF slot i, decoding on first use
// after the slot was written. The returned pointer aliases the cache entry
// (valid until the covering CRF slot is rewritten), so the per-trigger
// fetch loop copies no Instruction structs.
func (u *Unit) fetchSlot(i int) (*isa.Instruction, error) {
	if !u.decOK[i] {
		u.decodeSlot(i)
	}
	return &u.decoded[i], u.decErr[i]
}

// decodeSlot fills the decode cache for slot i — kept out of fetchSlot
// (and out of fetchSlot's inline budget) so the cache-hit path inlines
// into the fetch loop.
//
//go:noinline
func (u *Unit) decodeSlot(i int) {
	u.decoded[i], u.decErr[i] = isa.Decode(u.crf[i])
	u.decOK[i] = true
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

// Done reports whether the microkernel has executed EXIT.
func (u *Unit) Done() bool { return u.done }

// PPC returns the current program counter (for debugging and tests).
func (u *Unit) PPC() int { return u.ppc }

// grf returns the register slice for an ISA source.
func (u *Unit) grf(s isa.Src) []fp16.Vector {
	if s == isa.GRFA {
		return u.grfA
	}
	return u.grfB
}

// stepCounts reports what one command slot retired.
type stepCounts struct {
	instrs int // all retired instructions including zero-cycle control
	arith  int // FPU-active instructions
	moves  int // MOV/FILL instructions
}

// step executes PIM instructions until exactly one command slot has been
// consumed (zero-cycle JUMPs retire for free).
func (u *Unit) step(ctx *stepContext) (stepCounts, error) {
	var c stepCounts
	if u.done {
		return c, fmt.Errorf("pim: column command after EXIT (host sent too many triggers)")
	}
	if u.nopLeft > 0 {
		u.nopLeft--
		return c, nil // an idle slot of a multi-cycle NOP
	}
	for hops := 0; ; hops++ {
		if hops > isa.CRFEntries*2 {
			return c, fmt.Errorf("pim: control-flow livelock at PPC %d", u.ppc)
		}
		if u.ppc < 0 || u.ppc >= isa.CRFEntries {
			return c, fmt.Errorf("pim: PPC %d out of CRF range", u.ppc)
		}
		in, derr := u.fetchSlot(u.ppc)
		if derr != nil {
			return c, fmt.Errorf("pim: CRF[%d]: %w", u.ppc, derr)
		}
		switch in.Op {
		case isa.JUMP:
			// Zero-cycle: pre-decoded at fetch, consumes no command slot.
			c.instrs++
			u.opRetired[isa.JUMP]++
			left := int32(in.Imm0)
			if u.jumpArmed[u.ppc] {
				left = u.jumpLeft[u.ppc]
			}
			if left > 0 {
				u.jumpArmed[u.ppc] = true
				u.jumpLeft[u.ppc] = left - 1
				u.ppc -= int(in.Imm1)
			} else {
				u.jumpArmed[u.ppc] = false // rearm for a future pass
				u.ppc++
			}
			continue
		case isa.EXIT:
			c.instrs++
			u.opRetired[isa.EXIT]++
			u.done = true
			return c, nil
		case isa.NOP:
			c.instrs++
			u.opRetired[isa.NOP]++
			u.nopLeft = int(in.Imm0)
			u.ppc++
			return c, nil
		}
		// Data or arithmetic: consumes the command slot.
		c.instrs++
		u.opRetired[in.Op]++
		if in.AAM {
			u.aamRetired++
		}
		if in.Op.IsArith() {
			c.arith++
		} else {
			c.moves++
		}
		if err := u.execute(in, ctx); err != nil {
			return c, fmt.Errorf("pim: CRF[%d] %s: %w", u.ppc, *in, err)
		}
		u.ppc++
		// Flow control after the consuming instruction is zero-cycle
		// (pre-decoded at fetch, Section III-C): resolve JUMP chains and a
		// trailing EXIT without waiting for another command.
		n, err := u.resolveControl()
		c.instrs += n
		return c, err
	}
}

// resolveControl retires zero-cycle JUMPs and a trailing EXIT at the
// current PPC, stopping as soon as the PPC rests on a consuming
// instruction.
func (u *Unit) resolveControl() (int, error) {
	instrs := 0
	for hops := 0; ; hops++ {
		if hops > isa.CRFEntries*2 {
			return instrs, fmt.Errorf("pim: control-flow livelock at PPC %d", u.ppc)
		}
		if u.ppc < 0 || u.ppc >= isa.CRFEntries {
			return instrs, fmt.Errorf("pim: PPC %d out of CRF range", u.ppc)
		}
		in, err := u.fetchSlot(u.ppc)
		if err != nil {
			return instrs, fmt.Errorf("pim: CRF[%d]: %w", u.ppc, err)
		}
		switch in.Op {
		case isa.JUMP:
			instrs++
			u.opRetired[isa.JUMP]++
			left := int32(in.Imm0)
			if u.jumpArmed[u.ppc] {
				left = u.jumpLeft[u.ppc]
			}
			if left > 0 {
				u.jumpArmed[u.ppc] = true
				u.jumpLeft[u.ppc] = left - 1
				u.ppc -= int(in.Imm1)
			} else {
				u.jumpArmed[u.ppc] = false
				u.ppc++
			}
		case isa.EXIT:
			instrs++
			u.opRetired[isa.EXIT]++
			u.done = true
			return instrs, nil
		default:
			return instrs, nil
		}
	}
}

// stepContext carries per-trigger information into instruction execution.
type stepContext struct {
	kind     hbm.CmdKind
	bankSel  int
	row, col uint32
	wrData   []byte
	access   hbm.BankAccess

	// Device facts, constant per executor: hbm.Config.Functional (false:
	// sequence instructions and touch banks for the stat counters, skip
	// the FP16 math), TriggerBanks == 2, WROperand.
	functional, twoBank, wrOperand bool

	evenBank, oddBank int // flat bank indices for this unit
}

// aamIndex derives a register index from the triggering address in
// address-aligned mode: the low column bits walk the register file
// linearly (Section IV-C).
func (c *stepContext) aamIndex(entries int) uint8 {
	return uint8(int(c.col) % entries)
}

// execute performs one data or arithmetic instruction.
func (u *Unit) execute(in *isa.Instruction, ctx *stepContext) error {
	dstIdx, s0Idx, s1Idx := int(in.DstIdx), int(in.Src0Idx), int(in.Src1Idx)
	if in.AAM {
		// All three index fields are replaced by the same address
		// sub-field; distinct register files keep the operands distinct.
		gi := int(ctx.aamIndex(u.grfEntries))
		si := int(ctx.aamIndex(isa.SRFEntries))
		idxFor := func(s isa.Src) int {
			if s.IsSRF() {
				return si
			}
			return gi
		}
		dstIdx, s0Idx, s1Idx = idxFor(in.Dst), idxFor(in.Src0), idxFor(in.Src1)
	}
	if dstIdx >= u.grfEntries && in.Dst.IsGRF() {
		return fmt.Errorf("pim: DST index %d exceeds GRF depth %d", dstIdx, u.grfEntries)
	}

	// Simultaneous read/write: a WR trigger forwards the host payload into
	// the GRF write port while the bank read proceeds, so a single command
	// both loads the vector operand and executes the arithmetic (Fig. 14).
	if in.Op.IsArith() && ctx.wrOperand && ctx.kind == hbm.CmdWR &&
		in.Src0.IsGRF() && ctx.functional && len(ctx.wrData) >= 2*fp16.Lanes {
		u.grf(in.Src0)[s0Idx].DecodeBytes(ctx.wrData[:2*fp16.Lanes])
	}

	// Only data-movement instructions may capture the write datapath as
	// their bank operand; an arithmetic bank operand needs a real array
	// read, which a WR trigger supplies only on a wrOperand device.
	allowCapture := in.Op.IsData()

	switch in.Op {
	case isa.MOV:
		if in.Dst.IsBank() {
			// GRF -> bank store; needs the write drivers, i.e. a WR trigger.
			if ctx.kind != hbm.CmdWR {
				return fmt.Errorf("pim: MOV to bank triggered by %s, needs WR", ctx.kind)
			}
			src := u.grf(in.Src0)[s0Idx]
			if in.ReLU && ctx.functional {
				// Staging only matters when data is modeled; timing-only
				// stores pass no payload either way.
				src = fp16.ReLUVec(u.tmpVec, src)
			}
			return u.writeBank(in.Dst, ctx, src)
		}
		src, err := u.fetch(in.Src0, s0Idx, ctx, allowCapture)
		if err != nil {
			return err
		}
		dst := u.grf(in.Dst)[dstIdx]
		if !ctx.functional {
			return nil
		}
		if in.ReLU {
			fp16.ReLUVec(dst, src)
		} else {
			copy(dst, src)
		}
		return nil

	case isa.FILL:
		src, err := u.readBank(in.Src0, ctx, true)
		if err != nil {
			return err
		}
		if !ctx.functional {
			return nil
		}
		switch {
		case in.Dst.IsGRF():
			copy(u.grf(in.Dst)[dstIdx], src)
		case in.Dst == isa.SRFM:
			// The SRF halves mirror the memory-mapped layout: SRF_M takes
			// lanes 0-7 of the block, SRF_A lanes 8-15.
			copy(u.srfM, src[:isa.SRFEntries])
		default: // SRF_A
			copy(u.srfA, src[isa.SRFEntries:2*isa.SRFEntries])
		}
		return nil
	}

	// Arithmetic.
	a, err := u.fetch(in.Src0, s0Idx, ctx, allowCapture)
	if err != nil {
		return err
	}
	b, err := u.fetch(in.Src1, s1Idx, ctx, allowCapture)
	if err != nil {
		return err
	}
	if !ctx.functional {
		return nil
	}
	dst := u.grf(in.Dst)[dstIdx]
	switch in.Op {
	case isa.ADD:
		fp16.AddVec(dst, a, b)
	case isa.MUL:
		fp16.MulVec(dst, a, b)
	case isa.MAC:
		fp16.MACVec(dst, a, b)
	case isa.MAD:
		// dst = a*b + SRF_A[s1Idx] (the addend shares SRC1's index in a
		// different register file, Section III-C). The scalar feeds every
		// lane directly; no broadcast staging needed.
		fp16.MADVec(dst, a, b, u.srfA[s1Idx%isa.SRFEntries])
	}
	return nil
}

// fetch resolves one instruction operand. Like readBank's result, a bank
// or scalar-broadcast operand aliases the unit's staging buffers and is
// only valid until the next fetch.
func (u *Unit) fetch(s isa.Src, idx int, ctx *stepContext, allowCapture bool) (fp16.Vector, error) {
	switch {
	case s.IsGRF():
		if idx >= u.grfEntries {
			return nil, fmt.Errorf("pim: %s index %d exceeds GRF depth %d", s, idx, u.grfEntries)
		}
		return u.grf(s)[idx], nil
	case s.IsBank():
		return u.readBank(s, ctx, allowCapture)
	case s == isa.SRFM:
		return u.broadcast(u.srfM[idx%isa.SRFEntries]), nil
	default: // SRF_A
		return u.broadcast(u.srfA[idx%isa.SRFEntries]), nil
	}
}

// readBank fetches 32 bytes from the unit's even or odd bank at the
// triggering column. Under a WR trigger, a data-movement instruction
// (allowCapture) captures the host payload from the write datapath instead
// — "the host processor pushes 256 bits to the write drivers or PIM
// registers" (Section III-A) — which is how input vectors are loaded into
// the GRF between compute bursts.
// The returned vector is the unit's reusable staging buffer: it is valid
// until the next operand fetch and must be consumed (copied or combined
// into a register) before then, which every instruction does.
func (u *Unit) readBank(s isa.Src, ctx *stepContext, allowCapture bool) (fp16.Vector, error) {
	if allowCapture && ctx.kind == hbm.CmdWR {
		if !ctx.functional {
			return u.bankVec, nil // contents are never read in timing-only mode
		}
		if len(ctx.wrData) < 2*fp16.Lanes {
			clear(u.bankVec)
			return u.bankVec, nil
		}
		return u.bankVec.DecodeBytes(ctx.wrData[:2*fp16.Lanes]), nil
	}
	idx, err := u.bankIndex(s, ctx, hbm.CmdRD)
	if err != nil {
		return nil, err
	}
	if err := ctx.access.ReadBank(idx, ctx.col, u.bankBuf); err != nil {
		return nil, err
	}
	if !ctx.functional {
		return u.bankVec, nil // contents are never read in timing-only mode
	}
	return u.bankVec.DecodeBytes(u.bankBuf), nil
}

// writeBank stores a vector to the unit's even or odd bank.
func (u *Unit) writeBank(s isa.Src, ctx *stepContext, v fp16.Vector) error {
	idx, err := u.bankIndex(s, ctx, hbm.CmdWR)
	if err != nil {
		return err
	}
	if !ctx.functional {
		return ctx.access.WriteBank(idx, ctx.col, nil)
	}
	v.PutBytes(u.outBuf)
	return ctx.access.WriteBank(idx, ctx.col, u.outBuf)
}

// bankIndex resolves EVEN_BANK/ODD_BANK to a flat bank index, checking
// that the triggering command actually drives that bank set.
func (u *Unit) bankIndex(s isa.Src, ctx *stepContext, need hbm.CmdKind) (int, error) {
	if ctx.evenBank == ctx.oddBank {
		// 2x variant: one unit per bank; both names alias the single bank.
		return ctx.evenBank, nil
	}
	want := 0
	idx := ctx.evenBank
	if s == isa.OddBank {
		want = 1
		idx = ctx.oddBank
	}
	if !ctx.twoBank && ctx.bankSel != want {
		return 0, fmt.Errorf("pim: instruction reads %s but the command drives the %s banks",
			s, []string{"even", "odd"}[ctx.bankSel])
	}
	if need == hbm.CmdRD && ctx.kind == hbm.CmdWR && !ctx.wrOperand {
		// A WR trigger cannot supply a bank read operand unless the
		// overlapping RD datapath is available.
		return 0, fmt.Errorf("pim: bank read operand on a WR trigger")
	}
	if need == hbm.CmdWR && ctx.kind == hbm.CmdRD {
		return 0, fmt.Errorf("pim: bank write on a RD trigger")
	}
	return idx, nil
}

// broadcast splats a scalar across the unit's reusable broadcast buffer;
// like readBank's result, the slice is only valid until the next fetch.
func (u *Unit) broadcast(s fp16.F16) fp16.Vector {
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
			u.decOK[base+i] = false // invalidate the decode cache
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
