package pim

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/isa"
	"pimsim/internal/obs"
)

// Executor is the PIM logic of one pseudo channel: one instruction
// sequencer and the execution units it drives. It implements
// hbm.PIMExecutor.
//
// Every unit executes the same CRF slot on the same command (Section
// III-B), so whatever a trigger decides without looking at register or
// bank data is decided here, once: the control walk (PPC, JUMP counters,
// NOP countdown, EXIT), the instruction decode, the AAM register indices
// and their range checks, which bank of each unit the command drives and
// whether this command kind may, and the WR payload. A bank operand is
// then read for all units in one hbm.BankAccess.ReadBanks call that visits
// their banks in unit order. The data step (execute) picks the
// instruction's form once per trigger (destination, operand sources,
// operation) and runs it over units 0..n-1 in order: a move is one
// fixed-size copy of a burst per unit, an arithmetic instruction one fp16
// burst-form call that loops over them, each unit on its own registers
// and a view of its own burst, wherever the bank operand sits. A unit's
// operation touches no other unit's bank, so bank statistics, ECC, the
// fault injector's read sequence and the unit an error names are those of
// n units each reading and executing in turn: a read that fails at unit k
// leaves units 0..k-1 executed and the banks of the units after k unread,
// and a bank write that fails at unit k leaves the units after k
// unwritten. A timing-only device has no data to operate on: the same
// sequencer runs and the units' bank traffic is accounted in one call.
//
// Lock step is checked, not assumed. The units keep their own CRF words
// (an SB-mode column write reaches one unit's register space alone), the
// sequencer decodes unit 0's, and a trigger is refused while any unit holds
// a different program (checkLockStep).
type Executor struct {
	units        []*Unit
	banksPerUnit int
	grfEntries   int // registers per GRF half (hbm.Config.GRFDepth)
	triggers     int64

	// Device facts, constant per executor: hbm.Config.Functional (false:
	// sequence instructions and account bank traffic, skip the data),
	// TriggerBanks == 2, WROperand.
	functional, twoBank, wrOperand bool

	ppc       int                   // PIM program counter
	nopLeft   int                   // remaining idle command slots of a multi-cycle NOP
	jumpLeft  [isa.CRFEntries]int32 // per-CRF-slot remaining JUMP iterations
	jumpArmed [isa.CRFEntries]bool  // whether jumpLeft holds a live count for the slot
	done      bool

	// Decode cache over unit 0's CRF words: a microkernel re-fetches the
	// same few slots once per trigger. A CRF register write invalidates it.
	decoded [isa.CRFEntries]isa.Instruction
	decErr  [isa.CRFEntries]error
	decOK   [isa.CRFEntries]bool

	// lockStepErr is the memoised verdict of checkLockStep, valid while
	// lockStepChecked; a CRF register write and ResetPPC clear that.
	lockStepChecked bool
	lockStepErr     error

	opRetired  [isa.NumOpcodes]int64 // instructions retired per unit, indexed by isa.Opcode
	aamRetired int64                 // of which address-aligned (AAM) instructions

	op dataOp // the current trigger's resolved instruction (reused: nothing is allocated per command)

	// Functional executors only: each unit's bank operand of the current
	// trigger (hbm.BankAccess.ReadBanks) and the scratch a view points into
	// when the readout is a copy.
	views   [][]byte
	scratch []byte

	// Functional executors only: the data step's per-unit operand lists,
	// built once because what they list never moves. grf[h][idx] is
	// register idx of GRF half h (0: GRF_A) of every unit in unit order,
	// srf the units' SRF bursts, and bcast one staging burst per unit for
	// a scalar broadcast. A trigger hands
	// prefixes of them to fp16, with the MAD addends, the burst forms'
	// resume buffer and the ReLU staging of a bank write beside them, so
	// it allocates nothing.
	grf        [2][][][]byte
	srf, bcast [][]byte
	addends    []fp16.F16
	resume     [fp16.MaxBurstUnits]int32
	relu       []byte

	// TL, when set, records per-trigger retired-instruction counts into
	// the observability timeline (the Perfetto PIM-activity counter
	// track). Nil costs one pointer compare per trigger.
	TL *obs.ChannelTimeline
}

// NewExecutor builds the execution layer for a PIM device configuration.
func NewExecutor(cfg hbm.Config) (*Executor, error) {
	if cfg.PIMUnits <= 0 {
		return nil, fmt.Errorf("pim: configuration has no PIM units")
	}
	if cfg.Banks()%cfg.PIMUnits != 0 {
		return nil, fmt.Errorf("pim: %d units do not divide %d banks", cfg.PIMUnits, cfg.Banks())
	}
	e := &Executor{
		units:        newUnits(cfg.PIMUnits, cfg.GRFDepth()),
		banksPerUnit: cfg.BanksPerUnit(),
		grfEntries:   cfg.GRFDepth(),
		functional:   cfg.Functional,
		twoBank:      cfg.TriggerBanks() == 2,
		wrOperand:    cfg.WROperand(),
	}
	if e.functional {
		n := cfg.PIMUnits
		e.views = make([][]byte, n)
		e.scratch = make([]byte, n*burstBytes)
		for h := range e.grf {
			e.grf[h] = make([][][]byte, e.grfEntries)
			for idx := range e.grf[h] {
				e.grf[h][idx] = make([][]byte, n)
				for i, u := range e.units {
					e.grf[h][idx][i] = u.grf[h][idx]
				}
			}
		}
		e.srf, e.bcast = make([][]byte, n), make([][]byte, n)
		bcast := make([]byte, n*burstBytes)
		for i, u := range e.units {
			e.srf[i], e.bcast[i] = u.srf, bcast[i*burstBytes:(i+1)*burstBytes]
		}
		e.addends = make([]fp16.F16, n)
		e.relu = make([]byte, burstBytes)
	}
	return e, nil
}

// Attach builds an executor and connects it to every pseudo channel of the
// device, returning one executor per channel.
func Attach(dev *hbm.Device) ([]*Executor, error) {
	execs := make([]*Executor, dev.NumPCH())
	for i := range execs {
		e, err := NewExecutor(dev.Config())
		if err != nil {
			return nil, err
		}
		dev.PCH(i).AttachPIM(e)
		execs[i] = e
	}
	return execs, nil
}

// Unit returns execution unit i (for result readout and tests).
func (e *Executor) Unit(i int) *Unit { return e.units[i] }

// NumUnits returns the number of units.
func (e *Executor) NumUnits() int { return len(e.units) }

// RegisterWrite implements hbm.PIMExecutor.
func (e *Executor) RegisterWrite(unit int, space hbm.RegSpace, col uint32, data []byte) error {
	if unit < 0 || unit >= len(e.units) {
		return fmt.Errorf("pim: unit %d out of range", unit)
	}
	if space == hbm.RegCRF {
		e.decOK = [isa.CRFEntries]bool{}
		e.lockStepChecked = false
	}
	return e.units[unit].writeRegSpace(space, col, data)
}

// RegisterRead implements hbm.PIMExecutor.
func (e *Executor) RegisterRead(unit int, space hbm.RegSpace, col uint32, buf []byte) error {
	if unit < 0 || unit >= len(e.units) {
		return fmt.Errorf("pim: unit %d out of range", unit)
	}
	return e.units[unit].readRegSpace(space, col, buf)
}

// ResetPPC implements hbm.PIMExecutor.
func (e *Executor) ResetPPC() {
	e.ppc = 0
	e.nopLeft = 0
	e.jumpLeft = [isa.CRFEntries]int32{}
	e.jumpArmed = [isa.CRFEntries]bool{}
	e.done = false
	e.lockStepChecked = false
}

// checkLockStep compares every unit's CRF with unit 0's, the program the
// sequencer runs, and memoises the verdict until the next CRF write or
// ResetPPC. Broadcast programming keeps the units identical; an SB-mode
// column write to one bank's CRF row does not.
func (e *Executor) checkLockStep() {
	e.lockStepChecked, e.lockStepErr = true, nil
	crf0 := &e.units[0].crf
	for i, u := range e.units {
		if u.crf == *crf0 {
			continue
		}
		for slot := range u.crf {
			if u.crf[slot] != crf0[slot] {
				e.lockStepErr = fmt.Errorf("pim: unit %d: CRF[%d] differs from unit 0's: the units are not in lock step", i, slot)
				return
			}
		}
	}
}

// Trigger implements hbm.PIMExecutor: one column command advances every
// unit by one command slot.
func (e *Executor) Trigger(ctx *hbm.TriggerContext) (hbm.TriggerInfo, error) {
	e.triggers++
	if !e.lockStepChecked {
		e.checkLockStep()
	}
	if e.lockStepErr != nil {
		return hbm.TriggerInfo{}, e.lockStepErr
	}
	c, err := e.step(ctx) // what each unit retired
	n := len(e.units)
	info := hbm.TriggerInfo{Instructions: c.Instructions * n, Arithmetic: c.Arithmetic * n, DataMoves: c.DataMoves * n}
	if err != nil {
		return info, err
	}
	if e.TL != nil {
		e.TL.PIMInstr(ctx.Cycle, info.Instructions)
	}
	return info, nil
}

// unitErr words an error as unit i's. What every unit would report alike
// (control flow, operand resolution) is reported as unit 0's, the first
// to meet it.
func unitErr(i int, err error) error { return fmt.Errorf("pim: unit %d: %w", i, err) }

// step executes PIM instructions until exactly one command slot has been
// consumed (zero-cycle JUMPs retire for free), counting what each unit
// retires.
func (e *Executor) step(ctx *hbm.TriggerContext) (hbm.TriggerInfo, error) {
	var c hbm.TriggerInfo
	if e.done {
		return c, unitErr(0, errors.New("pim: column command after EXIT (host sent too many triggers)"))
	}
	if e.nopLeft > 0 {
		e.nopLeft--
		return c, nil // an idle slot of a multi-cycle NOP
	}
	in, err := e.resolveControl(&c)
	if in == nil {
		return c, err // EXIT, or a control error
	}
	c.Instructions++
	e.opRetired[in.Op]++
	if in.Op == isa.NOP {
		e.nopLeft = int(in.Imm0)
		e.ppc++
		return c, nil
	}
	// Data or arithmetic: consumes the command slot.
	if in.AAM {
		e.aamRetired++
	}
	if in.Op.IsArith() {
		c.Arithmetic++
	} else {
		c.DataMoves++
	}
	if err := e.resolve(in, ctx); err != nil {
		return c, unitErr(0, fmt.Errorf("pim: CRF[%d] %s: %w", e.ppc, *in, err))
	}
	if e.functional {
		n, err := len(e.units), error(nil)
		if e.op.bank >= 0 && !in.Dst.IsBank() {
			// Every unit's bank operand, read in unit order before any unit
			// executes; a read that fails at unit n leaves units 0..n-1 to
			// execute, as if each unit had read and executed in turn.
			n, err = ctx.Access.ReadBanks(e.op.bank, e.banksPerUnit, n, e.op.col, e.scratch, e.views)
		}
		if i, err := e.execute(n); err != nil {
			return c, unitErr(i, fmt.Errorf("pim: CRF[%d] %s: %w", e.ppc, *in, err))
		}
		if err != nil {
			return c, unitErr(n, fmt.Errorf("pim: CRF[%d] %s: %w", e.ppc, *in, err))
		}
	} else if e.op.bank >= 0 {
		// Timing-only: register contents are never read and a bank access
		// is exactly one counter bump, so the units' traffic is accounted,
		// not replayed.
		reads, writes := int64(1), int64(0)
		if in.Dst.IsBank() {
			reads, writes = 0, 1
		}
		ctx.Access.ReplicateBankAccess(reads, writes, int64(len(e.units)))
	}
	e.ppc++
	// Flow control after the consuming instruction is zero-cycle
	// (pre-decoded at fetch, Section III-C): resolve JUMP chains and a
	// trailing EXIT without waiting for another command.
	_, err = e.resolveControl(&c)
	return c, err
}

// execute is the data step of a functional trigger: it applies e.op to
// units 0..n-1 in unit order, unit i's bank operand being its ReadBanks
// view e.views[i]. The instruction's form (where the result goes, where
// each operand comes from, which operation) is picked here once; a move is
// then one loop over the units' registers, an arithmetic instruction one
// fp16 burst-form call over their operand lists. Only a bank write can
// fail; execute then returns the unit whose write failed, and the units
// after it do not execute.
func (e *Executor) execute(n int) (int, error) {
	op, in := &e.op, e.op.in
	views := e.views[:n]
	if in.Dst.IsBank() {
		// MOV GRF -> bank: each unit's register, through ReLU if asked,
		// written to its own bank in unit order.
		for i, src := range e.regs(op.a.src, op.a.idx, n) {
			if in.ReLU {
				fp16.ReLUBurst(e.relu, src)
				src = e.relu
			}
			if err := op.access.WriteBank(i*e.banksPerUnit+op.bank, op.col, src); err != nil {
				return i, err
			}
		}
		return 0, nil
	}
	if in.Op.IsData() {
		e.move(n)
		return 0, nil
	}
	if op.forward {
		for _, r := range e.regs(op.a.src, op.a.idx, n) {
			copyBurst(r, op.payload)
		}
	}
	dsts := e.regs(in.Dst, op.dst, n)
	a, b := e.operands(&op.a, views), e.operands(&op.b, views)
	switch in.Op {
	case isa.ADD:
		fp16.AddVecBursts(dsts, a, b, &e.resume)
	case isa.MUL:
		fp16.MulVecBursts(dsts, a, b, &e.resume)
	case isa.MAC:
		fp16.MACVecBursts(dsts, a, b, &e.resume)
	case isa.MAD:
		c := e.addends[:n]
		for i, srf := range e.srf[:n] {
			c[i] = srfLane(srf, isa.SRFEntries+op.addend)
		}
		fp16.MADVecBursts(dsts, a, b, c, &e.resume)
	}
	return 0, nil
}

// move is the data step of MOV and FILL into a register, for units
// 0..n-1: the source (each unit's burst, the WR payload or, for MOV, each
// unit's GRF register) is copied into each unit's destination, and a MOV
// with the ReLU flag rectifies what landed. An SRF half takes its half of
// the source burst: the SRF halves mirror the memory-mapped layout, SRF_M
// taking lanes 0-7 of the block and SRF_A lanes 8-15.
func (e *Executor) move(n int) {
	op, in := &e.op, e.op.in
	var srcs [][]byte // nil: the WR payload, the same for every unit
	switch {
	case op.a.fromBank():
		srcs = e.views[:n]
	case !op.a.payload: // MOV GRF -> GRF
		srcs = e.regs(op.a.src, op.a.idx, n)
	}
	src := func(i int) []byte {
		if srcs == nil {
			return op.payload
		}
		return srcs[i]
	}
	switch in.Dst {
	case isa.GRFA, isa.GRFB:
		dsts := e.regs(in.Dst, op.dst, n)
		for i, d := range dsts {
			copyBurst(d, src(i))
		}
		if in.ReLU {
			for _, d := range dsts {
				fp16.ReLUBurst(d, d)
			}
		}
	case isa.SRFM:
		for i, srf := range e.srf[:n] {
			copyHalf(srf, src(i))
		}
	default: // SRF_A, and any other register name the decoder lets FILL write
		const lo = burstBytes / 2
		for i, srf := range e.srf[:n] {
			copyHalf(srf[lo:], src(i)[lo:])
		}
	}
}

// regs lists register idx of GRF half s of units 0..n-1.
func (e *Executor) regs(s isa.Src, idx, n int) [][]byte {
	if s == isa.GRFA {
		return e.grf[0][idx][:n]
	}
	return e.grf[1][idx][:n]
}

// operands lists arithmetic source o of the units that have a view in
// views, as bursts not to be written through: a GRF register, a scalar
// broadcast into bcast, or the unit's bank burst itself.
func (e *Executor) operands(o *operand, views [][]byte) [][]byte {
	n := len(views)
	switch o.src {
	case isa.GRFA, isa.GRFB:
		return e.regs(o.src, o.idx, n)
	case isa.SRFM, isa.SRFA:
		lane := o.idx
		if o.src == isa.SRFA {
			lane += isa.SRFEntries
		}
		for i, v := range e.bcast[:n] {
			s := uint64(binary.LittleEndian.Uint16(e.srf[i][2*lane:])) * 0x0001_0001_0001_0001
			for w := 0; w < burstBytes; w += 8 {
				binary.LittleEndian.PutUint64(v[w:], s)
			}
		}
		return e.bcast[:n]
	}
	return views
}

// resolveControl retires zero-cycle JUMPs and an EXIT at the current PPC
// and returns the instruction the PPC comes to rest on (a NOP, data or
// arithmetic instruction, not yet retired), or nil after EXIT.
func (e *Executor) resolveControl(c *hbm.TriggerInfo) (*isa.Instruction, error) {
	for hops := 0; ; hops++ {
		if hops > isa.CRFEntries*2 {
			return nil, unitErr(0, fmt.Errorf("pim: control-flow livelock at PPC %d", e.ppc))
		}
		if e.ppc < 0 || e.ppc >= isa.CRFEntries {
			return nil, unitErr(0, fmt.Errorf("pim: PPC %d out of CRF range", e.ppc))
		}
		if !e.decOK[e.ppc] {
			e.decoded[e.ppc], e.decErr[e.ppc] = isa.Decode(e.units[0].crf[e.ppc])
			e.decOK[e.ppc] = true
		}
		// in aliases the cache entry (valid until the next CRF write), so
		// the walk copies no Instruction structs.
		in := &e.decoded[e.ppc]
		if err := e.decErr[e.ppc]; err != nil {
			return nil, unitErr(0, fmt.Errorf("pim: CRF[%d]: %w", e.ppc, err))
		}
		switch in.Op {
		case isa.JUMP:
			// Zero-cycle: pre-decoded at fetch, consumes no command slot.
			c.Instructions++
			e.opRetired[isa.JUMP]++
			left := int32(in.Imm0)
			if e.jumpArmed[e.ppc] {
				left = e.jumpLeft[e.ppc]
			}
			if left > 0 {
				e.jumpArmed[e.ppc] = true
				e.jumpLeft[e.ppc] = left - 1
				e.ppc -= int(in.Imm1)
			} else {
				e.jumpArmed[e.ppc] = false // rearm for a future pass
				e.ppc++
			}
		case isa.EXIT:
			c.Instructions++
			e.opRetired[isa.EXIT]++
			e.done = true
			return nil, nil
		default:
			return in, nil
		}
	}
}

// operand is one source of the consuming instruction, the same in every
// unit: a register (index AAM-substituted and range-checked), the bank
// burst each unit reads, or the WR payload standing in for it.
type operand struct {
	src     isa.Src
	idx     int  // register index
	payload bool // a bank operand captured from the write datapath: no array read
}

// fromBank reports whether o is read from each unit's bank: a bank operand
// not captured from the write datapath.
func (o *operand) fromBank() bool { return o.src.IsBank() && !o.payload }

// dataOp is the consuming instruction of one trigger with everything
// resolved that does not depend on the unit executing it.
type dataOp struct {
	in      *isa.Instruction
	dst     int     // DST register index
	a, b    operand // SRC0 and, for arithmetic, SRC1
	addend  int     // MAD: the SRF_A index of the addend
	bank    int     // which of a unit's banks the instruction reads (an operand) or writes (MOV to a bank), as an offset from the unit's first; -1: neither
	forward bool    // SRW: the WR payload lands in a's register before the operation
	payload []byte  // the WR payload burst of a trigger that forwards or captures it: the host's 32 bytes, or zeros for a short payload
	col     uint32  // the triggering column: every bank access happens there
	access  hbm.BankAccess
}

// resolve fills e.op for instruction in under the triggering command,
// with the errors every unit would report.
func (e *Executor) resolve(in *isa.Instruction, ctx *hbm.TriggerContext) error {
	op := &e.op
	op.in, op.col, op.access = in, ctx.Col, ctx.Access
	op.bank, op.forward = -1, false

	dst, s0, s1 := int(in.DstIdx), int(in.Src0Idx), int(in.Src1Idx)
	if in.AAM {
		// Address-aligned mode: all three index fields are replaced by the
		// low bits of the triggering column, which walk each register file
		// linearly (Section IV-C); distinct files keep the operands distinct.
		gi, si := int(ctx.Col%uint32(e.grfEntries)), int(ctx.Col%isa.SRFEntries)
		idxFor := func(s isa.Src) int {
			if s.IsSRF() {
				return si
			}
			return gi
		}
		dst, s0, s1 = idxFor(in.Dst), idxFor(in.Src0), idxFor(in.Src1)
	}
	if in.Dst.IsGRF() && dst >= e.grfEntries {
		return fmt.Errorf("pim: DST index %d exceeds GRF depth %d", dst, e.grfEntries)
	}
	op.dst = dst
	wr := ctx.Kind == hbm.CmdWR

	var err error
	if in.Dst.IsBank() {
		// MOV GRF -> bank; needs the write drivers, i.e. a WR trigger.
		if !wr {
			return fmt.Errorf("pim: MOV to bank triggered by %s, needs WR", ctx.Kind)
		}
		op.a = operand{src: in.Src0, idx: s0}
		op.bank, err = e.bankOffset(in.Dst, ctx, false)
		return err
	}
	// Only data-movement instructions may capture the write datapath as
	// their bank operand; an arithmetic bank operand needs a real array
	// read, which a WR trigger supplies only on a WROperand device. There,
	// simultaneous read/write: the trigger forwards the host payload into
	// the GRF write port while the bank read proceeds, so a single command
	// both loads the vector operand and executes the arithmetic (Fig. 14).
	capture := in.Op.IsData()
	if !capture && e.wrOperand && wr && in.Src0.IsGRF() && len(ctx.WrData) >= 2*fp16.Lanes {
		op.forward = true
		op.payload = ctx.WrData
	}
	op.a, err = e.source(in.Src0, s0, ctx, capture)
	if err != nil || capture {
		return err // MOV and FILL have the one source
	}
	op.b, err = e.source(in.Src1, s1, ctx, false)
	// MAD: dst = a*b + SRF_A[s1] (the addend shares SRC1's index in a
	// different register file, Section III-C).
	op.addend = s1 % isa.SRFEntries
	return err
}

// source resolves SRC0 or SRC1. With capture, a bank operand under a WR
// trigger is the host's payload, not an array read: "the host processor
// pushes 256 bits to the write drivers or PIM registers" (Section III-A),
// which is how input vectors are loaded into the GRF between compute
// bursts.
func (e *Executor) source(s isa.Src, idx int, ctx *hbm.TriggerContext, capture bool) (operand, error) {
	switch {
	case s.IsGRF():
		if idx >= e.grfEntries {
			return operand{}, fmt.Errorf("pim: %s index %d exceeds GRF depth %d", s, idx, e.grfEntries)
		}
		return operand{src: s, idx: idx}, nil
	case s.IsSRF():
		return operand{src: s, idx: idx % isa.SRFEntries}, nil
	case capture && ctx.Kind == hbm.CmdWR:
		e.op.payload = zeroBurst[:]
		if len(ctx.WrData) >= burstBytes {
			e.op.payload = ctx.WrData
		}
		return operand{src: s, payload: true}, nil
	}
	var err error
	e.op.bank, err = e.bankOffset(s, ctx, true)
	return operand{src: s}, err
}

// zeroBurst is what a short WR payload carries into a register.
var zeroBurst [burstBytes]byte

// bankOffset resolves EVEN_BANK/ODD_BANK to the bank's offset within a
// unit's banks, checking that the triggering command drives that bank set
// and, for an operand read, that the command can supply one.
func (e *Executor) bankOffset(s isa.Src, ctx *hbm.TriggerContext, read bool) (int, error) {
	if e.banksPerUnit == 1 {
		// 2x variant: one unit per bank; both names alias the single bank.
		return 0, nil
	}
	want := 0
	if s == isa.OddBank {
		want = 1
	}
	if !e.twoBank && ctx.BankSel != want {
		return 0, fmt.Errorf("pim: instruction reads %s but the command drives the %s banks",
			s, []string{"even", "odd"}[ctx.BankSel])
	}
	if read && ctx.Kind == hbm.CmdWR && !e.wrOperand {
		// A WR trigger cannot supply a bank read operand unless the
		// overlapping RD datapath is available.
		return 0, fmt.Errorf("pim: bank read operand on a WR trigger")
	}
	return want * (e.banksPerUnit - 1), nil
}

// Program decodes the current CRF contents of one unit up to its EXIT —
// introspection for debuggers and the pimsim tool.
func (e *Executor) Program(unit int) ([]isa.Instruction, error) {
	if unit < 0 || unit >= len(e.units) {
		return nil, fmt.Errorf("pim: unit %d out of range", unit)
	}
	return isa.DecodeProgram(e.units[unit].crf[:])
}

// AllDone reports whether every unit has retired EXIT.
func (e *Executor) AllDone() bool { return e.done }

// Triggers returns how many AB-PIM column commands reached this executor.
func (e *Executor) Triggers() int64 { return e.triggers }

// OpCountsArray returns instructions retired per opcode, summed over
// units, indexed by isa.Opcode. It allocates nothing and is the accessor
// repeated callers (metrics scrapes, single-opcode queries) should use.
func (e *Executor) OpCountsArray() [isa.NumOpcodes]int64 {
	out := e.opRetired
	for op := range out {
		out[op] *= int64(len(e.units))
	}
	return out
}

// OpCounts returns instructions retired per opcode, summed over units, as
// a map — the reporting-boundary form. Hot paths should prefer
// OpCountsArray, which does not allocate.
func (e *Executor) OpCounts() map[isa.Opcode]int64 {
	arr := e.OpCountsArray()
	out := make(map[isa.Opcode]int64)
	for op, n := range arr {
		if n > 0 {
			out[isa.Opcode(op)] = n
		}
	}
	return out
}

// AAMInstructions returns retired address-aligned-mode instructions,
// summed over units.
func (e *Executor) AAMInstructions() int64 { return e.aamRetired * int64(len(e.units)) }
