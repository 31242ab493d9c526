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
// instruction's form once (destination, operand sources, operation) and
// runs it over units 0..n-1 in order: a move is one fixed-size copy of a
// burst per unit, an arithmetic instruction one fp16 burst-form call that
// loops over them, each unit on its own registers and a view of its own
// burst, wherever the bank operand sits. A unit's operation touches no
// other unit's bank, so bank statistics, ECC, the fault injector's read
// sequence and the unit an error names are those of n units each reading
// and executing in turn: a read that fails at unit k leaves units 0..k-1
// executed and the banks of the units after k unread, and a bank write
// that fails at unit k leaves the units after k unwritten. A timing-only
// device has no data to operate on: the same sequencer runs and the
// units' bank traffic is accounted in one call.
//
// A trigger run (the column commands of an AAM window, hbm.TriggerContext)
// is walked trigger by trigger, with one exception: when the PPC rests on
// an AAM instruction that the next slot's JUMP -1 repeats, the k
// repetitions the loop, the run and the AAM window leave (step, repeats)
// are one step. Each repetition works on the registers its own column
// selects, k distinct ones, so the step resolves the instruction once,
// reads the k columns' bank operands in one trigger-major ReadBanks call
// and runs its data step once over k x n entries in trigger-major order:
// repetition r of unit i is entry r*n+i, exactly the order in which k
// lone triggers would read, execute and fail.
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

	op dataOp // the current step's resolved instruction (reused: nothing is allocated per command)

	// Functional executors only, built once so that a step allocates
	// nothing. Every list is trigger-major over a step's repetitions
	// (entry r*n+i is unit i's in repetition r, at most grfEntries
	// repetitions): views and scratch take the bank operands
	// (hbm.BankAccess.ReadBanks) and the readout copies a view may point
	// into, bcast the staging bursts of a scalar broadcast and addends the
	// MAD addends. grf0 and grf1 list the registers of GRF_A and GRF_B,
	// entry idx*n+i being register idx of unit i, so the registers a step's
	// repetitions walk are one contiguous run of the list; srf lists the
	// units' SRF bursts. They are handed to fp16 as prefixes, with the
	// burst forms' resume buffer and the ReLU staging of a bank write
	// beside them.
	views, grf0, grf1 [][]byte
	scratch           []byte
	srf, bcast        [][]byte
	addends           []fp16.F16
	resume            [fp16.MaxBurstUnits]int32
	relu              []byte

	discard [burstBytes]byte // register-space reads of the units whose data never reaches the I/O mux

	// Log, when set, records the triggers' retired-instruction counts as
	// PIM run records in the channel's command log (the Perfetto
	// PIM-activity counter track). Nil costs one pointer compare per step.
	Log *obs.Log

	// loopHook, when set, is told of every step that ran k > 1
	// repetitions together (tests: which closed forms a stream reached).
	loopHook func(in *isa.Instruction, kind hbm.CmdKind, k int)
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
		cutRegisters(e.units)
		n, runs := cfg.PIMUnits, cfg.PIMUnits*e.grfEntries
		e.views = make([][]byte, runs)
		e.scratch = make([]byte, runs*burstBytes)
		e.grf0, e.grf1 = make([][]byte, runs), make([][]byte, runs)
		for idx := 0; idx < e.grfEntries; idx++ {
			for i, u := range e.units {
				e.grf0[idx*n+i], e.grf1[idx*n+i] = u.grf[0][idx], u.grf[1][idx]
			}
		}
		e.srf, e.bcast = make([][]byte, n), make([][]byte, runs)
		for i, u := range e.units {
			e.srf[i] = u.srf
		}
		bcast := make([]byte, runs*burstBytes)
		for k := range e.bcast {
			e.bcast[k] = bcast[k*burstBytes : (k+1)*burstBytes]
		}
		e.addends = make([]fp16.F16, runs)
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
func (e *Executor) Unit(i int) *Unit {
	cutRegisters(e.units)
	return e.units[i]
}

// NumUnits returns the number of units.
func (e *Executor) NumUnits() int { return len(e.units) }

// RegisterWrite implements hbm.PIMExecutor. A CRF write invalidates the
// decode cache and the lock-step verdict once for the run.
func (e *Executor) RegisterWrite(first, n int, space hbm.RegSpace, col uint32, data [][]byte) (int, error) {
	if space == hbm.RegCRF {
		e.decOK = [isa.CRFEntries]bool{}
		e.lockStepChecked = false
	} else {
		cutRegisters(e.units)
	}
	for c, d := range data {
		for i := 0; i < n; i++ {
			u, err := e.unit(first + i)
			if err == nil {
				err = u.writeRegSpace(space, col+uint32(c), d)
			}
			if err != nil {
				return c*n + i, err
			}
		}
	}
	return len(data) * n, nil
}

// RegisterRead implements hbm.PIMExecutor: the units after the first read
// into a discard burst.
func (e *Executor) RegisterRead(first, n int, space hbm.RegSpace, col uint32, bufs [][]byte) (int, error) {
	if space != hbm.RegCRF {
		cutRegisters(e.units)
	}
	for c, buf := range bufs {
		for i := 0; i < n; i++ {
			u, err := e.unit(first + i)
			if err == nil {
				if i > 0 {
					buf = e.discard[:]
				}
				err = u.readRegSpace(space, col+uint32(c), buf)
			}
			if err != nil {
				return c*n + i, err
			}
		}
	}
	return len(bufs) * n, nil
}

// unit returns unit i, or an error when there is none.
func (e *Executor) unit(i int) (*Unit, error) {
	if i < 0 || i >= len(e.units) {
		return nil, fmt.Errorf("pim: unit %d out of range", i)
	}
	return e.units[i], nil
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

// Trigger implements hbm.PIMExecutor: every column command of the run
// advances every unit by one command slot, in steps of one trigger or of
// the repetitions of an AAM loop.
func (e *Executor) Trigger(ctx *hbm.TriggerContext) (hbm.TriggerInfo, error) {
	var info hbm.TriggerInfo
	if !e.lockStepChecked {
		e.checkLockStep()
	}
	if e.lockStepErr != nil {
		e.triggers++
		return info, e.lockStepErr
	}
	for info.Triggers < ctx.N {
		k, err := e.step(ctx, info.Triggers, &info)
		info.Triggers += k
		e.triggers += int64(k)
		if err != nil {
			e.triggers++
			return info, err
		}
	}
	return info, nil
}

// unitErr words an error as unit i's. What every unit would report alike
// (control flow, operand resolution) is reported as unit 0's, the first
// to meet it.
func unitErr(i int, err error) error { return fmt.Errorf("pim: unit %d: %w", i, err) }

// jump is what each unit retires for a JUMP a repetition of an AAM loop
// takes back to its instruction.
var jump = hbm.TriggerInfo{Instructions: 1}

// step executes PIM instructions from trigger t of the run until exactly
// one command slot has been consumed (zero-cycle JUMPs retire for free),
// or, for an AAM loop (repeats), until k slots have, adding what each
// trigger retired to info. It returns the triggers retired; on an error
// the trigger after them failed, and everything it and they did stands as
// if each had been issued alone: the failed trigger's instruction counts
// as retired and its units before the one the error names executed it.
func (e *Executor) step(ctx *hbm.TriggerContext, t int, info *hbm.TriggerInfo) (int, error) {
	var c hbm.TriggerInfo // what each unit retires in trigger t
	if e.done {
		return 0, unitErr(0, errors.New("pim: column command after EXIT (host sent too many triggers)"))
	}
	if e.nopLeft > 0 {
		e.nopLeft--
		e.retire(ctx, t, 1, c, info) // an idle slot of a multi-cycle NOP
		return 1, nil
	}
	in, err := e.resolveControl(&c)
	if in == nil {
		if err != nil {
			return 0, err // a control error
		}
		e.retire(ctx, t, 1, c, info) // EXIT
		return 1, nil
	}
	if in.Op == isa.NOP {
		c.Instructions++
		e.opRetired[isa.NOP]++
		e.nopLeft = int(in.Imm0)
		e.ppc++
		e.retire(ctx, t, 1, c, info)
		return 1, nil
	}
	// Data or arithmetic: consumes the command slot, k times over.
	base := hbm.TriggerInfo{Instructions: 1, DataMoves: 1}
	if in.Op.IsArith() {
		base = hbm.TriggerInfo{Instructions: 1, Arithmetic: 1}
	}
	c = add(c, base)
	k := e.repeats(in, ctx, t)
	ran, unit, err := 0, 0, e.resolve(in, ctx, t)
	if err != nil {
		err = unitErr(0, fmt.Errorf("pim: CRF[%d] %s: %w", e.ppc, *in, err))
	} else {
		ran, unit, err = e.run(ctx, k)
	}
	reps := int64(ran)
	if err != nil {
		reps++ // the failed trigger's instruction retired, as a lone trigger's does
	}
	e.opRetired[in.Op] += reps
	if in.AAM {
		e.aamRetired += reps
	}
	// Every repetition but the last takes the loop's JUMP back, in closed
	// form; the last meets it in the walk below.
	taken := ran
	if err == nil {
		taken = k - 1
	}
	if taken > 0 {
		slot := e.ppc + 1
		e.opRetired[isa.JUMP] += int64(taken)
		e.jumpLeft[slot], e.jumpArmed[slot] = e.loopLeft(slot)-int32(taken), true
		// The first repetition also retires the control resolved before it.
		e.retire(ctx, t, 1, add(c, jump), info)
		if taken > 1 {
			e.retire(ctx, t+1, taken-1, add(base, jump), info)
		}
		c = base
	}
	if err != nil {
		if unit > 0 {
			// The units before the failing one completed the trigger, the
			// control walk after the instruction included, which every unit
			// shares: unit 0 meets an error of that walk first.
			e.ppc++
			if _, walkErr := e.resolveControl(&c); walkErr != nil {
				err = walkErr
			}
		}
		return ran, err
	}
	if k > 1 && e.loopHook != nil {
		e.loopHook(in, ctx.Kind, k)
	}
	e.ppc++
	// Flow control after the consuming instruction is zero-cycle
	// (pre-decoded at fetch, Section III-C): resolve JUMP chains and a
	// trailing EXIT without waiting for another command.
	if _, err := e.resolveControl(&c); err != nil {
		return k - 1, err
	}
	e.retire(ctx, t+k-1, 1, c, info)
	return k, nil
}

// add sums two per-unit retirement counts.
func add(a, b hbm.TriggerInfo) hbm.TriggerInfo {
	return hbm.TriggerInfo{
		Instructions: a.Instructions + b.Instructions,
		Arithmetic:   a.Arithmetic + b.Arithmetic,
		DataMoves:    a.DataMoves + b.DataMoves,
	}
}

// retire adds what each unit retired in each of the n triggers from t, c
// per trigger, to info for all units, and logs them at their issue cycles.
func (e *Executor) retire(ctx *hbm.TriggerContext, t, n int, c hbm.TriggerInfo, info *hbm.TriggerInfo) {
	units := len(e.units)
	info.Instructions += c.Instructions * units * n
	info.Arithmetic += c.Arithmetic * units * n
	info.DataMoves += c.DataMoves * units * n
	if e.Log != nil {
		e.Log.PIM(ctx.Cycle(t), ctx.Stride, n, c.Instructions*units)
	}
}

// repeats returns how many triggers from t run instruction in, on which
// the PPC rests, in one step. That is one, except for an AAM instruction
// whose next CRF slot is a JUMP -1: then it is the loop's repetitions left
// (its JUMP's count plus one), capped by the triggers left in the run and
// by the registers left before the AAM index wraps (so that every
// repetition has registers of its own), and, where the WR payload decides
// the form (the SRW forward), by the first payload that decides otherwise.
func (e *Executor) repeats(in *isa.Instruction, ctx *hbm.TriggerContext, t int) int {
	slot := e.ppc + 1
	if !in.AAM || t+1 >= ctx.N || slot >= isa.CRFEntries {
		return 1
	}
	if j, err := e.fetch(slot); err != nil || j.Op != isa.JUMP || j.Imm1 != 1 {
		return 1
	}
	g := uint32(e.grfEntries)
	k := min(int(e.loopLeft(slot))+1, ctx.N-t, int(g-(ctx.Col+uint32(t))%g))
	fw := e.forwards(in, ctx, t)
	for r := 1; r < k; r++ {
		if e.forwards(in, ctx, t+r) != fw {
			return r
		}
	}
	return k
}

// forwards reports whether trigger t forwards its WR payload into in's
// SRC0 register before the operation: simultaneous read/write on a
// WROperand device, which lets a single command both load the vector
// operand and execute the arithmetic (Fig. 14).
func (e *Executor) forwards(in *isa.Instruction, ctx *hbm.TriggerContext, t int) bool {
	return e.wrOperand && ctx.Kind == hbm.CmdWR && in.Op.IsArith() && in.Src0.IsGRF() &&
		len(ctx.Payload(t)) >= burstBytes
}

// loopLeft returns the iterations the JUMP at slot has left: its live
// count, or its immediate when it is not armed.
func (e *Executor) loopLeft(slot int) int32 {
	if e.jumpArmed[slot] {
		return e.jumpLeft[slot]
	}
	return int32(e.decoded[slot].Imm0)
}

// run is the data step of a step's k repetitions of e.op, from trigger
// e.op.t of the run. It returns the repetitions that ran to the end; on an
// error, the one after them failed at unit, which the error names.
func (e *Executor) run(ctx *hbm.TriggerContext, k int) (ran, unit int, err error) {
	op, in, n := &e.op, e.op.in, len(e.units)
	if !e.functional {
		// Timing-only: register contents are never read and a bank access
		// is exactly one counter bump, so the units' traffic is accounted,
		// not replayed.
		if op.bank >= 0 {
			reads, writes := int64(1), int64(0)
			if in.Dst.IsBank() {
				reads, writes = 0, 1
			}
			ctx.Access.ReplicateBankAccess(reads, writes, int64(n*k))
		}
		return k, 0, nil
	}
	cnt := k * n
	if op.bank >= 0 && !in.Dst.IsBank() {
		// Every repetition's bank operand of every unit, read trigger-major
		// before any executes; a read that fails at entry cnt leaves the
		// entries before it to execute, as if each unit of each trigger had
		// read and executed in turn.
		cnt, err = ctx.Access.ReadBanks(op.bank, e.banksPerUnit, n, op.col, k, e.scratch, e.views)
	}
	if f, werr := e.execute(ctx, cnt); werr != nil {
		cnt, err = f, werr
	}
	if err != nil {
		return cnt / n, cnt % n, unitErr(cnt%n, fmt.Errorf("pim: CRF[%d] %s: %w", e.ppc, *in, err))
	}
	return k, 0, nil
}

// execute is the functional data step: it applies e.op to the first cnt
// entries of a step, entry r*n+i being unit i in repetition r, whose bank
// operand is e.views[r*n+i] and whose registers are those the column of
// trigger e.op.t+r selects. The instruction's form (where the result
// goes, where each operand comes from, which operation) is picked here
// once; a move is then one loop over the entries' registers, an
// arithmetic instruction one fp16 burst-form call over their operand
// lists. Only a bank write can fail; execute then returns the entry whose
// write failed, and the entries after it do not execute.
func (e *Executor) execute(ctx *hbm.TriggerContext, cnt int) (int, error) {
	op, in, n := &e.op, e.op.in, len(e.units)
	if in.Dst.IsBank() {
		// MOV GRF -> bank: each entry's register, through ReLU if asked,
		// written to its unit's bank at its trigger's column.
		for k, src := range e.regs(op.a.src, op.a.idx, cnt) {
			if in.ReLU {
				fp16.ReLUBurst(e.relu, src)
				src = e.relu
			}
			if err := op.access.WriteBank(k%n*e.banksPerUnit+op.bank, op.col+uint32(k/n), src); err != nil {
				return k, err
			}
		}
		return 0, nil
	}
	if in.Op.IsData() {
		e.move(ctx, cnt)
		return 0, nil
	}
	if op.forward {
		regs := e.regs(op.a.src, op.a.idx, cnt)
		for r := 0; r*n < cnt; r++ {
			for _, reg := range regs[r*n : min(r*n+n, cnt)] {
				copyBurst(reg, ctx.Payload(op.t+r))
			}
		}
	}
	dsts := e.regs(in.Dst, op.dst, cnt)
	a, b := e.operands(&op.a, cnt), e.operands(&op.b, cnt)
	switch in.Op {
	case isa.ADD:
		fp16.AddVecBursts(dsts, a, b, &e.resume)
	case isa.MUL:
		fp16.MulVecBursts(dsts, a, b, &e.resume)
	case isa.MAC:
		fp16.MACVecBursts(dsts, a, b, &e.resume)
	case isa.MAD:
		c := e.addends[:cnt]
		for k := range c {
			c[k] = srfLane(e.srf[k%n], isa.SRFEntries+(op.addend+k/n)%isa.SRFEntries)
		}
		fp16.MADVecBursts(dsts, a, b, c, &e.resume)
	}
	return 0, nil
}

// move is the data step of MOV and FILL into a register, for the first
// cnt entries: the source (each entry's bank burst, its trigger's WR
// payload or, for MOV, its GRF register) is copied into the entry's
// destination, and a MOV with the ReLU flag rectifies what landed. An SRF
// half takes its half of the source burst: the SRF halves mirror the
// memory-mapped layout, SRF_M taking lanes 0-7 of the block and SRF_A
// lanes 8-15.
func (e *Executor) move(ctx *hbm.TriggerContext, cnt int) {
	op, in, n := &e.op, e.op.in, len(e.units)
	var srcs, dsts [][]byte // srcs nil: each trigger's WR payload, for all its units
	switch {
	case op.a.fromBank():
		srcs = e.views[:cnt]
	case !op.a.payload: // MOV GRF -> GRF
		srcs = e.regs(op.a.src, op.a.idx, cnt)
	}
	if in.Dst.IsGRF() {
		dsts = e.regs(in.Dst, op.dst, cnt)
	}
	const lo = burstBytes / 2
	for r := 0; r*n < cnt; r++ {
		o, m := r*n, min(n, cnt-r*n) // repetition r's entries
		var pay []byte
		if srcs == nil {
			if pay = ctx.Payload(op.t + r); len(pay) < burstBytes {
				pay = zeroBurst[:]
			}
		}
		switch {
		case dsts == nil:
			for i, srf := range e.srf[:m] {
				src := pay
				if src == nil {
					src = srcs[o+i]
				}
				if in.Dst == isa.SRFM {
					copyHalf(srf, src)
				} else { // SRF_A, and any other register name the decoder lets FILL write
					copyHalf(srf[lo:], src[lo:])
				}
			}
		case pay != nil:
			for _, d := range dsts[o : o+m] {
				copyBurst(d, pay)
			}
		default:
			for i, d := range dsts[o : o+m] {
				copyBurst(d, srcs[o+i])
			}
		}
	}
	if in.ReLU {
		for _, d := range dsts {
			fp16.ReLUBurst(d, d)
		}
	}
}

// regs lists the first cnt entries' register of GRF half s, from register
// idx: entry r*n+i is register idx+r of unit i.
func (e *Executor) regs(s isa.Src, idx, cnt int) [][]byte {
	o := idx * len(e.units)
	if s == isa.GRFA {
		return e.grf0[o : o+cnt]
	}
	return e.grf1[o : o+cnt]
}

// operands lists arithmetic source o of the first cnt entries, as bursts
// not to be written through: a GRF register, a scalar broadcast into
// bcast (repetition r reads the scalar r past o's), or the entry's bank
// burst itself.
func (e *Executor) operands(o *operand, cnt int) [][]byte {
	switch o.src {
	case isa.GRFA, isa.GRFB:
		return e.regs(o.src, o.idx, cnt)
	case isa.SRFM, isa.SRFA:
		n := len(e.units)
		for k, v := range e.bcast[:cnt] {
			lane := (o.idx + k/n) % isa.SRFEntries
			if o.src == isa.SRFA {
				lane += isa.SRFEntries
			}
			s := uint64(binary.LittleEndian.Uint16(e.srf[k%n][2*lane:])) * 0x0001_0001_0001_0001
			for w := 0; w < burstBytes; w += 8 {
				binary.LittleEndian.PutUint64(v[w:], s)
			}
		}
		return e.bcast[:cnt]
	}
	return e.views[:cnt]
}

// fetch returns the decoded instruction in CRF slot, through the decode
// cache. The result aliases the cache entry (valid until the next CRF
// write), so the walk copies no Instruction structs.
func (e *Executor) fetch(slot int) (*isa.Instruction, error) {
	if !e.decOK[slot] {
		e.decoded[slot], e.decErr[slot] = isa.Decode(e.units[0].crf[slot])
		e.decOK[slot] = true
	}
	return &e.decoded[slot], e.decErr[slot]
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
		in, err := e.fetch(e.ppc)
		if err != nil {
			return nil, unitErr(0, fmt.Errorf("pim: CRF[%d]: %w", e.ppc, err))
		}
		switch in.Op {
		case isa.JUMP:
			// Zero-cycle: pre-decoded at fetch, consumes no command slot.
			c.Instructions++
			e.opRetired[isa.JUMP]++
			if left := e.loopLeft(e.ppc); left > 0 {
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
	idx     int  // register index (of a step's first repetition)
	payload bool // a bank operand captured from the write datapath: no array read
}

// fromBank reports whether o is read from each unit's bank: a bank operand
// not captured from the write datapath.
func (o *operand) fromBank() bool { return o.src.IsBank() && !o.payload }

// dataOp is the consuming instruction of a step with everything resolved
// that does not depend on the unit executing it, for the step's first
// trigger; repetition r of an AAM loop adds r to every register index.
type dataOp struct {
	in      *isa.Instruction
	t       int     // the step's first trigger in the run
	dst     int     // DST register index
	a, b    operand // SRC0 and, for arithmetic, SRC1
	addend  int     // MAD: the SRF_A index of the addend
	bank    int     // which of a unit's banks the instruction reads (an operand) or writes (MOV to a bank), as an offset from the unit's first; -1: neither
	forward bool    // SRW: each trigger's WR payload lands in a's register before the operation
	col     uint32  // the first trigger's column: every bank access of repetition r happens at col+r
	access  hbm.BankAccess
}

// resolve fills e.op for instruction in under trigger t of the run, with
// the errors every unit would report.
func (e *Executor) resolve(in *isa.Instruction, ctx *hbm.TriggerContext, t int) error {
	op := &e.op
	op.in, op.t, op.col, op.access = in, t, ctx.Col+uint32(t), ctx.Access
	op.bank, op.forward = -1, false

	dst, s0, s1 := int(in.DstIdx), int(in.Src0Idx), int(in.Src1Idx)
	if in.AAM {
		// Address-aligned mode: all three index fields are replaced by the
		// low bits of the triggering column, which walk each register file
		// linearly (Section IV-C); distinct files keep the operands distinct.
		gi, si := int(op.col%uint32(e.grfEntries)), int(op.col%isa.SRFEntries)
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
	// read, which a WR trigger supplies only on a WROperand device, where
	// the trigger may forward its payload too (forwards).
	capture := in.Op.IsData()
	op.forward = e.forwards(in, ctx, t)
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
