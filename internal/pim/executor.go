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
// bank data is decided here, once for all units, and what the program
// alone decides once per program: at the first trigger after a CRF write,
// unit 0's words compile into a table of isa.CRFEntries records (slot),
// each the decoded instruction or decode error, what it retires, whether
// it heads an AAM loop, and for a data or arithmetic instruction its
// operand form under a RD or WR on the even or odd banks (the bank it
// drives, or the error it meets there). Like the fetch stage (Section
// III-C), a trigger walks the table: a JUMP costs a lookup and no command
// slot, and the PPC, JUMP counters, NOP countdown and EXIT are the only
// state. Only the AAM register indices and the data step are worked out
// per step. A bank operand is read for all units in one
// hbm.BankAccess.ReadBanks call that visits their banks in unit order, and
// the data step (execute) picks the instruction's form once and runs it
// over units 0..n-1 in order: a move is one fixed-size copy of a burst per
// unit, an arithmetic instruction one fp16 burst-form call. A unit's
// operation touches no other unit's bank, so bank statistics, ECC, the
// fault injector's read sequence and the unit an error names are those of
// n units each reading and executing in turn: a read that fails at unit k
// leaves units 0..k-1 executed and the banks of the units after k unread,
// and a bank write that fails at unit k leaves the units after k
// unwritten. A timing-only device runs the same sequencer and accounts the
// units' bank traffic in one call.
//
// A trigger run (the column commands of an AAM window, hbm.TriggerContext)
// is walked trigger by trigger, with one exception: when the PPC rests on
// an AAM loop's head, the k repetitions the loop, the run and the AAM
// window leave (step, repeats) are one step, retired in closed form. Each
// repetition works on the registers its own column selects, so the step
// reads the k columns' bank operands in one trigger-major ReadBanks call
// and runs its data step once over k x n entries in trigger-major order:
// repetition r of unit i is entry r*n+i, exactly the order in which k
// lone triggers would read, execute and fail.
//
// Lock step is checked, not assumed: the units keep their own CRF words
// (an SB-mode column write reaches one unit alone), and a trigger is
// refused while any unit holds another program than the one compiled.
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

	// code is unit 0's CRF compiled from words, cut at the first trigger
	// (most channels of a timing-only stack never take one; a zero record
	// is word 0's); stale after a CRF write (compile), and lockStepErr the
	// verdict on the units' programs.
	code        *[isa.CRFEntries]slot
	words       [isa.CRFEntries]uint32
	stale       bool
	lockStepErr error

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
	// An AAM GRF index is the column's low bits; a decoded one is below isa.GRFEntries.
	if d := cfg.GRFDepth(); d < isa.GRFEntries || d&(d-1) != 0 {
		return nil, fmt.Errorf("pim: GRF depth %d is not a power of two from %d", d, isa.GRFEntries)
	}
	e := &Executor{
		stale:        true,
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

// RegisterWrite implements hbm.PIMExecutor. A CRF write marks the
// compiled program stale, once for the run.
func (e *Executor) RegisterWrite(first, n int, space hbm.RegSpace, col uint32, data [][]byte) (int, error) {
	if space == hbm.RegCRF {
		e.stale = true
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

// ResetPPC implements hbm.PIMExecutor: it rewinds the control state. The
// compiled program stays: only a CRF write changes what it was compiled
// from.
func (e *Executor) ResetPPC() {
	e.ppc, e.nopLeft, e.done = 0, 0, false
	e.jumpLeft, e.jumpArmed = [isa.CRFEntries]int32{}, [isa.CRFEntries]bool{}
}

// Trigger implements hbm.PIMExecutor: every column command of the run
// advances every unit by one command slot, in steps of one trigger or of
// the repetitions of an AAM loop.
func (e *Executor) Trigger(ctx *hbm.TriggerContext) (hbm.TriggerInfo, error) {
	var info hbm.TriggerInfo
	if e.stale {
		e.compile()
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

// step executes PIM instructions from trigger t of the run until exactly
// one command slot has been consumed (zero-cycle JUMPs retire for free),
// or, for an AAM loop (repeats), until k slots have, adding what each
// trigger retired to info. It returns the triggers retired; on an error
// the trigger after them failed, and everything it and they did stands as
// if each had been issued alone: the failed trigger's instruction counts
// as retired and its units before the one the error names executed it.
func (e *Executor) step(ctx *hbm.TriggerContext, t int, info *hbm.TriggerInfo) (int, error) {
	if e.done {
		return 0, unitErr(0, errors.New("pim: column command after EXIT (host sent too many triggers)"))
	}
	if e.nopLeft > 0 {
		e.nopLeft--
		e.retire(ctx, t, 1, 0, hbm.TriggerInfo{}, 0, info) // an idle slot of a multi-cycle NOP
		return 1, nil
	}
	var s *slot
	before, err := 0, error(nil) // the control each unit retires before the instruction
	if p := uint(e.ppc); p < isa.CRFEntries && e.code[p].arith|e.code[p].moves != 0 {
		s = &e.code[p] // at rest on a data or arithmetic instruction: no control to walk
	} else if s, before, err = e.walk(); s == nil {
		if err != nil {
			return 0, err // a control error
		}
		e.retire(ctx, t, 1, before, hbm.TriggerInfo{}, 0, info) // EXIT
		return 1, nil
	}
	base := s.base()
	if s.in.Op == isa.NOP {
		e.opRetired[isa.NOP]++
		e.nopLeft = int(s.in.Imm0)
		e.ppc++
		e.retire(ctx, t, 1, before, base, 0, info)
		return 1, nil
	}
	// Data or arithmetic: consumes the command slot, k times over.
	f := &s.forms[ctx.Kind-hbm.CmdRD][ctx.BankSel]
	k, ran, unit := 1, 0, 0
	if f.fault != legal {
		err = e.faultErr(s, f, ctx)
	} else {
		k = e.repeats(s, f, ctx, t)
		ran, unit, err = e.run(ctx, s, f, t, k)
	}
	reps := int64(ran)
	if err != nil {
		reps++ // the failed trigger's instruction retired, as a lone trigger's does
	}
	e.opRetired[s.in.Op] += reps
	if s.in.AAM {
		e.aamRetired += reps
	}
	// Every repetition but the last takes the loop's JUMP back, in closed
	// form; the last meets it in the walk below.
	if taken := min(ran, k-1); taken > 0 {
		next := e.ppc + 1
		e.opRetired[isa.JUMP] += int64(taken)
		e.jumpLeft[next], e.jumpArmed[next] = e.loopLeft(next)-int32(taken), true
	}
	if err == nil {
		if k > 1 && e.loopHook != nil {
			e.loopHook(&s.in, ctx.Kind, k)
		}
		e.ppc++
		// Flow control after the consuming instruction is zero-cycle
		// (decoded at fetch, Section III-C): walk JUMP chains and a
		// trailing EXIT without waiting for another command.
		_, after, walkErr := e.walk()
		if err = walkErr; err == nil {
			e.retire(ctx, t, k, before, base, after, info)
			return k, nil
		}
		ran = k - 1 // the walk fails the last repetition, as unit 0's
	} else if unit > 0 {
		// The units before the failing one completed the trigger, the
		// control walk after the instruction included, which every unit
		// shares: unit 0 meets an error of that walk first.
		e.ppc++
		if _, _, walkErr := e.walk(); walkErr != nil {
			err = walkErr
		}
	}
	if ran > 0 {
		e.retire(ctx, t, ran, before, base, 1, info) // each took the JUMP back
	}
	return ran, err
}

// retire adds what the units retired in the k triggers from t to info, in
// closed form, and logs them at their issue cycles (the first, the middle
// and the last as records of their own): each executed base, the first
// after before control instructions, each but the last took the loop's
// JUMP back and the last was followed by after control instructions.
func (e *Executor) retire(ctx *hbm.TriggerContext, t, k, before int, base hbm.TriggerInfo, after int, info *hbm.TriggerInfo) {
	units := len(e.units)
	info.Instructions += units * (before + k*(base.Instructions+1) - 1 + after)
	info.Arithmetic += units * k * base.Arithmetic
	info.DataMoves += units * k * base.DataMoves
	if e.Log == nil {
		return
	}
	b := base.Instructions
	if k == 1 {
		e.Log.PIM(ctx.Cycle(t), ctx.Stride, 1, units*(before+b+after))
		return
	}
	e.Log.PIM(ctx.Cycle(t), ctx.Stride, 1, units*(before+b+1))
	if k > 2 {
		e.Log.PIM(ctx.Cycle(t+1), ctx.Stride, k-2, units*(b+1))
	}
	e.Log.PIM(ctx.Cycle(t+k-1), ctx.Stride, 1, units*(b+after))
}

// repeats returns how many triggers from t run slot s's instruction, on
// which the PPC rests, in one step. That is one, except at the head of an
// AAM loop (s.loop): then it is the loop's repetitions left (its JUMP's
// count plus one), capped by the triggers left in the run and by the
// registers left before the AAM index wraps (so that every repetition has
// registers of its own), and, where the WR payload decides the form (the
// SRW forward), by the first payload that decides otherwise.
func (e *Executor) repeats(s *slot, f *form, ctx *hbm.TriggerContext, t int) int {
	if !s.loop || t+1 >= ctx.N {
		return 1
	}
	g := uint32(e.grfEntries)
	k := min(int(e.loopLeft(e.ppc+1))+1, ctx.N-t, int(g-(ctx.Col+uint32(t))&(g-1)))
	if f.forward {
		fw := len(ctx.Payload(t)) >= burstBytes
		for r := 1; r < k; r++ {
			if len(ctx.Payload(t+r)) >= burstBytes != fw {
				return r
			}
		}
	}
	return k
}

// loopLeft returns the iterations the JUMP at slot has left: its live
// count, or its immediate when it is not armed.
func (e *Executor) loopLeft(slot int) int32 {
	if e.jumpArmed[slot] {
		return e.jumpLeft[slot]
	}
	return int32(e.code[slot].in.Imm0)
}

// run is the data step of k repetitions of slot s's instruction in its
// legal form f, from trigger t of the run. It returns the repetitions that
// ran to the end; on an error, the one after them failed at unit, which
// the error names.
func (e *Executor) run(ctx *hbm.TriggerContext, s *slot, f *form, t, k int) (ran, unit int, err error) {
	n := len(e.units)
	if !e.functional {
		// Timing-only: register contents are never read and a bank access
		// is exactly one counter bump, so the units' traffic is accounted,
		// not replayed.
		if f.bank >= 0 {
			reads, writes := int64(1), int64(0)
			if s.in.Dst.IsBank() {
				reads, writes = 0, 1
			}
			ctx.Access.ReplicateBankAccess(reads, writes, int64(n*k))
		}
		return k, 0, nil
	}
	e.resolve(s, f, ctx, t)
	op, in, cnt := &e.op, &s.in, k*n
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

// walk retires zero-cycle JUMPs and an EXIT from the current PPC and
// returns the slot the PPC comes to rest on (a NOP, data or arithmetic
// instruction, not yet retired), or nil after EXIT, and the control
// instructions it retired.
func (e *Executor) walk() (*slot, int, error) {
	ppc, ctl := e.ppc, 0 // in locals: nothing the walk stores aliases them
	for hops := 0; ; hops++ {
		e.ppc = ppc
		if hops > isa.CRFEntries*2 {
			return nil, ctl, unitErr(0, fmt.Errorf("pim: control-flow livelock at PPC %d", ppc))
		}
		if ppc < 0 || ppc >= isa.CRFEntries {
			return nil, ctl, unitErr(0, fmt.Errorf("pim: PPC %d out of CRF range", ppc))
		}
		s := &e.code[ppc]
		if s.err != nil {
			return nil, ctl, unitErr(0, fmt.Errorf("pim: CRF[%d]: %w", ppc, s.err))
		}
		switch s.in.Op {
		case isa.JUMP:
			// Zero-cycle: decoded at fetch, consumes no command slot.
			ctl++
			e.opRetired[isa.JUMP]++
			if left := e.loopLeft(ppc); left > 0 {
				e.jumpArmed[ppc] = true
				e.jumpLeft[ppc] = left - 1
				ppc -= int(s.in.Imm1)
			} else {
				e.jumpArmed[ppc] = false // rearm for a future pass
				ppc++
			}
		case isa.EXIT:
			e.opRetired[isa.EXIT]++
			e.done = true
			return nil, ctl + 1, nil
		default:
			return s, ctl, nil
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

// resolve fills e.op for slot s's instruction under trigger t of the run,
// whose form f is legal: the register indices the instruction names or,
// in AAM, the column selects.
func (e *Executor) resolve(s *slot, f *form, ctx *hbm.TriggerContext, t int) {
	op, in := &e.op, &s.in
	op.in, op.t, op.col, op.access, op.bank = in, t, ctx.Col+uint32(t), ctx.Access, int(f.bank)
	op.forward = f.forward && len(ctx.Payload(t)) >= burstBytes
	dst, s0, s1 := int(in.DstIdx), int(in.Src0Idx), int(in.Src1Idx)
	if in.AAM {
		// Address-aligned mode: all three index fields are replaced by the
		// low bits of the triggering column, which walk each register file
		// linearly (Section IV-C); distinct files keep the operands distinct.
		gi, si := int(op.col&uint32(e.grfEntries-1)), int(op.col%isa.SRFEntries)
		idxFor := func(s isa.Src) int {
			if s.IsSRF() {
				return si
			}
			return gi
		}
		dst, s0, s1 = idxFor(in.Dst), idxFor(in.Src0), idxFor(in.Src1)
	}
	op.dst = dst
	op.a = operand{src: in.Src0, idx: s0, payload: f.payload}
	op.b = operand{src: in.Src1, idx: s1}
	// MAD: dst = a*b + SRF_A[s1] (the addend shares SRC1's index in a
	// different register file, Section III-C).
	op.addend = s1 % isa.SRFEntries
}

// zeroBurst is what a short WR payload carries into a register.
var zeroBurst [burstBytes]byte

// slot is one CRF slot compiled for the sequencer: what a trigger that
// finds the PPC there needs and the program alone decides.
type slot struct {
	in           isa.Instruction // the decoded word: a JUMP's count and distance and a NOP's cycles are its immediates
	err          error           // the decode error, when the word is no instruction
	arith, moves uint8           // 1 for an arithmetic (FPU active) or a data-movement instruction
	loop         bool            // an AAM instruction the next slot's JUMP -1 repeats
	// forms[kind-hbm.CmdRD][bankSel]: a data or arithmetic instruction's
	// operands under a RD or WR on the even (0) or odd (1) banks.
	forms [2][2]form
}

// base is what each unit retires for s's instruction, per execution.
func (s *slot) base() hbm.TriggerInfo {
	return hbm.TriggerInfo{Instructions: 1, Arithmetic: int(s.arith), DataMoves: int(s.moves)}
}

// form is where a data or arithmetic instruction's operands come from
// under one command kind and bank set, or why it cannot execute there.
type form struct {
	bank    int8    // which of a unit's banks it reads (an operand) or writes (MOV to a bank), as an offset from the unit's first; -1: neither
	fault   fault   // the error every unit would report; legal: none
	src     isa.Src // the bank operand the fault names
	payload bool    // SRC0 is the WR payload, captured from the write datapath: no array read
	forward bool    // SRW: a full WR payload lands in SRC0's register before the operation
}

// fault is a form's legality error, worded (faultErr) only when a trigger
// meets it: compiling a program allocates nothing. A register index is
// never one: a decoded index lies within every device's register files.
type fault uint8

const (
	legal      fault = iota
	needsWR          // a MOV to a bank under a RD
	otherBanks       // a bank operand in the bank set the command does not drive
	wrRead           // a bank read operand under a WR, without the WR operand path
)

// faultErr words the fault of slot s's form f, met under the command ctx
// describes, as unit 0's.
func (e *Executor) faultErr(s *slot, f *form, ctx *hbm.TriggerContext) error {
	var err error
	switch f.fault {
	case needsWR:
		err = fmt.Errorf("pim: MOV to bank triggered by %s, needs WR", ctx.Kind)
	case otherBanks:
		err = fmt.Errorf("pim: instruction reads %s but the command drives the %s banks",
			f.src, []string{"even", "odd"}[ctx.BankSel])
	default: // no RD datapath overlaps the WR to read the operand
		err = errors.New("pim: bank read operand on a WR trigger")
	}
	return unitErr(0, fmt.Errorf("pim: CRF[%d] %s: %w", e.ppc, s.in, err))
}

// compile runs at the first trigger after a CRF write. It compiles unit
// 0's CRF into code: every slot whose word changed is decoded, with what
// it retires and, for a data or arithmetic instruction, its four operand
// forms, and every slot is marked as heading an AAM loop or not. Then it
// compares every unit's CRF with unit 0's and keeps the verdict until the
// next CRF write: broadcast programming keeps the units identical, an
// SB-mode column write to one bank's CRF row does not.
func (e *Executor) compile() {
	e.stale, e.lockStepErr = false, nil
	if e.code == nil {
		e.code = new([isa.CRFEntries]slot)
	}
	for i, w := range e.units[0].crf {
		if w == e.words[i] {
			continue
		}
		e.words[i] = w
		s := &e.code[i]
		*s = slot{}
		if s.in, s.err = isa.Decode(w); s.err != nil || s.in.Op.IsControl() {
			continue
		}
		if s.in.Op.IsArith() {
			s.arith = 1
		} else {
			s.moves = 1
		}
		for kind := range s.forms {
			for sel := range s.forms[kind] {
				s.forms[kind][sel] = e.formOf(&s.in, hbm.CmdRD+hbm.CmdKind(kind) == hbm.CmdWR, sel)
			}
		}
	}
	for i := range isa.CRFEntries - 1 {
		j := &e.code[i+1]
		e.code[i].loop = e.code[i].in.AAM && j.err == nil && j.in.Op == isa.JUMP && j.in.Imm1 == 1
	}
	for i, u := range e.units {
		for slot, w := range u.crf {
			if w != e.words[slot] {
				e.lockStepErr = fmt.Errorf("pim: unit %d: CRF[%d] differs from unit 0's: the units are not in lock step", i, slot)
				return
			}
		}
	}
}

// formOf resolves in's operands under a WR (wr) or RD on bank set sel: a
// MOV to a bank only under a WR, and a bank operand only in the bank set
// the command drives.
func (e *Executor) formOf(in *isa.Instruction, wr bool, sel int) form {
	f := form{bank: -1}
	if in.Dst.IsBank() {
		// MOV GRF -> bank; needs the write drivers, i.e. a WR trigger.
		if !wr {
			return form{fault: needsWR}
		}
		e.bankOffset(&f, in.Dst, wr, sel, false)
		return f
	}
	// Only data-movement instructions may capture the write datapath as
	// their bank operand; an arithmetic bank operand needs a real array
	// read, which a WR trigger supplies only on a WROperand device, where
	// a full payload is forwarded into SRC0 too (simultaneous read/write,
	// which lets one command load the vector operand and execute, Fig. 14).
	capture := in.Op.IsData()
	f.forward = e.wrOperand && wr && in.Op.IsArith() && in.Src0.IsGRF()
	if e.source(&f, in.Src0, wr, sel, capture) && !capture {
		e.source(&f, in.Src1, wr, sel, false) // MOV and FILL have the one source
	}
	return f
}

// source checks SRC0 or SRC1 into f and reports whether it is legal. With
// capture, a bank operand under a WR trigger is the host's payload, not an
// array read: "the host processor pushes 256 bits to the write drivers or
// PIM registers" (Section III-A), which is how input vectors are loaded
// into the GRF between compute bursts.
func (e *Executor) source(f *form, s isa.Src, wr bool, sel int, capture bool) bool {
	switch {
	case !s.IsBank():
		return true // a register
	case capture && wr:
		f.payload = true
		return true
	}
	return e.bankOffset(f, s, wr, sel, true)
}

// bankOffset resolves EVEN_BANK/ODD_BANK into f's offset within a unit's
// banks and reports whether the command drives that bank set and, for an
// operand read, can supply one.
func (e *Executor) bankOffset(f *form, s isa.Src, wr bool, sel int, read bool) bool {
	if e.banksPerUnit == 1 {
		// 2x variant: one unit per bank; both names alias the single bank.
		f.bank = 0
		return true
	}
	want := 0
	if s == isa.OddBank {
		want = 1
	}
	if !e.twoBank && sel != want {
		f.fault, f.src = otherBanks, s
		return false
	}
	if read && wr && !e.wrOperand {
		f.fault = wrRead
		return false
	}
	f.bank = int8(want * (e.banksPerUnit - 1))
	return true
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
// units, indexed by isa.Opcode. It allocates nothing.
func (e *Executor) OpCountsArray() [isa.NumOpcodes]int64 {
	out := e.opRetired
	for op := range out {
		out[op] *= int64(len(e.units))
	}
	return out
}

// AAMInstructions returns retired address-aligned-mode instructions,
// summed over units.
func (e *Executor) AAMInstructions() int64 { return e.aamRetired * int64(len(e.units)) }
