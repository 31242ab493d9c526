package pim

import (
	"fmt"

	"pimsim/internal/hbm"
	"pimsim/internal/isa"
	"pimsim/internal/obs"
)

// Executor holds the PIM execution units of one pseudo channel and drives
// them in lock step. It implements hbm.PIMExecutor.
//
// Lockstep is an invariant, not an approximation: register programming
// broadcasts identical CRF/SRF/GRF contents to every unit, a trigger
// steps every unit through the same command slot, and broadcast column
// commands require every bank active — so all units always share the
// same control state (PPC, loop counters, done flag, retirement
// counts). In timing-only mode the executor exploits this by stepping
// only unit 0 per trigger and deferring the mirror units' state until a
// reader needs it (see syncUnits); data-bearing functional runs step
// every unit, since their register contents diverge per bank.
type Executor struct {
	units        []*Unit
	banksPerUnit int
	triggers     int64

	// desync marks units [1, n) stale relative to unit 0 after lockstep
	// fast-path triggers; syncUnits repairs them before any readout.
	desync bool
	// cnt is the reusable access-counting adapter for the fast path, and
	// sc the reusable step context (both keep per-trigger state off the
	// stack so nothing is copied per command). sc's device facts
	// (functional, twoBank, wrOperand) are filled once, from the
	// configuration.
	cnt countingAccess
	sc  stepContext

	// TL, when set, records per-trigger retired-instruction counts into
	// the observability timeline (the Perfetto PIM-activity counter
	// track). Nil costs one pointer compare per trigger.
	TL *obs.ChannelTimeline
}

// countingAccess wraps a BankAccess and counts the accesses flowing
// through it, so one representative unit's bank traffic can be
// replicated for its lockstep mirrors.
type countingAccess struct {
	inner         hbm.BankAccess
	reads, writes int64
}

func (c *countingAccess) ReadBank(bankIdx int, col uint32, buf []byte) error {
	c.reads++
	return c.inner.ReadBank(bankIdx, col, buf)
}

func (c *countingAccess) WriteBank(bankIdx int, col uint32, data []byte) error {
	c.writes++
	return c.inner.WriteBank(bankIdx, col, data)
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
		units:        make([]*Unit, cfg.PIMUnits),
		banksPerUnit: cfg.BanksPerUnit(),
	}
	e.sc.functional = cfg.Functional
	e.sc.twoBank = cfg.TriggerBanks() == 2
	e.sc.wrOperand = cfg.WROperand()
	for i := range e.units {
		e.units[i] = newUnit(cfg.GRFDepth())
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
	e.syncUnits()
	return e.units[i]
}

// NumUnits returns the number of units.
func (e *Executor) NumUnits() int { return len(e.units) }

// RegisterWrite implements hbm.PIMExecutor.
func (e *Executor) RegisterWrite(unit int, space hbm.RegSpace, col uint32, data []byte) error {
	if unit < 0 || unit >= len(e.units) {
		return fmt.Errorf("pim: unit %d out of range", unit)
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

// Trigger implements hbm.PIMExecutor: one column command advances every
// unit by one command slot. Timing-only devices take the lockstep fast
// path when the bank-access provider can account replicated traffic.
func (e *Executor) Trigger(ctx *hbm.TriggerContext) (hbm.TriggerInfo, error) {
	e.triggers++
	sc := &e.sc
	sc.kind = ctx.Kind
	sc.bankSel = ctx.BankSel
	sc.row = ctx.Row
	sc.col = ctx.Col
	sc.wrData = ctx.WrData
	sc.access = ctx.Access
	if !sc.functional && len(e.units) > 1 {
		if rep, ok := ctx.Access.(hbm.BankAccessReplicator); ok {
			return e.triggerLockstep(sc, rep, ctx.Cycle)
		}
	}
	var info hbm.TriggerInfo
	for i, u := range e.units {
		sc.evenBank = i * e.banksPerUnit
		sc.oddBank = i*e.banksPerUnit + e.banksPerUnit - 1
		c, err := u.step(sc)
		info.Instructions += c.instrs
		info.Arithmetic += c.arith
		info.DataMoves += c.moves
		if err != nil {
			return info, fmt.Errorf("pim: unit %d: %w", i, err)
		}
	}
	if e.TL != nil {
		e.TL.PIMInstr(ctx.Cycle, info.Instructions)
	}
	return info, nil
}

// triggerLockstep steps only unit 0 and accounts units [1, n) as exact
// mirrors: retirement counts multiply, bank traffic replicates through
// the BankAccessReplicator, and mirror control state is repaired lazily
// by syncUnits. Valid because timing-only execution touches no
// per-unit data (register contents are never read) and every unit would
// execute the identical slot against banks in the identical state. On
// error every unit would have failed the same way; the partial counts
// returned with an error are discarded by the device layer either way.
func (e *Executor) triggerLockstep(sc *stepContext, rep hbm.BankAccessReplicator, cycle int64) (hbm.TriggerInfo, error) {
	n := len(e.units)
	e.cnt.inner = sc.access
	e.cnt.reads, e.cnt.writes = 0, 0
	sc.access = &e.cnt
	sc.evenBank = 0
	sc.oddBank = e.banksPerUnit - 1
	e.desync = true
	c, err := e.units[0].step(sc)
	info := hbm.TriggerInfo{
		Instructions: c.instrs * n,
		Arithmetic:   c.arith * n,
		DataMoves:    c.moves * n,
	}
	if err != nil {
		return info, fmt.Errorf("pim: unit 0: %w", err)
	}
	if e.cnt.reads != 0 || e.cnt.writes != 0 {
		rep.ReplicateBankAccess(e.cnt.reads, e.cnt.writes, int64(n-1))
	}
	if e.TL != nil {
		e.TL.PIMInstr(cycle, info.Instructions)
	}
	return info, nil
}

// syncUnits copies unit 0's control state onto the mirror units after
// lockstep fast-path triggers. The decode caches need no copy: every
// unit holds identical CRF words and decodes lazily.
func (e *Executor) syncUnits() {
	if !e.desync {
		return
	}
	e.desync = false
	u0 := e.units[0]
	for _, u := range e.units[1:] {
		u.ppc = u0.ppc
		u.nopLeft = u0.nopLeft
		u.done = u0.done
		u.jumpLeft = u0.jumpLeft
		u.jumpArmed = u0.jumpArmed
		u.opRetired = u0.opRetired
		u.aamRetired = u0.aamRetired
	}
}

// ResetPPC implements hbm.PIMExecutor.
func (e *Executor) ResetPPC() {
	e.desync = false // every unit is reset to the same state anyway
	for _, u := range e.units {
		u.resetPPC()
	}
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
func (e *Executor) AllDone() bool {
	e.syncUnits()
	for _, u := range e.units {
		if !u.Done() {
			return false
		}
	}
	return true
}

// Triggers returns how many AB-PIM column commands reached this executor.
func (e *Executor) Triggers() int64 { return e.triggers }

// OpCountsArray returns instructions retired per opcode, summed over
// units, indexed by isa.Opcode. It allocates nothing and is the accessor
// repeated callers (metrics scrapes, single-opcode queries) should use.
func (e *Executor) OpCountsArray() [isa.NumOpcodes]int64 {
	e.syncUnits()
	var out [isa.NumOpcodes]int64
	for _, u := range e.units {
		for op, n := range u.opRetired {
			out[op] += n
		}
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
func (e *Executor) AAMInstructions() int64 {
	e.syncUnits()
	var t int64
	for _, u := range e.units {
		t += u.aamRetired
	}
	return t
}
