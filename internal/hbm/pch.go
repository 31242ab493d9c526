package hbm

import "fmt"

// Mode is the operating mode of a pseudo channel (Section III-B, Fig. 3).
type Mode uint8

const (
	ModeSB    Mode = iota // single-bank: standard DRAM behaviour
	ModeAB                // all-bank: commands broadcast to all banks
	ModeABPIM             // all-bank PIM: column commands trigger PIM instructions
)

var modeNames = [...]string{"SB", "AB", "AB-PIM"}

func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// PIM configuration space: the top NumConfRows rows of every bank are
// reserved (PIM CONF, the gray region of Fig. 3). The device driver keeps
// application data out of them.
const NumConfRows = 4

// RegSpace identifies which PIM register file a configuration-row access
// targets.
type RegSpace uint8

const (
	RegMode RegSpace = iota // mode row: ABMR / SBMR handshakes + PIM_OP_MODE
	RegCRF                  // instruction buffer
	RegGRF                  // vector registers
	RegSRF                  // scalar registers
)

// Mode-row column assignments.
const (
	ColPIMOpMode = 2 // WR with data[0]&1 enters/exits AB-PIM mode
)

// Conf-row placement within a bank.
func (c Config) ModeRow() uint32 { return uint32(c.Rows - 1) }
func (c Config) CRFRow() uint32  { return uint32(c.Rows - 2) }
func (c Config) GRFRow() uint32  { return uint32(c.Rows - 3) }
func (c Config) SRFRow() uint32  { return uint32(c.Rows - 4) }

// confSpace maps a row to its register space, or ok=false for normal rows.
// Plain HBM2 devices have no PIM configuration space: every row is an
// ordinary array row. Pointer receiver with the Mode/CRF/GRF/SRF row
// arithmetic inlined: it runs on every column command, where the value
// receivers' Config copies dominated the timing-only profile.
func (c *Config) confSpace(row uint32) (RegSpace, bool) {
	if c.PIMUnits == 0 {
		return 0, false
	}
	switch top := uint32(c.Rows); row {
	case top - 1: // ModeRow
		return RegMode, true
	case top - 2: // CRFRow
		return RegCRF, true
	case top - 3: // GRFRow
		return RegGRF, true
	case top - 4: // SRFRow
		return RegSRF, true
	}
	return 0, false
}

// Mode-transition handshake banks: ACT+PRE on the mode row of bank group
// 0, bank 0 enters AB mode (the ABMR address); on bank 1 it returns to SB
// (SBMR). The PIM device driver reserves these addresses (Section V-A).
const (
	ABMRBank = 0
	SBMRBank = 1

	abmrBank = ABMRBank
	sbmrBank = SBMRBank
)

// BankAccess lets an attached PIM executor move data to and from the row
// buffers of the banks its units sit between. The row is implicit: the
// currently open row of the addressed bank.
type BankAccess interface {
	// ReadBank copies the 32-byte block at the open row's column col of
	// bank bankIdx (a flat index, bg*BanksPerGroup+bank) into buf.
	ReadBank(bankIdx int, col uint32, buf []byte) error
	// WriteBank stores data at the open row's column col of bank bankIdx.
	WriteBank(bankIdx int, col uint32, data []byte) error
	// ReplicateBankAccess accounts `times` copies of an access pattern of
	// `reads` bank reads and `writes` bank writes without moving data: it
	// bumps the counters ReadBank/WriteBank would have. On a timing-only
	// device that is all an access is, and every PIM unit of a channel
	// makes the same ones (broadcast column commands require all banks
	// active), so the executor accounts its units' traffic in one call.
	ReplicateBankAccess(reads, writes, times int64)
}

// TriggerContext describes one AB-PIM column command to the executor.
type TriggerContext struct {
	Kind    CmdKind // CmdRD or CmdWR
	BankSel int     // 0: even banks of each pair, 1: odd banks
	Row     uint32  // the open row (implicit operand row address)
	Col     uint32  // the triggering column address
	WrData  []byte  // host payload on the write datapath (CmdWR only)
	Access  BankAccess
	Cycle   int64 // issue cycle of the triggering command (observability)
}

// TriggerInfo reports what the executor did for one trigger.
type TriggerInfo struct {
	Instructions int // instructions executed across all units
	Arithmetic   int // of which arithmetic (FPU active)
	DataMoves    int // of which MOV/FILL (register datapath active)
}

// PIMExecutor is the execution layer attached to a pseudo channel. The pim
// package provides the implementation; the hbm package only defines the
// contract so the device model stays independent of the datapath.
type PIMExecutor interface {
	// RegisterWrite stores a 32-byte block into unit's register space.
	RegisterWrite(unit int, space RegSpace, col uint32, data []byte) error
	// RegisterRead loads a 32-byte block from unit's register space.
	RegisterRead(unit int, space RegSpace, col uint32, buf []byte) error
	// Trigger executes the next PIM instruction on every unit in lock
	// step, in response to one AB-PIM column command. The context is
	// only valid for the duration of the call (the device reuses it).
	Trigger(ctx *TriggerContext) (TriggerInfo, error)
	// ResetPPC rewinds all units' program counters (AB-PIM entry).
	ResetPPC()
}

// PseudoChannel models one HBM2 pseudo channel: 16 banks in 4 bank groups
// behind a 64-bit data path, plus the PIM mode logic.
type PseudoChannel struct {
	cfg   *Config
	id    int    // channel index within the device (labels ECC errors)
	banks []bank // flat: bg*BanksPerGroup + bank
	mode  Mode

	exec  PIMExecutor
	fault ReadFault // nil: no injection (one pointer compare per readout)

	// Channel- and group-level timing state.
	colAllowedS int64   // next column under tCCD_S (channel-wide)
	colAllowedL []int64 // next column per bank group under tCCD_L
	wrAllowed   int64   // RD->WR turnaround
	rdAllowedS  int64   // WR->RD turnaround, different bank group
	rdAllowedL  []int64 // WR->RD turnaround, same bank group
	actWindow   faw     // tFAW tracking
	rrdAllowed  int64   // tRRD_S
	rrdAllowedL []int64 // tRRD_L per bank group
	busyUntil   int64   // refresh blackout

	// Incrementally maintained timing aggregates (the event-driven core).
	// Broadcast legality used to scan all banks on every broadcast command;
	// these running maxima make it O(1). Every bank timer is monotonically
	// nondecreasing (all raises go through maxi64), so the all-bank maxima
	// only need updating at the handful of raise sites. earliestBrute keeps
	// the scan as a debug oracle; SetTimingCrossCheck makes every legality
	// verdict compare the two.
	activeBanks int   // banks currently in bankActive state
	aggACT      int64 // max over all banks of actAllowed
	aggRD       int64 // max over all banks of rdAllowed
	aggWR       int64 // max over all banks of wrAllowed
	// aggPre is the max effective preAllowed over *active* banks. Unlike
	// the all-bank maxima it shrinks when a bank leaves the active set, so
	// a single-bank PRE that retires a potential max holder marks it dirty
	// and the next broadcast-PRE/PREA legality check rescans (rare).
	aggPre   int64
	preDirty bool
	// preFloor is the precharge fence a broadcast column command imposes on
	// every bank, stored once instead of written into every bank. Broadcast
	// columns require all banks active; a bank that later precharges (at a
	// cycle >= preFloor, by PRE legality) and re-activates lands at
	// preAllowed >= preFloor+tRP+tRAS, so folding the floor into every
	// preAllowed read is exact without per-bank writes.
	preFloor int64
	// Bank-group aggregates and floors for the tCCD_L / tWTR_L arrays:
	// aggColL/aggRdL track the maxima raised by single-bank columns, while
	// broadcast raises live once in colAllowedS (same value, so it already
	// covers every group) and rdFloorL (folded into rdAllowedL reads).
	aggColL  int64
	aggRdL   int64
	rdFloorL int64

	// checkTiming arms the aggregate-vs-brute-force oracle cross-check on
	// every legality verdict (randomized property tests; panics on drift).
	checkTiming bool

	stats   Stats
	bankOps []BankOps // per-bank command observations (utilization balance)
	// bcastOps counts broadcast (AB/AB-PIM) commands once instead of
	// touching all 16 bankOps entries per command; a broadcast reaches
	// every bank equally, so BankOps() folds it back in exactly.
	bcastOps BankOps

	// Mode residency: cycles spent in each operating mode, attributed at
	// mode-switch command issue cycles.
	modeSince  int64
	modeCycles [3]int64

	// Reusable scratch so the column-command hot path allocates nothing.
	// colBuf backs IssueResult.Data (valid only until the next Issue, see
	// the IssueResult contract); regBuf absorbs register reads from units
	// beyond the first, whose data never reaches the I/O mux; allBanks is
	// the 0..Banks-1 index slice broadcast register accesses iterate;
	// oneBank holds the single index of a single-bank register access.
	colBuf   []byte
	regBuf   []byte
	allBanks []int
	oneBank  [1]int

	// trig is the reusable per-trigger context handed to the PIM executor
	// (by pointer, so the per-command hot path copies no structs). Its
	// constant field (Access) is filled once.
	trig TriggerContext

	// Limits and ratios precomputed off Config so the per-command addrCheck
	// and the per-unit register routing (unitFor) perform no division on,
	// and make no copy of, the Config: RowBytes/AccessBytes, BanksPerUnit.
	numRows      uint32
	numCols      uint32
	banksPerUnit int // 0 on a device without PIM units, which routes no register access
}

// BankOps counts the commands one bank observed: its demand profile for
// bank-utilization metrics. Broadcast (AB/AB-PIM) commands count into
// every bank, exactly as every bank's row decoder and IOSA fire.
type BankOps struct {
	ACT int64
	RD  int64
	WR  int64
}

// newPCH builds pseudo channel id for cfg.
func newPCH(cfg *Config, id int) *PseudoChannel {
	p := &PseudoChannel{
		cfg:         cfg,
		id:          id,
		banks:       make([]bank, cfg.Banks()),
		colAllowedL: make([]int64, cfg.BankGroups),
		rdAllowedL:  make([]int64, cfg.BankGroups),
		rrdAllowedL: make([]int64, cfg.BankGroups),
		bankOps:     make([]BankOps, cfg.Banks()),
		colBuf:      make([]byte, cfg.AccessBytes),
		regBuf:      make([]byte, cfg.AccessBytes),
		allBanks:    make([]int, cfg.Banks()),
	}
	for i := range p.allBanks {
		p.allBanks[i] = i
	}
	p.trig.Access = (*pchBankAccess)(p)
	p.numRows = uint32(cfg.Rows)
	p.numCols = uint32(cfg.RowBytes / cfg.AccessBytes)
	if cfg.PIMUnits > 0 {
		p.banksPerUnit = cfg.BanksPerUnit()
	}
	// Seed the four-activate window in the distant past so the first four
	// ACTs are unconstrained.
	for i := range p.actWindow.times {
		p.actWindow.times[i] = -(1 << 40)
	}
	return p
}

// AttachPIM connects the execution layer. It must be called before any
// AB-PIM activity on a PIM-enabled configuration.
func (p *PseudoChannel) AttachPIM(e PIMExecutor) { p.exec = e }

// AttachFault connects a fault injector to the readout path (nil
// detaches it). With no injector attached the read path is unchanged.
func (p *PseudoChannel) AttachFault(f ReadFault) { p.fault = f }

// Mode returns the current operating mode.
func (p *PseudoChannel) Mode() Mode { return p.mode }

// OpenRow reports the open row of a bank, or ok == false when the bank is
// precharged. Controllers use this to track row-buffer state without
// shadowing it.
func (p *PseudoChannel) OpenRow(bg, bank int) (row uint32, ok bool) {
	b := &p.banks[p.flat(bg, bank)]
	if b.state != bankActive {
		return 0, false
	}
	return b.openRow, true
}

// RefreshLegal reports whether a REF may issue: every bank precharged, the
// one legality rule EarliestIssue applies to CmdREF. The controller asks
// before every command once a refresh is due, mostly with a row open, and
// a yes/no costs no error value.
func (p *PseudoChannel) RefreshLegal() bool { return p.activeBanks == 0 }

// Stats returns the accumulated counters.
func (p *PseudoChannel) Stats() Stats { return p.stats }

// ResetStats zeroes the counters.
func (p *PseudoChannel) ResetStats() { p.stats = Stats{} }

// BankOps returns a copy of the per-bank command counts (flat bank index),
// with broadcast commands — accumulated once in bcastOps — folded into
// every bank, exactly as every bank's row decoder and IOSA fired.
func (p *PseudoChannel) BankOps() []BankOps {
	out := append([]BankOps(nil), p.bankOps...)
	if p.bcastOps != (BankOps{}) {
		for i := range out {
			out[i].ACT += p.bcastOps.ACT
			out[i].RD += p.bcastOps.RD
			out[i].WR += p.bcastOps.WR
		}
	}
	return out
}

// ModeResidency returns the cycles spent in each operating mode (indexed
// by Mode) up to cycle now, including the currently open residency span.
func (p *PseudoChannel) ModeResidency(now int64) [3]int64 {
	out := p.modeCycles
	if now > p.modeSince {
		out[p.mode] += now - p.modeSince
	}
	return out
}

// switchMode moves the channel to mode m at cycle at, closing the
// residency span of the previous mode.
func (p *PseudoChannel) switchMode(m Mode, at int64) {
	if at > p.modeSince {
		p.modeCycles[p.mode] += at - p.modeSince
		p.modeSince = at
	}
	p.mode = m
	p.stats.ModeSwitches++
}

// flat returns the flat bank index for a command address.
func (p *PseudoChannel) flat(bg, b int) int { return bg*p.cfg.BanksPerGroup + b }

// addrCheck validates cmd's addresses against the precomputed geometry
// limits; Config.addrCheck recomputes a division per column command, so
// the per-command path uses the cached limits and only delegates to the
// Config method to format the (identical) error.
func (p *PseudoChannel) addrCheck(cmd *Command) error {
	switch cmd.Kind {
	case CmdACT:
		if cmd.Row >= p.numRows {
			return p.cfg.addrCheck(cmd)
		}
	case CmdRD, CmdWR:
		if cmd.Col >= p.numCols {
			return p.cfg.addrCheck(cmd)
		}
	}
	switch cmd.Kind {
	case CmdACT, CmdPRE, CmdRD, CmdWR:
		if uint(cmd.BG) >= uint(p.cfg.BankGroups) || uint(cmd.Bank) >= uint(p.cfg.BanksPerGroup) {
			return p.cfg.addrCheck(cmd)
		}
	}
	return nil
}

// unitFor maps a flat bank index to its PIM unit.
func (p *PseudoChannel) unitFor(bankIdx int) int { return bankIdx / p.banksPerUnit }

// EarliestIssue returns the earliest cycle >= now at which cmd may legally
// issue. It does not change state and returns an error for commands that
// are illegal regardless of timing (bad address, closed row, wrong mode).
func (p *PseudoChannel) EarliestIssue(cmd Command, now int64) (int64, error) {
	at, _, err := p.earliest(&cmd, now)
	if p.checkTiming {
		p.crossCheck(cmd, now, at, err)
	}
	return at, err
}

// earliest is EarliestIssue's implementation; it additionally reports
// whether the command broadcasts, so issue paths that just computed the
// legality verdict can reuse it without re-deriving the handshake check.
func (p *PseudoChannel) earliest(cmd *Command, now int64) (int64, bool, error) {
	if err := p.addrCheck(cmd); err != nil {
		return 0, false, err
	}
	t := maxi64(now, p.busyUntil)
	tm := &p.cfg.Timing

	broadcast := p.mode != ModeSB && !p.isModeHandshake(cmd)

	switch cmd.Kind {
	case CmdACT:
		if broadcast {
			if cmd.Row >= uint32(p.cfg.Rows)-1 { // ModeRow() without the Config copy
				return 0, false, fmt.Errorf("hbm: broadcast ACT to the mode row is illegal")
			}
			return maxi64(t, p.aggACT), broadcast, nil
		}
		b := &p.banks[p.flat(cmd.BG, cmd.Bank)]
		if b.state == bankActive {
			return 0, false, fmt.Errorf("hbm: ACT to open bank bg%d b%d", cmd.BG, cmd.Bank)
		}
		t = maxi64(t, b.earliestACT())
		t = maxi64(t, p.rrdAllowed)
		t = maxi64(t, p.rrdAllowedL[cmd.BG])
		t = maxi64(t, p.actWindow.earliest(int64(tm.FAW)))
		return t, broadcast, nil

	case CmdPRE:
		if broadcast {
			return maxi64(t, p.aggPreNow()), broadcast, nil
		}
		b := &p.banks[p.flat(cmd.BG, cmd.Bank)]
		if b.state != bankActive {
			return 0, false, fmt.Errorf("hbm: PRE to idle bank bg%d b%d", cmd.BG, cmd.Bank)
		}
		return maxi64(t, maxi64(b.preAllowed, p.preFloor)), broadcast, nil

	case CmdPREA:
		return maxi64(t, p.aggPreNow()), broadcast, nil

	case CmdRD, CmdWR:
		t = maxi64(t, p.colAllowedS)
		if cmd.Kind == CmdWR {
			t = maxi64(t, p.wrAllowed)
		} else {
			t = maxi64(t, p.rdAllowedS)
		}
		if broadcast {
			if p.activeBanks != len(p.banks) {
				// Error path only: rescan to name the first idle bank.
				for i := range p.banks {
					if p.banks[i].state != bankActive {
						return 0, false, fmt.Errorf("hbm: broadcast %s with bank %d idle", cmd.Kind, i)
					}
				}
			}
			t = maxi64(t, p.aggColL)
			if cmd.Kind == CmdRD {
				t = maxi64(t, maxi64(p.aggRdL, p.rdFloorL))
				t = maxi64(t, p.aggRD)
			} else {
				t = maxi64(t, p.aggWR)
			}
			return t, broadcast, nil
		}
		t = maxi64(t, p.colAllowedL[cmd.BG])
		if cmd.Kind == CmdRD {
			t = maxi64(t, maxi64(p.rdAllowedL[cmd.BG], p.rdFloorL))
		}
		b := &p.banks[p.flat(cmd.BG, cmd.Bank)]
		if b.state != bankActive {
			return 0, false, fmt.Errorf("hbm: %s to idle bank bg%d b%d", cmd.Kind, cmd.BG, cmd.Bank)
		}
		return maxi64(t, b.earliestCol(cmd.Kind)), broadcast, nil

	case CmdREF:
		if p.activeBanks > 0 {
			// Error path only: rescan to name the first active bank.
			for i := range p.banks {
				if p.banks[i].state == bankActive {
					return 0, false, fmt.Errorf("hbm: REF with bank %d active", i)
				}
			}
		}
		return maxi64(t, p.aggACT), broadcast, nil
	}
	return 0, false, fmt.Errorf("hbm: unknown command kind %d", cmd.Kind)
}

// aggPreNow returns the maximum effective preAllowed over active banks,
// rescanning first when a single-bank PRE invalidated the running maximum.
func (p *PseudoChannel) aggPreNow() int64 {
	if p.preDirty {
		p.rescanAggPre()
	}
	return p.aggPre
}

// rescanAggPre recomputes aggPre exactly from per-bank state.
func (p *PseudoChannel) rescanAggPre() {
	var agg int64
	for i := range p.banks {
		if p.banks[i].state == bankActive {
			agg = maxi64(agg, maxi64(p.banks[i].preAllowed, p.preFloor))
		}
	}
	p.aggPre = agg
	p.preDirty = false
}

// earliestBrute recomputes earliest's verdict by scanning every bank and
// bank group — the pre-aggregate implementation kept as a debug oracle.
// Per-bank preAllowed reads fold in preFloor and per-group rdAllowedL
// reads fold in rdFloorL (broadcast raises live in the floors now); the
// tCCD_L raise of a broadcast column lives in colAllowedS, which the
// column cases already take. This is the ground truth the O(1) aggregate
// path must match, cycle for cycle and error for error.
func (p *PseudoChannel) earliestBrute(cmd *Command, now int64) (int64, bool, error) {
	if err := p.cfg.addrCheck(cmd); err != nil {
		return 0, false, err
	}
	t := maxi64(now, p.busyUntil)
	tm := &p.cfg.Timing

	broadcast := p.mode != ModeSB && !p.isModeHandshake(cmd)

	switch cmd.Kind {
	case CmdACT:
		if broadcast {
			if cmd.Row >= uint32(p.cfg.Rows)-1 {
				return 0, false, fmt.Errorf("hbm: broadcast ACT to the mode row is illegal")
			}
			for i := range p.banks {
				t = maxi64(t, p.banks[i].earliestACT())
			}
			return t, broadcast, nil
		}
		b := &p.banks[p.flat(cmd.BG, cmd.Bank)]
		if b.state == bankActive {
			return 0, false, fmt.Errorf("hbm: ACT to open bank bg%d b%d", cmd.BG, cmd.Bank)
		}
		t = maxi64(t, b.earliestACT())
		t = maxi64(t, p.rrdAllowed)
		t = maxi64(t, p.rrdAllowedL[cmd.BG])
		t = maxi64(t, p.actWindow.earliest(int64(tm.FAW)))
		return t, broadcast, nil

	case CmdPRE:
		if broadcast {
			for i := range p.banks {
				if p.banks[i].state == bankActive {
					t = maxi64(t, maxi64(p.banks[i].preAllowed, p.preFloor))
				}
			}
			return t, broadcast, nil
		}
		b := &p.banks[p.flat(cmd.BG, cmd.Bank)]
		if b.state != bankActive {
			return 0, false, fmt.Errorf("hbm: PRE to idle bank bg%d b%d", cmd.BG, cmd.Bank)
		}
		return maxi64(t, maxi64(b.preAllowed, p.preFloor)), broadcast, nil

	case CmdPREA:
		for i := range p.banks {
			if p.banks[i].state == bankActive {
				t = maxi64(t, maxi64(p.banks[i].preAllowed, p.preFloor))
			}
		}
		return t, broadcast, nil

	case CmdRD, CmdWR:
		t = maxi64(t, p.colAllowedS)
		if cmd.Kind == CmdWR {
			t = maxi64(t, p.wrAllowed)
		} else {
			t = maxi64(t, p.rdAllowedS)
		}
		if broadcast {
			for bg := range p.colAllowedL {
				t = maxi64(t, p.colAllowedL[bg])
				if cmd.Kind == CmdRD {
					t = maxi64(t, maxi64(p.rdAllowedL[bg], p.rdFloorL))
				}
			}
			for i := range p.banks {
				if p.banks[i].state != bankActive {
					return 0, false, fmt.Errorf("hbm: broadcast %s with bank %d idle", cmd.Kind, i)
				}
				t = maxi64(t, p.banks[i].earliestCol(cmd.Kind))
			}
			return t, broadcast, nil
		}
		t = maxi64(t, p.colAllowedL[cmd.BG])
		if cmd.Kind == CmdRD {
			t = maxi64(t, maxi64(p.rdAllowedL[cmd.BG], p.rdFloorL))
		}
		b := &p.banks[p.flat(cmd.BG, cmd.Bank)]
		if b.state != bankActive {
			return 0, false, fmt.Errorf("hbm: %s to idle bank bg%d b%d", cmd.Kind, cmd.BG, cmd.Bank)
		}
		return maxi64(t, b.earliestCol(cmd.Kind)), broadcast, nil

	case CmdREF:
		for i := range p.banks {
			if p.banks[i].state == bankActive {
				return 0, false, fmt.Errorf("hbm: REF with bank %d active", i)
			}
			t = maxi64(t, p.banks[i].earliestACT())
		}
		return t, broadcast, nil
	}
	return 0, false, fmt.Errorf("hbm: unknown command kind %d", cmd.Kind)
}

// NextTimerExpiry returns the earliest cycle strictly after now at which
// any timing constraint of this pseudo channel expires — the soonest
// moment a command blocked purely on timing could become legal. It
// returns now itself when every constraint has already expired (the
// channel is quiescent and only new commands can change its state).
// Controllers use it to jump their clock across dead cycles; it scans the
// bank array (it is a sleep-time query, not an issue-time one).
func (p *PseudoChannel) NextTimerExpiry(now int64) int64 {
	const horizon = int64(1) << 62
	next := horizon
	consider := func(t int64) {
		if t > now && t < next {
			next = t
		}
	}
	consider(p.busyUntil)
	consider(p.colAllowedS)
	consider(p.wrAllowed)
	consider(p.rdAllowedS)
	consider(p.rrdAllowed)
	consider(p.rdFloorL)
	consider(p.actWindow.earliest(int64(p.cfg.Timing.FAW)))
	for bg := range p.colAllowedL {
		consider(p.colAllowedL[bg])
		consider(p.rdAllowedL[bg])
		consider(p.rrdAllowedL[bg])
	}
	for i := range p.banks {
		b := &p.banks[i]
		consider(b.actAllowed)
		consider(b.rdAllowed)
		consider(b.wrAllowed)
		if b.state == bankActive {
			consider(maxi64(b.preAllowed, p.preFloor))
		}
	}
	if next == horizon {
		return now
	}
	return next
}

// SetTimingCrossCheck arms (or disarms) the debug oracle: every legality
// verdict computed from the incremental aggregates is re-derived by the
// brute-force bank scan and any disagreement panics. Test-only — it makes
// every command O(banks) again.
func (p *PseudoChannel) SetTimingCrossCheck(on bool) { p.checkTiming = on }

// crossCheck compares one aggregate verdict against the brute-force
// oracle. It must run before apply mutates state. It takes the command by
// value so the hot entry points' stack copies do not escape through the
// (cold, test-only) panic formatting.
func (p *PseudoChannel) crossCheck(cmd Command, now, at int64, err error) {
	bat, _, berr := p.earliestBrute(&cmd, now)
	switch {
	case (err == nil) != (berr == nil),
		err == nil && at != bat,
		err != nil && berr != nil && err.Error() != berr.Error():
		panic(fmt.Sprintf("hbm: timing aggregate mismatch for %s at cycle %d: aggregates say (%d, %v), brute force says (%d, %v)",
			cmd, now, at, err, bat, berr))
	}
}

// isModeHandshake reports whether cmd is part of the single-bank
// mode-transition handshake (ACT/PRE/WR on the mode row of bank group 0,
// bank 0 or 1).
func (p *PseudoChannel) isModeHandshake(cmd *Command) bool {
	if p.cfg.PIMUnits == 0 {
		return false
	}
	if cmd.BG != 0 || (cmd.Bank != abmrBank && cmd.Bank != sbmrBank) {
		return false
	}
	modeRow := uint32(p.cfg.Rows) - 1 // ModeRow() without the Config copy
	switch cmd.Kind {
	case CmdACT:
		return cmd.Row == modeRow
	case CmdPRE, CmdRD, CmdWR:
		b := &p.banks[p.flat(cmd.BG, cmd.Bank)]
		return b.state == bankActive && b.openRow == modeRow
	}
	return false
}

// Issue executes cmd at cycle `at`. `at` must be at or after the cycle
// EarliestIssue reports; Issue re-validates and errors otherwise, so a
// controller bug cannot silently violate timing.
func (p *PseudoChannel) Issue(cmd Command, at int64) (IssueResult, error) {
	earliest, broadcast, err := p.earliest(&cmd, at)
	if p.checkTiming {
		p.crossCheck(cmd, at, earliest, err)
	}
	if err != nil {
		return IssueResult{}, err
	}
	if at < earliest {
		return IssueResult{}, fmt.Errorf("hbm: %s issued at %d before earliest legal cycle %d", cmd, at, earliest)
	}
	res := IssueResult{Cycle: at}
	err = p.apply(&cmd, at, broadcast, &res)
	return res, err
}

// IssueEarliest issues *cmd at the earliest legal cycle at or after now —
// EarliestIssue's computation and Issue's execution in a single
// validation pass, filling *res in place. Controllers with no delay hook
// between scheduling and issue use it; the chosen cycle comes back in
// res.Cycle. The pointer forms keep the per-command fast path free of
// Command/IssueResult struct copies through the controller layers.
func (p *PseudoChannel) IssueEarliest(cmd *Command, now int64, res *IssueResult) error {
	at, broadcast, err := p.earliest(cmd, now)
	if p.checkTiming {
		p.crossCheck(*cmd, now, at, err)
	}
	if err != nil {
		*res = IssueResult{}
		return err
	}
	*res = IssueResult{Cycle: at}
	return p.apply(cmd, at, broadcast, res)
}

// apply executes an already-validated command at cycle at, filling res
// (pre-set to {Cycle: at}) in place — an out parameter, so the hot
// command path returns no multi-word structs through its call chain.
func (p *PseudoChannel) apply(cmd *Command, at int64, broadcast bool, res *IssueResult) error {
	tm := &p.cfg.Timing

	switch cmd.Kind {
	case CmdACT:
		if broadcast {
			for i := range p.banks {
				p.banks[i].activate(cmd.Row, at, tm)
			}
			// Every bank took the same raises; fold them into the running
			// maxima once, and recompute aggPre exactly (previously idle
			// banks rejoin the active set; broadcast ACT is rare).
			p.activeBanks = len(p.banks)
			p.aggACT = maxi64(p.aggACT, at+int64(tm.RC))
			p.aggRD = maxi64(p.aggRD, at+int64(tm.RCD))
			p.aggWR = maxi64(p.aggWR, at+int64(tm.RCD))
			p.rescanAggPre()
			p.bcastOps.ACT++
			p.stats.ABACT++
			return nil
		}
		b := &p.banks[p.flat(cmd.BG, cmd.Bank)]
		b.activate(cmd.Row, at, tm)
		p.activeBanks++ // earliest rejected ACT to an open bank
		p.aggACT = maxi64(p.aggACT, b.actAllowed)
		p.aggRD = maxi64(p.aggRD, b.rdAllowed)
		p.aggWR = maxi64(p.aggWR, b.wrAllowed)
		// A re-activated bank's preAllowed (>= precharge+tRP+tRAS) always
		// clears preFloor (<= its precharge cycle), so no floor fold here.
		p.aggPre = maxi64(p.aggPre, b.preAllowed)
		if !p.isModeHandshake(cmd) {
			// Handshake ACTs address the mode row, not the array; they
			// would skew per-bank utilization counts.
			p.bankOps[p.flat(cmd.BG, cmd.Bank)].ACT++
		}
		p.actWindow.record(at)
		p.rrdAllowed = maxi64(p.rrdAllowed, at+int64(tm.RRDS))
		p.rrdAllowedL[cmd.BG] = maxi64(p.rrdAllowedL[cmd.BG], at+int64(tm.RRDL))
		p.stats.ACT++
		return nil

	case CmdPRE:
		if broadcast {
			p.prechargeAll(at, tm, false)
			p.stats.ABPRE++
			return nil
		}
		idx := p.flat(cmd.BG, cmd.Bank)
		wasHandshake := p.isModeHandshake(cmd)
		b := &p.banks[idx]
		eff := maxi64(b.preAllowed, p.preFloor)
		b.precharge(at, tm)
		p.aggACT = maxi64(p.aggACT, b.actAllowed)
		p.activeBanks--
		if p.activeBanks == 0 {
			p.aggPre, p.preDirty = 0, false
		} else if eff >= p.aggPre {
			// This bank may have held the active-set maximum; recompute
			// lazily at the next broadcast-PRE/PREA legality check.
			p.preDirty = true
		}
		p.stats.PRE++
		if wasHandshake {
			p.completeHandshake(cmd.Bank, at)
		}
		return nil

	case CmdPREA:
		p.prechargeAll(at, tm, true)
		return nil

	case CmdRD, CmdWR:
		p.updateColumnTiming(cmd, at, broadcast)
		if broadcast {
			return p.issueBroadcastColumn(cmd, res)
		}
		return p.issueSBColumn(cmd, res)

	case CmdREF:
		until := at + int64(tm.RFC)
		for i := range p.banks {
			p.banks[i].blockUntil(until)
		}
		// REF legality required every bank idle, so aggPre (active banks
		// only) is untouched; the all-bank maxima take the blockUntil raise.
		p.aggACT = maxi64(p.aggACT, until)
		p.aggRD = maxi64(p.aggRD, until)
		p.aggWR = maxi64(p.aggWR, until)
		p.busyUntil = maxi64(p.busyUntil, until)
		p.stats.REF++
		return nil
	}
	return fmt.Errorf("hbm: unknown command kind %d", cmd.Kind)
}

// prechargeAll closes every active bank (broadcast PRE and PREA) and
// resets the active-set aggregates. countEach selects PREA's per-bank
// stats.PRE accounting over broadcast PRE's single ABPRE (counted by the
// caller).
func (p *PseudoChannel) prechargeAll(at int64, tm *Timing, countEach bool) {
	if p.activeBanks > 0 {
		for i := range p.banks {
			if p.banks[i].state == bankActive {
				p.banks[i].precharge(at, tm)
				if countEach {
					p.stats.PRE++
				}
			}
		}
		p.aggACT = maxi64(p.aggACT, at+int64(tm.RP))
		p.activeBanks = 0
	}
	p.aggPre, p.preDirty = 0, false
}

// updateColumnTiming applies bus occupancy and turnaround bookkeeping for
// a column command issued at cycle at.
func (p *PseudoChannel) updateColumnTiming(cmd *Command, at int64, broadcast bool) {
	tm := &p.cfg.Timing
	p.colAllowedS = maxi64(p.colAllowedS, at+int64(tm.CCDS))
	if broadcast {
		// All bank groups are occupied; the next column command of any kind
		// waits tCCD_L. The raise is identical for every group, so it is
		// stored once in colAllowedS (which every column case takes)
		// instead of written into each colAllowedL slot.
		p.colAllowedS = maxi64(p.colAllowedS, at+int64(tm.CCDL))
	} else {
		v := at + int64(tm.CCDL)
		p.colAllowedL[cmd.BG] = maxi64(p.colAllowedL[cmd.BG], v)
		p.aggColL = maxi64(p.aggColL, v)
	}
	if cmd.Kind == CmdRD {
		p.wrAllowed = maxi64(p.wrAllowed, at+int64(tm.RTW))
	} else {
		dataEnd := at + int64(tm.WL+tm.BL/2)
		p.rdAllowedS = maxi64(p.rdAllowedS, dataEnd+int64(tm.WTRS))
		if broadcast {
			// Same-group turnaround for every group: one floor write.
			p.rdFloorL = maxi64(p.rdFloorL, dataEnd+int64(tm.WTRL))
		} else {
			v := dataEnd + int64(tm.WTRL)
			p.rdAllowedL[cmd.BG] = maxi64(p.rdAllowedL[cmd.BG], v)
			p.aggRdL = maxi64(p.aggRdL, v)
		}
	}
}

// issueSBColumn performs a single-bank column access: either a normal data
// access through the I/O PHY or a PIM register access when the open row is
// in the configuration space.
func (p *PseudoChannel) issueSBColumn(cmd *Command, res *IssueResult) error {
	idx := p.flat(cmd.BG, cmd.Bank)
	b := &p.banks[idx]
	b.column(cmd.Kind, res.Cycle, &p.cfg.Timing)
	p.aggPre = maxi64(p.aggPre, b.preAllowed) // bank is active (legality)
	p.stats.OffChipBytes += int64(p.cfg.AccessBytes)
	if cmd.Kind == CmdRD {
		p.stats.RD++
		p.bankOps[idx].RD++
	} else {
		p.stats.WR++
		p.bankOps[idx].WR++
	}

	if space, ok := p.cfg.confSpace(b.openRow); ok {
		p.oneBank[0] = idx
		return p.registerAccess(cmd, res, space, p.oneBank[:])
	}

	// Normal array access.
	if cmd.Kind == CmdRD {
		p.stats.BankReads++
		if p.cfg.Functional {
			if err := p.bankReadData(b, idx, cmd.Col, p.colBuf); err != nil {
				return err
			}
			res.Data = p.colBuf
		}
		return nil
	}
	p.stats.BankWrites++
	if p.cfg.Functional {
		if err := p.bankWriteData(b, cmd.Col, cmd.Data); err != nil {
			return err
		}
	}
	return nil
}

// issueBroadcastColumn performs an AB or AB-PIM column access.
func (p *PseudoChannel) issueBroadcastColumn(cmd *Command, res *IssueResult) error {
	openRow := p.banks[0].openRow
	// Every bank takes the same precharge fence; it is stored once in the
	// channel-level preFloor (folded into every preAllowed read) instead
	// of written into all 16 banks — the hottest block of the timing-only
	// profile before the aggregate refactor.
	tm := &p.cfg.Timing
	var pre int64
	if cmd.Kind == CmdRD {
		pre = res.Cycle + int64(tm.RTP)
		p.bcastOps.RD++
		p.stats.ABRD++
	} else {
		pre = res.Cycle + int64(tm.WL+tm.BL/2+tm.WR)
		p.bcastOps.WR++
		p.stats.ABWR++
	}
	if pre > p.preFloor {
		p.preFloor = pre
	}
	if pre > p.aggPre { // all banks active: the fence joins the active max
		p.aggPre = pre
	}

	// Register space: broadcast to every PIM unit.
	if space, ok := p.cfg.confSpace(openRow); ok {
		return p.registerAccess(cmd, res, space, p.allBanks)
	}

	if p.mode == ModeABPIM {
		if p.exec == nil {
			return fmt.Errorf("hbm: AB-PIM column with no PIM executor attached")
		}
		// The reusable context's Access was filled at construction.
		p.trig.Kind = cmd.Kind
		p.trig.BankSel = cmd.Bank & 1
		p.trig.Row = openRow
		p.trig.Col = cmd.Col
		p.trig.WrData = cmd.Data
		p.trig.Cycle = res.Cycle
		info, err := p.exec.Trigger(&p.trig)
		if err != nil {
			return err
		}
		if cmd.Kind == CmdWR {
			// A WR trigger still carries a 32-byte payload across the I/O
			// PHY (operand loading); an RD trigger moves nothing off chip.
			p.stats.OffChipBytes += int64(p.cfg.AccessBytes)
		}
		p.stats.PIMInstr += int64(info.Instructions)
		p.stats.PIMArith += int64(info.Arithmetic)
		p.stats.PIMMove += int64(info.DataMoves)
		return nil
	}

	// Plain AB data access: a write broadcasts the payload to all banks
	// (how operands are replicated across banks); a read drives every
	// bank's IOSA but only bank 0's data reaches the I/O mux.
	p.stats.OffChipBytes += int64(p.cfg.AccessBytes)
	if cmd.Kind == CmdWR {
		p.stats.BankWrites += int64(len(p.banks))
		if p.cfg.Functional {
			for i := range p.banks {
				if err := p.bankWriteData(&p.banks[i], cmd.Col, cmd.Data); err != nil {
					return err
				}
			}
		}
		return nil
	}
	p.stats.BankReads += int64(len(p.banks))
	if p.cfg.Functional {
		if err := p.bankReadData(&p.banks[0], 0, cmd.Col, p.colBuf); err != nil {
			return err
		}
		res.Data = p.colBuf
	}
	return nil
}

// registerAccess routes a column command on a configuration row.
func (p *PseudoChannel) registerAccess(cmd *Command, res *IssueResult, space RegSpace, bankIdxs []int) error {
	if space == RegMode {
		if cmd.Kind == CmdWR && cmd.Col == ColPIMOpMode {
			return p.setPIMOpMode(len(cmd.Data) > 0 && cmd.Data[0]&1 == 1, res.Cycle)
		}
		// Other mode-row accesses read back zero / are ignored.
		if cmd.Kind == CmdRD && p.cfg.Functional {
			clear(p.colBuf)
			res.Data = p.colBuf
		}
		return nil
	}
	if p.cfg.PIMUnits == 0 || p.exec == nil {
		return fmt.Errorf("hbm: PIM register access on a device without PIM units")
	}
	var seen uint64 // unit-visited bitmask; PIMUnits <= Banks <= 64
	for _, idx := range bankIdxs {
		u := p.unitFor(idx)
		if seen&(1<<u) != 0 {
			continue
		}
		seen |= 1 << u
		switch cmd.Kind {
		case CmdWR:
			p.stats.RegWrites++
			if err := p.exec.RegisterWrite(u, space, cmd.Col, cmd.Data); err != nil {
				return err
			}
		case CmdRD:
			// Every unit drives its read, but only the first one's data
			// reaches the I/O mux; later units land in discard scratch.
			buf := p.colBuf
			if res.Data != nil {
				buf = p.regBuf
			}
			if err := p.exec.RegisterRead(u, space, cmd.Col, buf); err != nil {
				return err
			}
			if res.Data == nil {
				res.Data = buf
			}
		}
	}
	return nil
}

// setPIMOpMode handles the PIM_OP_MODE register (Fig. 3c).
func (p *PseudoChannel) setPIMOpMode(on bool, at int64) error {
	switch {
	case p.mode == ModeSB:
		return fmt.Errorf("hbm: PIM_OP_MODE write in SB mode; enter AB mode first")
	case on && p.mode == ModeAB:
		if p.cfg.PIMUnits == 0 {
			return fmt.Errorf("hbm: AB-PIM mode on a device without PIM units")
		}
		if p.exec == nil {
			return fmt.Errorf("hbm: AB-PIM mode with no PIM executor attached")
		}
		p.switchMode(ModeABPIM, at)
		p.exec.ResetPPC()
	case !on && p.mode == ModeABPIM:
		p.switchMode(ModeAB, at)
	}
	return nil
}

// completeHandshake finishes an ACT+PRE mode-transition sequence.
func (p *PseudoChannel) completeHandshake(bankAddr int, at int64) {
	switch {
	case bankAddr == abmrBank && p.mode == ModeSB:
		p.switchMode(ModeAB, at)
	case bankAddr == sbmrBank && p.mode != ModeSB:
		p.switchMode(ModeSB, at)
	}
}

// pchBankAccess adapts the pseudo channel to the BankAccess interface with
// stat accounting for PIM-side row-buffer traffic.
type pchBankAccess PseudoChannel

func (a *pchBankAccess) ReadBank(bankIdx int, col uint32, buf []byte) error {
	p := (*PseudoChannel)(a)
	if bankIdx < 0 || bankIdx >= len(p.banks) {
		return fmt.Errorf("hbm: bank index %d out of range", bankIdx)
	}
	b := &p.banks[bankIdx]
	if b.state != bankActive {
		return fmt.Errorf("hbm: PIM read from idle bank %d", bankIdx)
	}
	p.stats.BankReads++
	if p.cfg.Functional {
		return p.bankReadData(b, bankIdx, col, buf)
	}
	return nil
}

func (a *pchBankAccess) ReplicateBankAccess(reads, writes, times int64) {
	p := (*PseudoChannel)(a)
	p.stats.BankReads += reads * times
	p.stats.BankWrites += writes * times
}

func (a *pchBankAccess) WriteBank(bankIdx int, col uint32, data []byte) error {
	p := (*PseudoChannel)(a)
	if bankIdx < 0 || bankIdx >= len(p.banks) {
		return fmt.Errorf("hbm: bank index %d out of range", bankIdx)
	}
	b := &p.banks[bankIdx]
	if b.state != bankActive {
		return fmt.Errorf("hbm: PIM write to idle bank %d", bankIdx)
	}
	p.stats.BankWrites++
	if p.cfg.Functional {
		return p.bankWriteData(b, col, data)
	}
	return nil
}
