package hbm

import (
	"fmt"
	"math"
)

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
// currently open row of the addressed bank; banks are flat indices,
// bg*BanksPerGroup+bank.
type BankAccess interface {
	// ReadBanks is the bank operand of cols triggers at consecutive
	// columns: the 32-byte blocks at the open row's columns col..col+cols-1
	// of the n banks first, first+stride, ..., one per PIM unit, read
	// trigger-major: every unit's block of column col in unit order, then
	// of col+1. Each block is read as a lone read would be, in that order:
	// the bank's index and idle checks, BankReads counted, then
	// (functional devices) the fault injector with that count as its
	// sequence number, then the ECC decode and scrub. views[c*n+i] becomes
	// unit i's burst of column col+c, read-only and valid until the
	// trigger run returns: a window onto the open row when no fault
	// injector is attached and ECC is off, otherwise the matching 32 bytes
	// of scratch, the readout copy the injector corrupted or the engine
	// corrected (so a corruption never reaches the cells). A timing-only
	// device moves no data and leaves views alone. read is the number of
	// blocks read; an error is block read's (column col+read/n, unit
	// read%n), and the blocks after it are not touched.
	ReadBanks(first, stride, n int, col uint32, cols int, scratch []byte, views [][]byte) (read int, err error)
	// WriteBank stores data at the open row's column col of bank bankIdx.
	WriteBank(bankIdx int, col uint32, data []byte) error
	// ReplicateBankAccess accounts `times` copies of an access pattern of
	// `reads` bank reads and `writes` bank writes without moving data: it
	// bumps the counters ReadBanks/WriteBank would have. On a timing-only
	// device that is all an access is, and every PIM unit of a channel
	// makes the same ones (broadcast column commands require all banks
	// active), so the executor accounts its units' traffic in one call.
	ReplicateBankAccess(reads, writes, times int64)
}

// TriggerContext describes a run of AB-PIM column commands to the
// executor: N commands of one kind on one bank set at consecutive columns
// Col, Col+1, ..., command i issued at cycle First + i*Stride and, for a
// WR, carrying WrData[i] on the write datapath.
type TriggerContext struct {
	Kind    CmdKind // CmdRD or CmdWR
	BankSel int     // 0: even banks of each pair, 1: odd banks
	Row     uint32  // the open row (implicit operand row address)
	Col     uint32  // the first command's column address
	N       int     // commands in the run
	WrData  [][]byte
	First   int64 // issue cycle of the first command (observability)
	Stride  int64 // cycles from one command to the next
	Access  BankAccess
}

// Cycle returns the issue cycle of command i.
func (c *TriggerContext) Cycle(i int) int64 { return c.First + int64(i)*c.Stride }

// Payload returns the host payload command i carries on the write
// datapath: nil for a RD, or a WR without one.
func (c *TriggerContext) Payload(i int) []byte {
	if c.WrData == nil {
		return nil
	}
	return c.WrData[i]
}

// TriggerInfo reports what the executor did for a run of triggers.
type TriggerInfo struct {
	Triggers     int // commands of the run retired, from the first
	Instructions int // instructions they executed across all units
	Arithmetic   int // of which arithmetic (FPU active)
	DataMoves    int // of which MOV/FILL (register datapath active)
}

// PIMExecutor is the execution layer attached to a pseudo channel. The pim
// package provides the implementation; the hbm package only defines the
// contract so the device model stays independent of the datapath.
type PIMExecutor interface {
	// RegisterWrite stores data[c], a 32-byte block, at column col+c of
	// the register space of units first..first+n-1: column by column, each
	// column into the n units in order, as len(data) column commands that
	// broadcast to the n units (or address the one) issued one at a time
	// would. It returns how many blocks it stored; an error is block
	// written's (column col+written/n, unit first+written%n), and the
	// blocks after it are not stored.
	RegisterWrite(first, n int, space RegSpace, col uint32, data [][]byte) (written int, err error)
	// RegisterRead loads columns col..col+len(bufs)-1 of the register space
	// of units first..first+n-1 in the same order. Every unit drives its
	// read, but only unit first's block of column col+c reaches the I/O
	// mux, bufs[c]. It returns how many blocks it read; an error is block
	// read's, as for RegisterWrite.
	RegisterRead(first, n int, space RegSpace, col uint32, bufs [][]byte) (read int, err error)
	// Trigger executes a run of AB-PIM column commands, each of which
	// advances every unit in lock step by one command slot, in order. It
	// reports the commands retired and what they executed; an error is
	// command Triggers' (the info does not include it), and the commands
	// after it were never issued. The context is only valid for the
	// duration of the call (the device reuses it).
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
	// only need updating at the handful of raise sites. The tests keep the
	// scan as an oracle and compare its verdicts with these.
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

	// Reusable scratch so column runs allocate nothing. runBuf holds one
	// burst per column of a row (cut on first need): a RD run's data lands
	// in the slots of its columns, so the bursts runViews (Run.Data) points
	// at stay apart across the runs a refresh splits a controller's run
	// into. runData is the channel's copy of a WR run's payload list, so
	// the caller's list never escapes through the executor interface.
	runBuf   []byte
	runViews [][]byte
	runData  [][]byte

	// trig is the reusable trigger-run context handed to the PIM executor
	// (by pointer, so the per-run path copies no structs). Its constant
	// field (Access) is filled once.
	trig TriggerContext

	pimReady bool // the trigger path's proof (prove)

	// Limits and ratios precomputed off Config so the per-command addrCheck
	// and the per-unit register routing (unitFor) perform no division on,
	// and make no copy of, the Config: RowBytes/AccessBytes, BanksPerUnit.
	numRows      uint32
	numCols      uint32
	banksPerUnit int // 0 on a device without PIM units, which routes no register access
	// colStride is the issue distance of consecutive column commands of a
	// run, max(1, tCCD_S, tCCD_L): see IssueRun.
	colStride int64
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
	}
	p.trig.Access = (*pchBankAccess)(p)
	p.numRows = uint32(cfg.Rows)
	p.numCols = uint32(cfg.RowBytes / cfg.AccessBytes)
	if cfg.PIMUnits > 0 {
		p.banksPerUnit = cfg.BanksPerUnit()
	}
	p.colStride = int64(max(1, cfg.Timing.CCDS, cfg.Timing.CCDL))
	// Seed the four-activate window in the distant past so the first four
	// ACTs are unconstrained.
	for i := range p.actWindow.times {
		p.actWindow.times[i] = -(1 << 40)
	}
	return p
}

// AttachPIM connects the execution layer. It must be called before any
// AB-PIM activity on a PIM-enabled configuration.
func (p *PseudoChannel) AttachPIM(e PIMExecutor) { p.exec = e; p.prove() }

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
	p.prove()
}

// prove renews pimReady after every row command, mode switch and
// executor attach: AB-PIM mode, an executor, every bank active, bank 0 on
// an array row and the SBMR bank not on the mode row. A column command to
// bank 0 or 1 of group 0 is then a broadcast trigger on an array row.
func (p *PseudoChannel) prove() {
	_, conf := p.cfg.confSpace(p.banks[0].openRow)
	p.pimReady = p.mode == ModeABPIM && p.exec != nil && p.activeBanks == len(p.banks) &&
		!conf && p.cfg.BanksPerGroup > sbmrBank && p.banks[sbmrBank].openRow != p.numRows-1
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
		if broadcast {
			if p.activeBanks != len(p.banks) {
				// Error path only: rescan to name the first idle bank.
				for i := range p.banks {
					if p.banks[i].state != bankActive {
						return 0, false, fmt.Errorf("hbm: broadcast %s with bank %d idle", cmd.Kind, i)
					}
				}
			}
			return p.broadcastColumnAt(cmd.Kind, t), broadcast, nil
		}
		t = maxi64(t, p.colAllowedS)
		if cmd.Kind == CmdWR {
			t = maxi64(t, p.wrAllowed)
		} else {
			t = maxi64(t, p.rdAllowedS)
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

// broadcastColumnAt returns the earliest cycle at or after t of a
// broadcast column command of kind, every bank active: the channel's and
// every bank's column timers, read from their running maxima.
func (p *PseudoChannel) broadcastColumnAt(kind CmdKind, t int64) int64 {
	t = maxi64(t, maxi64(p.colAllowedS, p.aggColL))
	if kind == CmdRD {
		return maxi64(t, maxi64(maxi64(p.rdAllowedS, p.aggRD), maxi64(p.aggRdL, p.rdFloorL)))
	}
	return maxi64(t, maxi64(p.wrAllowed, p.aggWR))
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

// IssueRun issues up to n commands like *cmd: the one entry through which
// every command reaches the pseudo channel. A row command (ACT, PRE, PREA)
// or a REF is a run of one, and a longer run of one is refused before it
// touches any state; n <= 0 issues nothing. The first command issues at
// its earliest legal cycle at or after now: now is a floor, so a caller
// that wants a command later than the earliest cycle (a controller's
// delay hook, a trace replayed at its own cycles) passes the later cycle.
//
// A run of column commands (the commands of an AAM window of PIM
// triggers, of a register-file load or unload, or of one bank row) issues
// at consecutive columns cmd.Col, cmd.Col+1, ..., command i carrying
// data[i] (nil data: no payloads; cmd.Data is not read). Command i issues
// at First + i*Stride with Stride = max(1, tCCD_S, tCCD_L): exactly the
// cycles of n runs of one, each from the previous command's cycle plus one
// (the command bus carries one command a cycle), because a run of one kind
// raises only the timers it reads by its own cycle plus a constant no
// larger than the stride (a RD moves wrAllowed, a WR rdAllowedS,
// rdAllowedL and rdFloorL, and neither reads what it moves). What the
// commands do is done once for the run: a run of triggers reaches the
// executor in one Trigger call, a register-space run in one RegisterWrite
// or RegisterRead call over every unit it addresses, and the column
// timing, the precharge fence and every counter are booked once, with the
// last command's cycle.
//
// A column run stops before a command whose bus cycle would reach stop (a
// refresh deadline the controller must service first; the first command
// always issues), and after a write to the PIM_OP_MODE column (the mode it
// sets governs what follows); a command past the last column of the row
// is an address error. A command whose data step fails has issued: its
// timing and counts stand, and the commands after it never issue. The run
// fills *run with the commands that issued and, for a RD run that returns
// data, the burst each returned; an error is the command's after them.
// While prove's proof stands, a column run on bank 0 or 1 of group 0 that
// ends inside the row skips earliest's and columnRun's checks and goes
// straight to the broadcast trigger path.
func (p *PseudoChannel) IssueRun(cmd *Command, n int, data [][]byte, now, stop int64, run *Run) error {
	*run = Run{Stride: p.colStride}
	if n <= 0 {
		return nil
	}
	column := cmd.Kind.IsColumn()
	if p.pimReady && column && cmd.BG == 0 && uint(cmd.Bank) <= sbmrBank && cmd.Col < p.numCols && n <= int(p.numCols-cmd.Col) {
		run.First = p.broadcastColumnAt(cmd.Kind, maxi64(now, p.busyUntil))
		var err error
		run.N, err = p.triggerRun(cmd, p.cut(n, run.First, stop), data, run.First)
		return err
	}
	if !column && n > 1 {
		return fmt.Errorf("hbm: %s issues alone, not as a run of %d", cmd.Kind, n)
	}
	first, broadcast, err := p.earliest(cmd, now)
	if err != nil {
		return err
	}
	if !column {
		p.apply(cmd, first, broadcast)
		p.prove()
		run.First, run.N = first, 1
		return nil
	}
	p.runViews = p.runViews[:0]
	err = p.columnRun(cmd, n, data, first, broadcast, stop, run)
	run.Data = p.runViews
	return err
}

// IssueEarliest issues *cmd alone, a WR carrying cmd.Data, at its earliest
// legal cycle at or after now: IssueRun's run of one, filling *res in
// place with the cycle and a RD's burst.
func (p *PseudoChannel) IssueEarliest(cmd *Command, now int64, res *IssueResult) error {
	one := [1][]byte{cmd.Data}
	data := one[:]
	if cmd.Data == nil {
		data = nil
	}
	var run Run
	err := p.IssueRun(cmd, 1, data, now, math.MaxInt64, &run)
	*res = IssueResult{Cycle: run.First}
	if len(run.Data) > 0 {
		res.Data = run.Data[0]
	}
	return err
}

// apply executes a row command or a REF that earliest found legal at
// cycle at (broadcast is its verdict).
func (p *PseudoChannel) apply(cmd *Command, at int64, broadcast bool) {
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
			return
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

	case CmdPRE:
		if broadcast {
			p.prechargeAll(at, tm, false)
			p.stats.ABPRE++
			return
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

	case CmdPREA:
		p.prechargeAll(at, tm, true)

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
	}
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
// a column command of kind on bank group bg issued at cycle at.
func (p *PseudoChannel) updateColumnTiming(kind CmdKind, bg int, at int64, broadcast bool) {
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
		p.colAllowedL[bg] = maxi64(p.colAllowedL[bg], v)
		p.aggColL = maxi64(p.aggColL, v)
	}
	if kind == CmdRD {
		p.wrAllowed = maxi64(p.wrAllowed, at+int64(tm.RTW))
	} else {
		dataEnd := at + int64(tm.WL+tm.BL/2)
		p.rdAllowedS = maxi64(p.rdAllowedS, dataEnd+int64(tm.WTRS))
		if broadcast {
			// Same-group turnaround for every group: one floor write.
			p.rdFloorL = maxi64(p.rdFloorL, dataEnd+int64(tm.WTRL))
		} else {
			v := dataEnd + int64(tm.WTRL)
			p.rdAllowedL[bg] = maxi64(p.rdAllowedL[bg], v)
			p.aggRdL = maxi64(p.aggRdL, v)
		}
	}
}

// columnRun issues up to n column commands like *cmd at consecutive
// columns, the first at cycle first, which earliest found legal
// (broadcast is its verdict), as IssueRun describes. A RD run's data is
// appended to runViews.
func (p *PseudoChannel) columnRun(cmd *Command, n int, data [][]byte, first int64, broadcast bool, stop int64, run *Run) error {
	*run = Run{First: first, Stride: p.colStride}
	// past is where the run reaches an address error, the row's end,
	// before stop (earliest checked cmd.Col).
	k, past := p.cut(n, first, stop), -1
	if legal := int(p.numCols - cmd.Col); k > legal {
		k, past = legal, legal
	}
	idx := 0 // the addressed bank; a broadcast's row is bank 0's
	if !broadcast {
		idx = p.flat(cmd.BG, cmd.Bank)
	}
	space, conf := p.cfg.confSpace(p.banks[idx].openRow)
	if conf && space == RegMode && cmd.Kind == CmdWR && cmd.Col <= ColPIMOpMode && int(ColPIMOpMode-cmd.Col) < k {
		k, past = int(ColPIMOpMode-cmd.Col)+1, -1
	}

	var done int
	var err error
	switch { // SB and plain AB bursts cross the I/O PHY
	case conf:
		done, err = p.registerRun(cmd, space, broadcast, idx, k, data, first)
		p.bookRun(cmd, idx, broadcast, first, done, err, !broadcast)
	case broadcast && p.mode == ModeABPIM:
		done, err = p.triggerRun(cmd, k, data, first)
	case broadcast:
		done, err = p.broadcastRun(cmd, k, data)
		p.bookRun(cmd, idx, broadcast, first, done, err, true)
	default:
		done, err = p.bankRun(cmd, idx, k, data)
		p.bookRun(cmd, idx, broadcast, first, done, err, true)
	}
	run.N = done
	if err == nil && done == past {
		next := Command{Kind: cmd.Kind, BG: cmd.BG, Bank: cmd.Bank, Col: cmd.Col + uint32(past)}
		err = p.cfg.addrCheck(&next)
	}
	return err
}

// cut returns how many of n column commands, the first at cycle first,
// issue before stop: command i > 0 has bus cycle first + (i-1)*stride + 1,
// which must come before stop, and the first always issues.
func (p *PseudoChannel) cut(n int, first, stop int64) int {
	room := stop - first - 1
	if room <= 0 {
		return 1
	}
	if int64(n-2)*p.colStride >= room {
		return 2 + int((room-1)/p.colStride)
	}
	return n
}

// bookRun books a column run's commands from cycle first: the done that
// completed and the failing one after an error (its timing and counts
// stand), with their bursts across the I/O PHY when offChip. The bus
// occupancy and turnarounds (updateColumnTiming), the precharge fence and
// the counts are booked once, with the last command's cycle: every timer
// a column command raises it raises to its own cycle plus a constant, so
// the last command's raises cover the others'.
func (p *PseudoChannel) bookRun(cmd *Command, idx int, broadcast bool, first int64, done int, err error, offChip bool) {
	issued := int64(done)
	if err != nil {
		issued++
	}
	if issued == 0 {
		return
	}
	if offChip {
		p.stats.OffChipBytes += issued * int64(p.cfg.AccessBytes)
	}
	last := first + (issued-1)*p.colStride
	p.updateColumnTiming(cmd.Kind, cmd.BG, last, broadcast)
	if broadcast {
		p.broadcastColumn(cmd.Kind, last, issued)
		return
	}
	b := &p.banks[idx]
	b.column(cmd.Kind, last, &p.cfg.Timing)
	p.aggPre = maxi64(p.aggPre, b.preAllowed) // bank is active (legality)
	if cmd.Kind == CmdRD {
		p.stats.RD += issued
		p.bankOps[idx].RD += issued
	} else {
		p.stats.WR += issued
		p.bankOps[idx].WR += issued
	}
}

// broadcastColumn books issued AB or AB-PIM column commands, the last at
// cycle last, after their column timing: every bank takes the same
// precharge fence, stored once in the channel-level preFloor (folded into
// every preAllowed read) instead of written into all 16 banks.
func (p *PseudoChannel) broadcastColumn(kind CmdKind, last, issued int64) {
	tm := &p.cfg.Timing
	var pre int64
	if kind == CmdRD {
		pre = last + int64(tm.RTP)
		p.bcastOps.RD += issued
		p.stats.ABRD += issued
	} else {
		pre = last + int64(tm.WL+tm.BL/2+tm.WR)
		p.bcastOps.WR += issued
		p.stats.ABWR += issued
	}
	if pre > p.preFloor {
		p.preFloor = pre
	}
	if pre > p.aggPre { // all banks active: the fence joins the active max
		p.aggPre = pre
	}
}

// slot returns the run buffer's burst for column col, cutting the buffer
// and runViews on first need: most channels of a timing-only system never
// read data.
func (p *PseudoChannel) slot(col uint32) []byte {
	if p.runBuf == nil {
		p.runBuf = make([]byte, p.cfg.RowBytes)
		p.runViews = make([][]byte, 0, p.numCols)
	}
	size := p.cfg.AccessBytes
	off := int(col) * size
	return p.runBuf[off : off+size : off+size]
}

// payloads returns the channel's copy of the first k entries of a WR
// run's payload list, nil entries for a run without payloads.
func (p *PseudoChannel) payloads(data [][]byte, k int) [][]byte {
	if cap(p.runData) < k {
		p.runData = make([][]byte, 0, max(k, int(p.numCols)))
	}
	if data == nil {
		p.runData = append(p.runData[:0], make([][]byte, k)...)
	} else {
		p.runData = append(p.runData[:0], data[:k]...)
	}
	return p.runData
}

// payload returns command i's payload, nil for a run without payloads.
func payload(data [][]byte, i int) []byte {
	if data == nil {
		return nil
	}
	return data[i]
}

// triggerRun is the one AB-PIM broadcast trigger path, columnRun's and
// IssueRun's proven one: it hands k PIM triggers, the first at cycle
// first, to the executor in one call, counts what it retired and books
// the commands that issued. It returns how many retired; an error is the
// command's after them.
func (p *PseudoChannel) triggerRun(cmd *Command, k int, data [][]byte, first int64) (int, error) {
	if p.exec == nil {
		err := fmt.Errorf("hbm: AB-PIM column with no PIM executor attached")
		p.bookRun(cmd, 0, true, first, 0, err, false)
		return 0, err
	}
	// The reusable context's Access was filled at construction.
	tc := &p.trig
	tc.Kind, tc.BankSel, tc.Row, tc.Col, tc.N = cmd.Kind, cmd.Bank&1, p.banks[0].openRow, cmd.Col, k
	tc.First, tc.Stride = first, p.colStride
	if data != nil {
		tc.WrData = p.payloads(data, k)
	}
	info, err := p.exec.Trigger(tc)
	tc.WrData = nil
	if cmd.Kind == CmdWR {
		// A WR trigger still carries a 32-byte payload across the I/O PHY
		// (operand loading); an RD trigger moves nothing off chip.
		p.stats.OffChipBytes += int64(info.Triggers * p.cfg.AccessBytes)
	}
	p.stats.PIMInstr += int64(info.Instructions)
	p.stats.PIMArith += int64(info.Arithmetic)
	p.stats.PIMMove += int64(info.DataMoves)
	p.bookRun(cmd, 0, true, first, info.Triggers, err, false)
	return info.Triggers, err
}

// registerRun is the data of k column commands on a configuration row:
// the mode row's PIM_OP_MODE register, or the register files of every
// unit (broadcast) or of bank idx's unit. It returns how many commands
// completed; an error is the command's after them.
func (p *PseudoChannel) registerRun(cmd *Command, space RegSpace, broadcast bool, idx, k int, data [][]byte, first int64) (int, error) {
	if space == RegMode {
		for i := 0; i < k; i++ {
			col := cmd.Col + uint32(i)
			switch {
			case cmd.Kind == CmdWR && col == ColPIMOpMode:
				d := payload(data, i)
				if err := p.setPIMOpMode(len(d) > 0 && d[0]&1 == 1, first+int64(i)*p.colStride); err != nil {
					return i, err
				}
			case cmd.Kind == CmdRD && p.cfg.Functional:
				// Other mode-row accesses read back zero / are ignored.
				buf := p.slot(col)
				clear(buf)
				p.runViews = append(p.runViews, buf)
			}
		}
		return k, nil
	}
	if p.cfg.PIMUnits == 0 || p.exec == nil {
		return 0, fmt.Errorf("hbm: PIM register access on a device without PIM units")
	}
	unit, units := 0, p.cfg.PIMUnits
	if !broadcast {
		unit, units = p.unitFor(idx), 1
	}
	if cmd.Kind == CmdWR {
		wrote, err := p.exec.RegisterWrite(unit, units, space, cmd.Col, p.payloads(data, k))
		p.stats.RegWrites += int64(wrote)
		if err != nil {
			p.stats.RegWrites++ // the refused write was counted before it was refused
		}
		return wrote / units, err
	}
	start := len(p.runViews)
	for i := 0; i < k; i++ {
		v := p.slot(cmd.Col + uint32(i)) // may cut runViews
		p.runViews = append(p.runViews, v)
	}
	read, err := p.exec.RegisterRead(unit, units, space, cmd.Col, p.runViews[start:])
	p.runViews = p.runViews[:start+read/units]
	return read / units, err
}

// broadcastRun is the data of k plain AB column commands: a write
// broadcasts its payload to all banks (how operands are replicated across
// banks); a read drives every bank's IOSA but only bank 0's data reaches
// the I/O mux.
func (p *PseudoChannel) broadcastRun(cmd *Command, k int, data [][]byte) (int, error) {
	banks := int64(len(p.banks))
	if !p.cfg.Functional {
		if cmd.Kind == CmdWR {
			p.stats.BankWrites += banks * int64(k)
		} else {
			p.stats.BankReads += banks * int64(k)
		}
		return k, nil
	}
	for i := 0; i < k; i++ {
		col := cmd.Col + uint32(i)
		if cmd.Kind == CmdWR {
			p.stats.BankWrites += banks
			for j := range p.banks {
				b := &p.banks[j]
				if err := p.writeBlock(b, b.row(b.openRow, p.cfg.RowBytes), col, payload(data, i)); err != nil {
					return i, err
				}
			}
			continue
		}
		p.stats.BankReads += banks
		b, buf := &p.banks[0], p.slot(col)
		if err := p.readBlock(b, 0, b.row(b.openRow, p.cfg.RowBytes), col, buf); err != nil {
			return i, err
		}
		p.runViews = append(p.runViews, buf)
	}
	return k, nil
}

// bankRun is the data of k single-bank column commands to bank idx's
// open array row, looked up once for the run.
func (p *PseudoChannel) bankRun(cmd *Command, idx, k int, data [][]byte) (int, error) {
	if !p.cfg.Functional {
		if cmd.Kind == CmdWR {
			p.stats.BankWrites += int64(k)
		} else {
			p.stats.BankReads += int64(k)
		}
		return k, nil
	}
	b := &p.banks[idx]
	row := b.row(b.openRow, p.cfg.RowBytes)
	for i := 0; i < k; i++ {
		col := cmd.Col + uint32(i)
		if cmd.Kind == CmdWR {
			p.stats.BankWrites++
			if err := p.writeBlock(b, row, col, payload(data, i)); err != nil {
				return i, err
			}
			continue
		}
		// The count comes first: the fault injector takes it as the
		// read's sequence number.
		p.stats.BankReads++
		buf := p.slot(col)
		if err := p.readBlock(b, idx, row, col, buf); err != nil {
			return i, err
		}
		p.runViews = append(p.runViews, buf)
	}
	return k, nil
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

func (a *pchBankAccess) ReadBanks(first, stride, n int, col uint32, cols int, scratch []byte, views [][]byte) (int, error) {
	p := (*PseudoChannel)(a)
	size := p.cfg.AccessBytes
	if p.fault == nil && !p.cfg.ECC || !p.cfg.Functional {
		// Nothing to check, corrupt or copy: a read is its checks and its
		// count, which are those of the first column for every column, and
		// the view is the row itself.
		for i := 0; i < n; i++ {
			if err := p.pimReadable(first + i*stride); err != nil {
				p.stats.BankReads += int64(i)
				if p.cfg.Functional {
					p.rowViews(first, stride, i, col, 1, views)
				}
				return i, err
			}
		}
		p.stats.BankReads += int64(n * cols)
		if p.cfg.Functional {
			p.rowViews(first, stride, n, col, cols, views)
		}
		return n * cols, nil
	}
	for c := 0; c < cols; c++ {
		for i := 0; i < n; i++ {
			idx, k := first+i*stride, c*n+i
			if err := p.pimReadable(idx); err != nil {
				return k, err
			}
			p.stats.BankReads++
			buf := scratch[k*size : (k+1)*size : (k+1)*size]
			if err := p.bankReadData(&p.banks[idx], idx, col+uint32(c), buf); err != nil {
				return k, err
			}
			views[k] = buf
		}
	}
	return n * cols, nil
}

// pimReadable checks that a PIM unit may read bank idx: it exists and is
// active.
func (p *PseudoChannel) pimReadable(idx int) error {
	if idx < 0 || idx >= len(p.banks) {
		return fmt.Errorf("hbm: bank index %d out of range", idx)
	}
	if p.banks[idx].state != bankActive {
		return fmt.Errorf("hbm: PIM read from idle bank %d", idx)
	}
	return nil
}

// rowViews points views[c*n+i] at column col+c of the open row of bank
// first+i*stride, for the n banks and cols columns.
func (p *PseudoChannel) rowViews(first, stride, n int, col uint32, cols int, views [][]byte) {
	size := p.cfg.AccessBytes
	for i := 0; i < n; i++ {
		b := &p.banks[first+i*stride]
		row := b.row(b.openRow, p.cfg.RowBytes)
		for c, off := 0, int(col)*size; c < cols; c, off = c+1, off+size {
			views[c*n+i] = row[off : off+size : off+size]
		}
	}
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
