package memctrl

import (
	"fmt"

	"pimsim/internal/hbm"
	"pimsim/internal/obs"
)

// Channel drives one pseudo channel: it owns the channel clock, issues
// commands at their earliest legal cycles, manages refresh, and models
// host memory fences. It is the layer PIM kernels talk to when they need
// an ordered command stream.
type Channel struct {
	pch *hbm.PseudoChannel
	cfg hbm.Config

	now         int64
	nextRefresh int64
	refreshDebt int // postponed refreshes (JEDEC allows up to 8)

	// GuaranteeOrder models the processor-confirmed in-order PIM mode of
	// Section VII-B: fences become free because the controller preserves
	// command order on its own.
	GuaranteeOrder bool

	// FenceCycles is the host-side cost of one memory fence: the host
	// stalls until in-flight reads return (read latency + burst) plus the
	// pipeline drain, before the next batch of requests reaches the
	// controller.
	FenceCycles int

	lastDataEnd int64 // completion cycle of the latest column data transfer

	st Stats
	id int // the channel's index in its system

	// Log, when set, records every issued command (the refresh
	// machinery's own included) as one run record per command or device
	// run: the -trace listing and the Perfetto timeline both read it.
	Log *obs.Log

	// Delay, when set, adds injected latency to command issue (fault
	// injection: per-channel latency spikes). Like Log it is a public hook
	// field: nil costs one pointer compare per command.
	Delay    Delayer
	delaySeq int64 // commands seen by Delay (its deterministic clock)

	// run and read are IssuePacket's reusable results: the device's report
	// of its last run and the bursts the packet's RD entries read.
	run  hbm.Run
	read [][]byte
}

// Delayer is the fault-injection hook on the command-issue path. For
// every command (refresh machinery included) it returns extra cycles to
// add on top of the earliest legal issue cycle — legal by construction,
// since the device model accepts any issue cycle at or after the
// earliest. seq counts the channel's delayer calls and now is the
// pre-delay issue cycle, so implementations can build deterministic
// schedules without wall-clock time. internal/fault provides the
// standard implementation.
type Delayer interface {
	ExtraIssueCycles(channel int, seq, now int64) int64
}

// RefreshPostponeLimit is how many tREFI intervals a refresh may be
// deferred while a PIM burst is in flight (JESD235 allows 8).
const RefreshPostponeLimit = 8

// DefaultFenceCycles approximates a host fence on the evaluated system:
// the thread group synchronizes, waits for outstanding DRAM responses and
// refills the controller queue (~35 ns at 1 GHz).
const DefaultFenceCycles = 35

// NewChannel wraps a pseudo channel as channel id of its system: the
// index its trace events, timeline and fault delays are labelled with.
func NewChannel(pch *hbm.PseudoChannel, cfg hbm.Config, id int) *Channel {
	return &Channel{
		pch:         pch,
		cfg:         cfg,
		nextRefresh: int64(cfg.Timing.REFI),
		FenceCycles: DefaultFenceCycles,
		id:          id,
	}
}

// Stats returns the channel's controller counters.
func (c *Channel) Stats() Stats { return c.st }

// Now returns the channel clock.
func (c *Channel) Now() int64 { return c.now }

// NextEvent returns the next cycle at which this channel's state can
// change without a new command arriving: the minimum of the next refresh
// deadline, the next bank-timer expiry (the soonest moment a command
// blocked purely on timing could become legal), and the bus-busy horizon
// (completion of the latest in-flight data transfer). The result is
// always in (Now, nextRefresh] — refresh bounds every quiet period —
// except when refresh is already overdue, in which case it returns Now:
// the channel has work pending at the current cycle.
//
// This is the contract the event-driven core rests on: between Now and
// NextEvent nothing in the channel moves, so controllers may jump their
// clock straight there instead of walking cycles.
func (c *Channel) NextEvent() int64 {
	if c.nextRefresh <= c.now {
		return c.now
	}
	next := c.nextRefresh
	if t := c.pch.NextTimerExpiry(c.now); t > c.now && t < next {
		next = t
	}
	if c.lastDataEnd > c.now && c.lastDataEnd < next {
		next = c.lastDataEnd
	}
	return next
}

// SkipToNextEvent jumps the channel clock to NextEvent and services any
// refresh that lands due there, returning the new clock value. A channel
// whose next event is the current cycle (overdue refresh) only runs the
// refresh machinery. Idle controllers use it to spend quiet periods
// paying refresh debt instead of deferring it into the next demand burst.
func (c *Channel) SkipToNextEvent() (int64, error) {
	if t := c.NextEvent(); t > c.now {
		c.now = t
	}
	if err := c.maybeRefresh(); err != nil {
		return c.now, err
	}
	return c.now, nil
}

// Fences returns how many fences this channel executed.
func (c *Channel) Fences() int64 { return c.st.Fences }

// Refreshes returns how many REF commands this channel issued.
func (c *Channel) Refreshes() int64 { return c.st.Refreshes }

// PCH exposes the underlying pseudo channel.
func (c *Channel) PCH() *hbm.PseudoChannel { return c.pch }

// Issue sends one command at its earliest legal cycle at or after the
// channel clock, advancing the clock to the issue cycle: IssuePacket's
// packet of one entry of one command, a WR carrying cmd.Data. Refresh
// deadlines are honoured transparently, including mid-burst in PIM modes.
func (c *Channel) Issue(cmd hbm.Command) (hbm.IssueResult, error) {
	one := [1][]byte{cmd.Data}
	data := one[:]
	if cmd.Data == nil {
		data = nil
	}
	pk := [1]Entry{{Kind: cmd.Kind, BG: cmd.BG, Bank: cmd.Bank, Row: cmd.Row, Col: cmd.Col, N: 1}}
	pr, err := c.IssuePacket(pk[:], data)
	if err != nil {
		return hbm.IssueResult{}, err
	}
	res := hbm.IssueResult{Cycle: c.run.First}
	if len(pr.Read) > 0 {
		res.Data = pr.Read[0]
	}
	return res, nil
}

// Entry is one entry of a packet: N commands of kind Kind on bank group
// BG, bank Bank, a row command (N = 1) opening row Row, or column commands
// at columns Col, Col+1, ... (an AAM window of PIM triggers, a
// register-file load or unload, a run of one bank row's columns), a WR
// carrying payloads Data, Data+1, ... of the packet's list; then a fence
// if Fence. A PIM trigger's Bank is its bank select (0 even, 1 odd).
type Entry struct {
	Kind  hbm.CmdKind
	Fence bool
	BG    int
	Bank  int
	Row   uint32
	Col   uint32
	N     int
	Data  int
}

// Command returns command i of the entry, without its payload.
func (e *Entry) Command(i int) hbm.Command {
	return hbm.Command{Kind: e.Kind, BG: e.BG, Bank: e.Bank, Row: e.Row, Col: e.Col + uint32(i)}
}

// PacketRun reports how far IssuePacket got.
type PacketRun struct {
	Entries int      // entries issued whole, each with its fence
	Issued  int      // after an error: the failing entry's commands that issued
	Cycles  int64    // the clock the whole entries took, their fences excluded
	Read    [][]byte // the bursts the RD entries read, valid until the channel's next packet
}

// IssuePacket issues a packet of command sequences in one call, the
// channel's one issue form: each entry's commands at their earliest legal
// cycles at or after the channel clock, a refresh that falls due before
// one serviced first, then the entry's fence. The device takes an entry's
// commands between refresh deadlines as one run
// (hbm.PseudoChannel.IssueRun; a Delay hook splits it into single
// commands), and the channel books and logs each run once. A WR entry
// carries data[e.Data:e.Data+e.N] when data is non-nil. The bursts the RD
// entries read are collected in the result, one per issued command where
// the device returns data. An error stops the packet in the failing
// entry: it is that command's, after the ones the result counts, and the
// ones after it never issue.
func (c *Channel) IssuePacket(pk []Entry, data [][]byte) (PacketRun, error) {
	c.read = c.read[:0]
	var pr PacketRun
	for ; pr.Entries < len(pk); pr.Entries++ {
		e := &pk[pr.Entries]
		start := c.now
		for done := 0; done < e.N; {
			if c.now >= c.nextRefresh {
				if err := c.maybeRefresh(); err != nil {
					pr.Issued, pr.Read = done, c.read
					return pr, err
				}
			}
			cmd := e.Command(done)
			var d [][]byte
			if data != nil && e.Kind == hbm.CmdWR {
				d = data[e.Data+done : e.Data+e.N]
			}
			err := c.issue(&cmd, e.N-done, d)
			if len(c.run.Data) > 0 {
				c.read = append(c.read, c.run.Data...)
			}
			done += c.run.N
			if err != nil {
				pr.Issued, pr.Read = done, c.read
				return pr, err
			}
		}
		pr.Cycles += c.now - start
		if e.Fence {
			c.Fence()
		}
	}
	pr.Read = c.read
	return pr, nil
}

// issue is the channel's one path to the device, the refresh machinery's
// commands included: it issues up to n commands like *cmd from the
// channel clock through hbm.PseudoChannel.IssueRun, a column run stopping
// at the next refresh deadline, and books what issued into c.run, the
// clock and the log. A Delay hook pushes each command past its earliest
// legal cycle (the floor the device's IssueRun takes), so with one set a
// run issues one command per call.
func (c *Channel) issue(cmd *hbm.Command, n int, data [][]byte) error {
	now := c.now
	if c.Delay != nil {
		// A command refused here is refused again by the device's
		// IssueRun, with the same error, before the delayer counts it.
		if at, err := c.pch.EarliestIssue(*cmd, now); err == nil {
			c.delaySeq++
			now, n = at+max(0, c.Delay.ExtraIssueCycles(c.id, c.delaySeq, at)), 1
		}
	}
	mode := c.pch.Mode()
	err := c.pch.IssueRun(cmd, n, data, now, c.nextRefresh, &c.run)
	if c.run.N > 0 {
		c.issued(cmd, c.run.First, c.run.Stride, c.run.N, mode)
	}
	return err
}

// issued books a run the device issued: n commands like cmd from column
// cmd.Col at cycles first, first+stride, ... (a single command is a run of
// one). It logs the run as one record, then moves the channel clock past
// its last command (the command/address bus carries one command per
// cycle) and the data horizon past a column run's last burst. before is
// the mode before the run; only its last command can change the mode, and
// the mode after it is read after the issue, so a mode-row handshake
// lands in the window it opens.
func (c *Channel) issued(cmd *hbm.Command, first, stride int64, n int, before hbm.Mode) {
	if c.Log != nil {
		c.Log.Commands(cmd, first, stride, n, before, c.pch.Mode())
	}
	at := first + int64(n-1)*stride
	c.now = at + 1
	if cmd.Kind.IsColumn() {
		lat := c.cfg.Timing.WL
		if cmd.Kind == hbm.CmdRD {
			lat = c.cfg.Timing.RL
		}
		c.lastDataEnd = max(c.lastDataEnd, at+int64(lat+c.cfg.Timing.DataCycles()))
	}
}

// maybeRefresh issues due refreshes. In SB mode the caller's open rows are
// the scheduler's responsibility, so refresh only fires when all banks are
// idle and is otherwise postponed (up to the JEDEC limit). In AB/AB-PIM
// modes the channel transparently closes the broadcast row, refreshes, and
// reopens it.
func (c *Channel) maybeRefresh() error {
	strikes := 0
	for c.now >= c.nextRefresh {
		deficit := c.now - c.nextRefresh
		force := c.refreshDebt >= RefreshPostponeLimit
		// In AB and AB-PIM modes a broadcast ACT opens its row in every
		// bank: bank 0's open data row is the one to reopen.
		abRow, abOpen := c.pch.OpenRow(0, 0)
		abOpen = abOpen && abRow < c.cfg.ModeRow() && c.pch.Mode() != hbm.ModeSB
		// Snapshot an in-flight mode-row handshake before closing rows so
		// it can be restored: refresh must be transparent to the runtime's
		// command sequences.
		hsBank := -1
		if c.cfg.PIMUnits > 0 {
			for _, b := range []int{hbm.ABMRBank, hbm.SBMRBank} {
				if row, open := c.pch.OpenRow(0, b); open && row == c.cfg.ModeRow() {
					hsBank = b
				}
			}
		}
		// Likewise snapshot every SB-mode open row: a forced refresh in the
		// middle of a transaction must not yank the row out from under the
		// scheduler.
		type openBank struct {
			bg, bank int
			row      uint32
		}
		var reopen []openBank
		if c.pch.Mode() == hbm.ModeSB && force {
			for bg := 0; bg < c.cfg.BankGroups; bg++ {
				for b := 0; b < c.cfg.BanksPerGroup; b++ {
					if bg == 0 && b == hsBank {
						continue
					}
					if row, open := c.pch.OpenRow(bg, b); open {
						reopen = append(reopen, openBank{bg, b, row})
					}
				}
			}
		}
		if !c.pch.RefreshLegal() { // banks open
			if c.pch.Mode() == hbm.ModeSB && !force {
				// Postpone rather than yank rows out from under the
				// transaction scheduler.
				c.refreshDebt++
				c.st.RefreshPostponed++
				c.nextRefresh += int64(c.cfg.Timing.REFI)
				continue
			}
			if err := c.issue(&hbm.Command{Kind: hbm.CmdPREA}, 1, nil); err != nil {
				return fmt.Errorf("memctrl: refresh precharge: %w", err)
			}
		}
		if err := c.issue(&hbm.Command{Kind: hbm.CmdREF}, 1, nil); err != nil {
			return fmt.Errorf("memctrl: refresh: %w", err)
		}
		c.st.Refreshes++
		if c.refreshDebt > 0 {
			c.refreshDebt--
		}
		if abOpen {
			if err := c.issue(&hbm.Command{Kind: hbm.CmdACT, Row: abRow}, 1, nil); err != nil {
				return fmt.Errorf("memctrl: refresh reopen: %w", err)
			}
		}
		if hsBank >= 0 {
			if err := c.issue(&hbm.Command{Kind: hbm.CmdACT, BG: 0, Bank: hsBank, Row: c.cfg.ModeRow()}, 1, nil); err != nil {
				return fmt.Errorf("memctrl: refresh handshake reopen: %w", err)
			}
		}
		for _, ob := range reopen {
			if err := c.issue(&hbm.Command{Kind: hbm.CmdACT, BG: ob.bg, Bank: ob.bank, Row: ob.row}, 1, nil); err != nil {
				return fmt.Errorf("memctrl: refresh row reopen: %w", err)
			}
		}
		c.nextRefresh += int64(c.cfg.Timing.REFI)
		// A tREFI smaller than the refresh round trip can never catch up;
		// fail loudly instead of spinning forever.
		if c.now-c.nextRefresh >= deficit {
			if strikes++; strikes > 3 {
				return fmt.Errorf("memctrl: refresh cannot keep up (tREFI %d too small)", c.cfg.Timing.REFI)
			}
		} else {
			strikes = 0
		}
	}
	return nil
}

// Fence models the ordering fence a PIM kernel executes after each AAM
// window (Section IV-C / VII-B): the host waits for all outstanding data
// and pays a fixed resynchronization cost. With GuaranteeOrder set the
// controller preserves order itself and the fence is free.
func (c *Channel) Fence() {
	if c.GuaranteeOrder {
		return
	}
	c.st.Fences++
	stall := int64(c.FenceCycles)
	if c.lastDataEnd > c.now {
		stall += c.lastDataEnd - c.now
		c.now = c.lastDataEnd
	}
	c.st.FenceStallCycles += stall
	c.now += int64(c.FenceCycles)
}
