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

	openABRow   uint32 // currently open broadcast row (PIM bursts)
	abRowOpen   bool
	lastDataEnd int64  // completion cycle of the latest column data transfer
	modeRow     uint32 // cfg.ModeRow(), cached off the per-command path

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

	// run and read are IssueRun's reusable results: the device's report of
	// its last run and the bursts a RD run read.
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
		modeRow:     cfg.ModeRow(),
		id:          id,
	}
}

// Stats returns the channel's controller counters.
func (c *Channel) Stats() Stats { return c.st }

// Now returns the channel clock.
func (c *Channel) Now() int64 { return c.now }

// AdvanceTo moves the channel clock forward (host-side idle time).
// Advancing to the current cycle is a no-op; a target behind the clock
// is surfaced as an error — under a parallel engine a backwards advance
// means a cross-channel join computed a stale frontier (a scheduler
// bug), and swallowing it would let the two clocks silently diverge.
func (c *Channel) AdvanceTo(t int64) error {
	if t < c.now {
		return fmt.Errorf("memctrl: AdvanceTo(%d) behind channel clock %d (non-monotonic advance)", t, c.now)
	}
	c.now = t
	return nil
}

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
// channel clock, advancing the clock to the issue cycle. Refresh deadlines
// are honoured transparently, including mid-burst in PIM modes.
func (c *Channel) Issue(cmd hbm.Command) (hbm.IssueResult, error) {
	var res hbm.IssueResult
	if err := c.maybeRefresh(); err != nil {
		return res, err
	}
	if err := c.issueRaw(&cmd, &res); err != nil {
		return res, err
	}
	c.trackState(&cmd)
	return res, nil
}

// issueRaw issues without refresh checks, filling *res in place (pointer
// in, pointer out: the per-command fast path copies no structs). With no
// delay hook the schedule-then-issue round trip collapses into the
// device's single-pass IssueEarliest (the command stream validates once,
// not twice); a Delayer needs the split so it can push the issue cycle
// between the two halves.
func (c *Channel) issueRaw(cmd *hbm.Command, res *hbm.IssueResult) error {
	if c.Delay != nil {
		at, err := c.pch.EarliestIssue(*cmd, c.now)
		if err != nil {
			return err
		}
		c.delaySeq++
		if extra := c.Delay.ExtraIssueCycles(c.id, c.delaySeq, at); extra > 0 {
			at += extra
		}
		*res, err = c.pch.Issue(*cmd, at)
		if err != nil {
			return err
		}
	} else if err := c.pch.IssueEarliest(cmd, c.now, res); err != nil {
		return err
	}
	c.issued(cmd, res.Cycle, 0, 1, c.pch.Mode())
	return nil
}

// IssueRun sends n column commands like cmd at consecutive columns
// cmd.Col, cmd.Col+1, ..., command i carrying data[i] (nil data: no
// payloads; cmd.Data is not read) — an AAM window of PIM triggers, a
// register-file load or unload, a run of one bank row's columns — with
// Issue's contract for each: at its earliest legal cycle at or after the
// channel clock, a refresh that falls due before it serviced first.
// Without a delay hook the device takes the commands between refresh
// deadlines as one run (hbm.PseudoChannel.IssueRun) and the channel books
// and logs each run once; with one, each command is issued alone, delayed
// as Issue delays it. It returns the bursts a RD run read (one per issued
// command, where the device returns data), valid until the channel's next
// command, and how many commands issued; an error is the command's after
// them, and the ones after it never issue.
func (c *Channel) IssueRun(cmd hbm.Command, n int, data [][]byte) ([][]byte, int, error) {
	c.read = c.read[:0]
	if c.Delay != nil {
		for i := 0; i < n; i++ {
			one := cmd
			one.Col += uint32(i)
			one.Data = nil
			if data != nil {
				one.Data = data[i]
			}
			res, err := c.Issue(one)
			if err != nil {
				return c.read, i, err
			}
			if res.Data != nil {
				c.read = append(c.read, res.Data)
			}
		}
		return c.read, n, nil
	}
	col0 := cmd.Col
	for done := 0; done < n; {
		if err := c.maybeRefresh(); err != nil {
			return c.read, done, err
		}
		cmd.Col = col0 + uint32(done)
		var d [][]byte
		if data != nil {
			d = data[done:n]
		}
		mode := c.pch.Mode()
		err := c.pch.IssueRun(&cmd, n-done, d, c.now, c.nextRefresh, &c.run)
		c.read = append(c.read, c.run.Data...)
		if c.run.N > 0 {
			c.issued(&cmd, c.run.First, c.run.Stride, c.run.N, mode)
		}
		done += c.run.N
		c.trackState(&cmd)
		if err != nil {
			return c.read, done, err
		}
	}
	return c.read, n, nil
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

// issueAux issues a refresh-machinery command, discarding the result.
func (c *Channel) issueAux(cmd hbm.Command) error {
	var res hbm.IssueResult
	return c.issueRaw(&cmd, &res)
}

// trackState remembers the open broadcast row so refresh can restore it.
func (c *Channel) trackState(cmd *hbm.Command) {
	if c.pch.Mode() == hbm.ModeSB {
		c.abRowOpen = false
		return
	}
	switch cmd.Kind {
	case hbm.CmdACT:
		if cmd.Row < c.modeRow {
			c.openABRow = cmd.Row
			c.abRowOpen = true
		}
	case hbm.CmdPREA:
		c.abRowOpen = false
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
			if err := c.issueAux(hbm.Command{Kind: hbm.CmdPREA}); err != nil {
				return fmt.Errorf("memctrl: refresh precharge: %w", err)
			}
		}
		if err := c.issueAux(hbm.Command{Kind: hbm.CmdREF}); err != nil {
			return fmt.Errorf("memctrl: refresh: %w", err)
		}
		c.st.Refreshes++
		if c.refreshDebt > 0 {
			c.refreshDebt--
		}
		if c.abRowOpen && c.pch.Mode() != hbm.ModeSB {
			if err := c.issueAux(hbm.Command{Kind: hbm.CmdACT, Row: c.openABRow}); err != nil {
				return fmt.Errorf("memctrl: refresh reopen: %w", err)
			}
		}
		if hsBank >= 0 {
			if err := c.issueAux(hbm.Command{Kind: hbm.CmdACT, BG: 0, Bank: hsBank, Row: c.cfg.ModeRow()}); err != nil {
				return fmt.Errorf("memctrl: refresh handshake reopen: %w", err)
			}
		}
		for _, ob := range reopen {
			if err := c.issueAux(hbm.Command{Kind: hbm.CmdACT, BG: ob.bg, Bank: ob.bank, Row: ob.row}); err != nil {
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
