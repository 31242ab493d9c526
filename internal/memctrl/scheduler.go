package memctrl

import (
	"fmt"

	"pimsim/internal/hbm"
)

// Tx is one host memory transaction (a 32-byte read or write).
type Tx struct {
	Write bool
	Loc   Loc
	Data  []byte // write payload, or read result after completion

	id       int64
	enqueued int64 // cycle the transaction entered the queue
	issued   int64 // column command issue cycle
	done     int64 // data completion cycle

	// buf is transaction-owned storage for read results: device read data
	// lives in pseudo-channel scratch that the next command reuses, so it
	// is copied here (Data then aliases buf). Reused across free-list
	// recycles.
	buf []byte
}

// Done returns the cycle the transaction's data finished transferring.
func (t *Tx) Done() int64 { return t.done }

// Scheduler is a First-Ready, First-Come-First-Served (FR-FCFS) command
// scheduler for one channel, the policy of Rixner et al. that modern DRAM
// controllers use (Section IV-C cites it as the reason PIM command order
// cannot be assumed). Row-buffer hits are served before older misses
// within a lookahead window.
type Scheduler struct {
	ch  *Channel
	cfg hbm.Config

	// Window is how many queued transactions the scheduler may inspect
	// when picking the next one (the out-of-order depth). Window 1 is a
	// strict in-order controller.
	Window int

	// AheadDepth is how many idle banks activateAhead may open per
	// serviced transaction (0 disables the overlap; the ablation knob).
	AheadDepth int

	// AutoRelease, when set, makes Drain/Idle/FlushWrites return every
	// transaction they complete to the free list for reuse. Only enable it
	// for streams that discard Enqueue's result: a released Tx (and its
	// Data) is recycled by a later Enqueue.
	AutoRelease bool

	queue  txRing
	nextID int64
	free   []*Tx // recycled transactions (see Release)

	// Posted-write state (see writebuffer.go).
	writeBuf            bool
	lowWater, highWater int
	wqueue              txRing

	// activateAhead scratch: per-flat-bank window summary built in one
	// pass (the old nested wanted-scan was O(window²) per serviced
	// transaction). aheadOrder remembers which entries are live so the
	// next call clears only those. Banks <= 64 on every supported
	// geometry (the same bound the visited bitmask relied on).
	aheadBank  [64]aheadBankState
	aheadOrder []int
	// aheadFresh marks the scratch as built by the current step's pick
	// scan; activateAhead consumes it. Services that bypass the pick scan
	// (write-buffer drains) find it false and rebuild from the live queue.
	aheadFresh bool
}

// aheadBankState summarizes one bank's slice of the FR-FCFS window for
// the activate-ahead pass: the row its oldest queued transaction wants,
// the bank's open row, and whether any queued transaction still wants
// that open row.
type aheadBankState struct {
	firstRow  uint32
	openRow   uint32
	open      bool
	wantsOpen bool
	seen      bool
}

// summarize folds one window entry into the per-bank scratch: first
// occurrence records the bank's demand row and open-row state (window
// order preserved in aheadOrder), later occurrences only extend
// wantsOpen.
func (s *Scheduler) summarize(l Loc, bpg int, pch *hbm.PseudoChannel) {
	fb := l.BG*bpg + l.Bank
	st := &s.aheadBank[fb]
	if !st.seen {
		st.seen = true
		st.firstRow = l.Row
		st.openRow, st.open = pch.OpenRow(l.BG, l.Bank)
		st.wantsOpen = st.open && l.Row == st.openRow
		s.aheadOrder = append(s.aheadOrder, fb)
	} else if st.open && l.Row == st.openRow {
		st.wantsOpen = true
	}
}

// Demand-path stat accessors, reading the channel's Stats. Speculative
// activate-ahead activity is reported separately so these reflect the
// true demand row-hit rate.

// RowHits returns serviced transactions that hit an open row.
func (s *Scheduler) RowHits() int64 { return s.ch.st.RowHits }

// RowMisses returns serviced transactions that hit a conflicting open row.
func (s *Scheduler) RowMisses() int64 { return s.ch.st.RowMisses }

// RowOpens returns serviced transactions that found their bank idle.
func (s *Scheduler) RowOpens() int64 { return s.ch.st.RowOpens }

// Reordered returns how often a younger transaction bypassed an older one.
func (s *Scheduler) Reordered() int64 { return s.ch.st.Reordered }

// Completed returns the number of serviced transactions.
func (s *Scheduler) Completed() int64 { return s.ch.st.Completed }

// AheadOpens returns speculative activates issued on idle banks.
func (s *Scheduler) AheadOpens() int64 { return s.ch.st.AheadOpens }

// AheadCloses returns speculative early precharges of unwanted open rows.
func (s *Scheduler) AheadCloses() int64 { return s.ch.st.AheadCloses }

// DefaultWindow matches a contemporary 32-entry per-channel queue.
const DefaultWindow = 32

// NewScheduler builds an FR-FCFS scheduler over a channel.
func NewScheduler(ch *Channel, cfg hbm.Config) *Scheduler {
	return &Scheduler{ch: ch, cfg: cfg, Window: DefaultWindow, AheadDepth: 2}
}

// Enqueue adds a transaction to the queue and returns it. With the write
// buffer enabled, writes post immediately and drain later.
func (s *Scheduler) Enqueue(write bool, loc Loc, data []byte) *Tx {
	tx := s.alloc()
	tx.Write, tx.Loc, tx.Data = write, loc, data
	tx.id, tx.enqueued = s.nextID, s.ch.Now()
	s.nextID++
	if write && s.writeBuf {
		s.enqueueWrite(tx)
	} else {
		s.queue.push(tx)
	}
	return tx
}

// alloc takes a transaction from the free list, or allocates one.
func (s *Scheduler) alloc() *Tx {
	if n := len(s.free); n > 0 {
		tx := s.free[n-1]
		s.free = s.free[:n-1]
		return tx
	}
	return &Tx{}
}

// Release returns a completed transaction to the scheduler's free list so
// a later Enqueue reuses it instead of allocating. The caller must be done
// with the Tx and its Data. Callers that retain transactions simply never
// release them; see also AutoRelease for fire-and-forget streams.
func (s *Scheduler) Release(tx *Tx) {
	if tx == nil {
		return
	}
	*tx = Tx{buf: tx.buf[:0]}
	s.free = append(s.free, tx)
}

// Pending returns the number of queued transactions.
func (s *Scheduler) Pending() int { return s.queue.len() }

// Drain services the whole queue (including buffered writes) and returns
// the cycle at which the last data transfer completes.
func (s *Scheduler) Drain() (int64, error) {
	var last int64
	for s.queue.len() > 0 {
		tx, err := s.step()
		if err != nil {
			return 0, err
		}
		if tx.done > last {
			last = tx.done
		}
		if s.AutoRelease {
			s.Release(tx)
		}
	}
	if err := s.FlushWrites(); err != nil {
		return 0, err
	}
	if now := s.ch.Now(); now > last {
		last = now
	}
	return last, nil
}

// step picks and services one transaction.
func (s *Scheduler) step() (*Tx, error) {
	if s.queue.len() == 0 {
		return nil, fmt.Errorf("memctrl: step on empty queue")
	}
	window := s.Window
	if window < 1 {
		window = 1
	}
	if window > s.queue.len() {
		window = s.queue.len()
	}

	// One scan serves both decisions of this step: the FR-FCFS pick (the
	// oldest row hit in the window, else the oldest) and the per-bank
	// window summary activateAhead consumes after the pick is serviced.
	// The summary is a cache of the window's bank/row demand; see
	// activateAhead for the invalidation argument (why it stays valid
	// across the state changes service makes before using it).
	for _, fb := range s.aheadOrder {
		s.aheadBank[fb] = aheadBankState{}
	}
	s.aheadOrder = s.aheadOrder[:0]
	bpg := s.cfg.BanksPerGroup
	pch := s.ch.PCH()
	pick := -1
	for i := 0; i < window; i++ {
		l := s.queue.at(i).Loc
		fb := l.BG*bpg + l.Bank
		st := &s.aheadBank[fb]
		if !st.seen {
			st.seen = true
			st.firstRow = l.Row
			st.openRow, st.open = pch.OpenRow(l.BG, l.Bank)
			st.wantsOpen = st.open && l.Row == st.openRow
			s.aheadOrder = append(s.aheadOrder, fb)
		} else if st.open && l.Row == st.openRow {
			st.wantsOpen = true
		}
		if pick < 0 && st.open && l.Row == st.openRow {
			pick = i
		}
	}
	if pick < 0 {
		pick = 0
	}
	st := &s.ch.st
	if pick > 0 {
		st.Reordered++
	}
	tx := s.queue.removeAt(pick)
	// Store-to-load forwarding: a read covered by a buffered write never
	// touches DRAM.
	if !tx.Write {
		if data, ok := s.forward(tx.Loc); ok {
			tx.buf = append(tx.buf[:0], data...)
			tx.Data = tx.buf
			tx.done = s.ch.Now()
			st.Forwarded++
			st.Completed++
			return tx, nil
		}
	}
	s.aheadFresh = true
	if err := s.service(tx); err != nil {
		return nil, err
	}
	st.Completed++
	// The read is on its way; if the write buffer is at capacity, drain it
	// now (behind the read, never in front of it).
	if err := s.maybeDrain(); err != nil {
		return nil, err
	}
	return tx, nil
}

// Idle lets the controller use a quiet period: it drains up to max
// buffered writes while no reads are pending, then jumps the channel
// clock to the next cycle where bank state can change on its own
// (Channel.NextEvent: timer expiry, data completion, refresh deadline),
// servicing any refresh that lands due there — refresh debt is paid
// during quiet time instead of stalling the next demand burst.
func (s *Scheduler) Idle(max int) error {
	if s.queue.len() > 0 {
		return nil
	}
	if s.writeBuf {
		target := s.wqueue.len() - max
		if target < 0 {
			target = 0
		}
		if err := s.drainWrites(target); err != nil {
			return err
		}
	}
	_, err := s.ch.SkipToNextEvent()
	return err
}

// service opens the row if needed and issues the column command.
func (s *Scheduler) service(tx *Tx) error {
	l := tx.Loc
	st := &s.ch.st
	row, open := s.ch.PCH().OpenRow(l.BG, l.Bank)
	switch {
	case open && row == l.Row:
		st.RowHits++
	case open:
		st.RowMisses++
		if _, err := s.ch.Issue(hbm.Command{Kind: hbm.CmdPRE, BG: l.BG, Bank: l.Bank}); err != nil {
			return err
		}
		fallthrough
	default:
		if !open {
			st.RowOpens++
		}
		if _, err := s.ch.Issue(hbm.Command{Kind: hbm.CmdACT, BG: l.BG, Bank: l.Bank, Row: l.Row}); err != nil {
			return err
		}
	}

	// Activate-ahead: open rows for queued transactions on other idle
	// banks so their tRCD overlaps this transaction's data transfer.
	s.activateAhead(l)

	kind := hbm.CmdRD
	if tx.Write {
		kind = hbm.CmdWR
	}
	res, err := s.ch.Issue(hbm.Command{Kind: kind, BG: l.BG, Bank: l.Bank, Col: l.Col, Data: tx.Data})
	if err != nil {
		return err
	}
	tx.issued = res.Cycle
	lat := s.cfg.Timing.WL
	if !tx.Write {
		lat = s.cfg.Timing.RL
		if res.Data == nil {
			tx.Data = nil // timing-only mode moves no data
		} else {
			// res.Data is pseudo-channel scratch (valid until the next
			// command); copy into transaction-owned storage.
			tx.buf = append(tx.buf[:0], res.Data...)
			tx.Data = tx.buf
		}
	}
	tx.done = res.Cycle + int64(lat+s.cfg.Timing.DataCycles())
	return nil
}

// activateAhead opens rows for upcoming transactions on other banks so
// their tRCD (and tRP, for conflicts) overlaps the current data transfer.
// For each bank, only its oldest queued transaction is considered, and an
// open row is closed early only when no queued transaction in the window
// still wants it — so no row hit FR-FCFS would have served is sacrificed.
//
// It consumes the per-bank window summary step built during its pick scan
// instead of rescanning the window. The summary stays valid because the
// only state that changed since it was built is on the serviced
// transaction's own bank (service's PRE/ACT), and that bank is excluded
// from speculation anyway; transparent refresh restores every open row it
// closes. Two deltas against the post-removal window are repaired here:
// the serviced entry's removal (again: its bank is skipped) and the one
// entry that slides into the window when the queue is deeper than it.
func (s *Scheduler) activateAhead(cur Loc) {
	fresh := s.aheadFresh
	s.aheadFresh = false
	if s.AheadDepth <= 0 || s.Window < 1 {
		return
	}
	bpg := s.cfg.BanksPerGroup
	curBank := cur.BG*bpg + cur.Bank
	pch := s.ch.PCH()
	if fresh {
		if s.queue.len() >= s.Window {
			// The pick's removal slid one unscanned entry into the window.
			s.summarize(s.queue.at(s.Window-1).Loc, bpg, pch)
		}
	} else {
		// No pick scan preceded this service (write-buffer drain): build
		// the summary from the live read queue, like the pick scan would.
		for _, fb := range s.aheadOrder {
			s.aheadBank[fb] = aheadBankState{}
		}
		s.aheadOrder = s.aheadOrder[:0]
		window := s.Window
		if window > s.queue.len() {
			window = s.queue.len()
		}
		for i := 0; i < window; i++ {
			s.summarize(s.queue.at(i).Loc, bpg, pch)
		}
	}
	opened := 0
	for _, fb := range s.aheadOrder {
		if opened >= s.AheadDepth {
			break
		}
		if fb == curBank {
			continue
		}
		st := &s.aheadBank[fb]
		if st.open && st.firstRow == st.openRow {
			continue // already a hit
		}
		bg, bank := fb/bpg, fb%bpg
		if st.open {
			// Conflict: close early only if nobody in the window still
			// wants the open row.
			if st.wantsOpen {
				continue
			}
			if _, err := s.ch.Issue(hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: bank}); err != nil {
				return
			}
			// Speculative traffic: counted apart from the demand row-hit /
			// miss counters so reported hit rates stay honest.
			s.ch.st.AheadCloses++
		}
		s.ch.st.AheadOpens++
		// Best effort: tRRD/tFAW pressure just means the ACT lands a bit
		// later; stop looking ahead on any failure.
		if _, err := s.ch.Issue(hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: bank, Row: st.firstRow}); err != nil {
			return
		}
		opened++
	}
}

// CloseAll precharges every open bank (used before mode transitions and
// forced refresh).
func (s *Scheduler) CloseAll() error {
	_, err := s.ch.Issue(hbm.Command{Kind: hbm.CmdPREA})
	return err
}
