package memctrl

import "fmt"

// Posted-write support. Real controllers complete writes into a write
// buffer immediately and drain them in batches, keeping the data bus in
// read mode (reads are latency critical, writes are not) and amortizing
// the RD<->WR turnaround penalties. Reads that hit a buffered write are
// forwarded from the buffer (store-to-load forwarding), so the reordering
// is invisible to the host.

// EnableWriteBuffer turns on posted writes with the given watermarks:
// writes accumulate until high pending writes force a drain down to low.
// It must be called while the queues are empty: enabling posted writes
// with transactions in flight would retroactively reorder them, so that
// case returns an error instead.
func (s *Scheduler) EnableWriteBuffer(low, high int) error {
	if s.queue.len() > 0 || s.wqueue.len() > 0 {
		return fmt.Errorf("memctrl: EnableWriteBuffer with %d queued and %d buffered transactions pending",
			s.queue.len(), s.wqueue.len())
	}
	if low < 0 {
		low = 0
	}
	if high <= low {
		high = low + 1
	}
	s.writeBuf = true
	s.lowWater, s.highWater = low, high
	return nil
}

// enqueueWrite posts a write: it completes immediately from the host's
// perspective at the current cycle.
func (s *Scheduler) enqueueWrite(tx *Tx) {
	tx.done = s.ch.Now()
	s.wqueue.push(tx)
}

// forward satisfies a read from the youngest buffered write to the same
// location, if any.
func (s *Scheduler) forward(loc Loc) ([]byte, bool) {
	for i := s.wqueue.len() - 1; i >= 0; i-- {
		if tx := s.wqueue.at(i); tx.Loc == loc {
			return tx.Data, true
		}
	}
	return nil, false
}

// drainWrites services buffered writes (oldest first, which FR-FCFS
// row-hit picking then reorders) until at most `until` remain.
func (s *Scheduler) drainWrites(until int) error {
	st := &s.ch.st
	if s.wqueue.len() > until {
		st.WbufDrains++
	}
	for s.wqueue.len() > until {
		// Row-hit first among the window, like the read path.
		window := s.Window
		if window > s.wqueue.len() {
			window = s.wqueue.len()
		}
		pick := 0
		for i := 0; i < window; i++ {
			l := s.wqueue.at(i).Loc
			if row, open := s.ch.PCH().OpenRow(l.BG, l.Bank); open && row == l.Row {
				pick = i
				break
			}
		}
		tx := s.wqueue.removeAt(pick)
		if err := s.service(tx); err != nil {
			return err
		}
		st.WbufDrained++
		st.Completed++
		if s.AutoRelease {
			s.Release(tx)
		}
	}
	return nil
}

// maybeDrain enforces the high watermark.
func (s *Scheduler) maybeDrain() error {
	if !s.writeBuf || s.wqueue.len() < s.highWater {
		return nil
	}
	return s.drainWrites(s.lowWater)
}

// FlushWrites drains every buffered write (used at barriers and before
// mode transitions; PIM regions are uncacheable AND must be write-drained
// before a kernel reads them).
func (s *Scheduler) FlushWrites() error {
	if !s.writeBuf {
		return nil
	}
	return s.drainWrites(0)
}
