package memctrl

import (
	"math/rand"
	"testing"

	"pimsim/internal/hbm"
)

// TestWriteBufferImprovesReadLatency: posting writes keeps the bus in
// read mode; average read latency must drop versus the interleaved
// baseline on the same online mixed arrival stream (each transaction is
// serviced as it arrives; buffered writes accumulate to their watermark).
func TestWriteBufferImprovesReadLatency(t *testing.T) {
	run := func(buffered bool) float64 {
		cfg := hbm.HBM2Config(1000)
		cfg.Functional = false
		ch := NewChannel(hbm.MustNewDevice(cfg).PCH(0), cfg, 0)
		s := NewScheduler(ch, cfg)
		if buffered {
			if err := s.EnableWriteBuffer(4, 16); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(17))
		var reads []*Tx
		// Bursty arrivals: ten mixed transactions land together, the
		// controller works the burst off, then the line goes quiet — the
		// pattern where deferring writes pays.
		for burst := 0; burst < 60; burst++ {
			for i := 0; i < 10; i++ {
				loc := Loc{
					BG:   rng.Intn(4),
					Bank: rng.Intn(4),
					Row:  uint32(rng.Intn(32)),
					Col:  uint32(rng.Intn(64)),
				}
				if rng.Float64() < 0.4 {
					s.Enqueue(true, loc, make([]byte, 32))
				} else {
					reads = append(reads, s.Enqueue(false, loc, nil))
				}
			}
			for s.Pending() > 0 {
				if _, err := s.step(); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Idle(16); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, r := range reads {
			total += float64(r.Done() - r.enqueued)
		}
		return total / float64(len(reads))
	}
	base := run(false)
	buf := run(true)
	if buf >= base {
		t.Errorf("buffered read latency %.1f not better than interleaved %.1f", buf, base)
	}
}

// TestStoreToLoadForwarding: a read behind a buffered write to the same
// block returns the written data without touching DRAM.
func TestStoreToLoadForwarding(t *testing.T) {
	cfg := hbm.HBM2Config(1000)
	ch := NewChannel(hbm.MustNewDevice(cfg).PCH(0), cfg, 0)
	s := NewScheduler(ch, cfg)
	if err := s.EnableWriteBuffer(0, 64); err != nil {
		t.Fatal(err)
	}

	payload := make([]byte, 32)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	loc := Loc{BG: 1, Bank: 1, Row: 7, Col: 9}
	s.Enqueue(true, loc, payload)
	rd := s.Enqueue(false, loc, nil)
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if rd.Data[i] != payload[i] {
			t.Fatalf("forwarded read byte %d = %x, want %x", i, rd.Data[i], payload[i])
		}
	}
	if s.ch.st.Forwarded != 1 {
		t.Errorf("forwarded = %d", s.ch.st.Forwarded)
	}

	// And the write really landed in DRAM after the drain.
	rd2 := s.Enqueue(false, loc, nil)
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if rd2.Data[i] != payload[i] {
			t.Fatalf("post-drain read byte %d = %x", i, rd2.Data[i])
		}
	}
}

// TestWriteBufferWatermarks: the high watermark forces a drain; the flush
// empties the buffer.
func TestWriteBufferWatermarks(t *testing.T) {
	cfg := hbm.HBM2Config(1000)
	cfg.Functional = false
	ch := NewChannel(hbm.MustNewDevice(cfg).PCH(0), cfg, 0)
	s := NewScheduler(ch, cfg)
	if err := s.EnableWriteBuffer(2, 8); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 12; i++ {
		s.Enqueue(true, Loc{BG: i % 4, Row: uint32(i), Col: 0}, nil)
	}
	if s.wqueue.len() != 12 {
		t.Fatalf("pending = %d", s.wqueue.len())
	}
	// Writes complete immediately from the host's perspective.
	s.Enqueue(false, Loc{BG: 0, Bank: 3, Row: 99, Col: 0}, nil)
	if _, err := s.step(); err != nil { // triggers the high-watermark drain
		t.Fatal(err)
	}
	if got := s.wqueue.len(); got != 2 {
		t.Errorf("after drain: %d buffered writes, want the low watermark 2", got)
	}
	if err := s.FlushWrites(); err != nil {
		t.Fatal(err)
	}
	if s.wqueue.len() != 0 {
		t.Error("flush left writes behind")
	}
	// Degenerate watermarks are normalized.
	s2 := NewScheduler(ch, cfg)
	if err := s2.EnableWriteBuffer(-3, -5); err != nil {
		t.Fatal(err)
	}
	if s2.lowWater != 0 || s2.highWater != 1 {
		t.Errorf("watermarks %d/%d", s2.lowWater, s2.highWater)
	}
}

// TestEnableWriteBufferRejectsPending: enabling posted writes with
// transactions already queued would retroactively reorder them, so the
// call must fail instead of silently proceeding (regression: it used to
// ignore its documented empty-queue precondition).
func TestEnableWriteBufferRejectsPending(t *testing.T) {
	cfg := hbm.HBM2Config(1000)
	cfg.Functional = false
	ch := NewChannel(hbm.MustNewDevice(cfg).PCH(0), cfg, 0)

	s := NewScheduler(ch, cfg)
	s.Enqueue(false, Loc{BG: 0, Bank: 0, Row: 1, Col: 0}, nil)
	if err := s.EnableWriteBuffer(2, 8); err == nil {
		t.Error("EnableWriteBuffer accepted a non-empty read queue")
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableWriteBuffer(2, 8); err != nil {
		t.Fatalf("EnableWriteBuffer on drained queue: %v", err)
	}

	// Buffered writes pending blocks re-tuning too.
	s.Enqueue(true, Loc{BG: 0, Bank: 0, Row: 1, Col: 1}, nil)
	if err := s.EnableWriteBuffer(1, 4); err == nil {
		t.Error("EnableWriteBuffer accepted pending buffered writes")
	}
}
