package obs

import (
	"testing"

	"pimsim/internal/hbm"
)

// The disabled-path contract: with no tracer or timeline attached, every
// hook the hot loops call must cost one pointer compare and zero
// allocations. These tests are the enforcement; the simulator goldens
// running with hooks merely present rely on it.

func TestDisabledTracerAllocs(t *testing.T) {
	var tr *Tracer
	if n := testing.AllocsPerRun(100, func() {
		h := tr.Start("req", "request")
		c := h.Child("exec").WithShard(2)
		c.EndWith(100, "", nil)
		h.End()
		tr.Event("req", "e", "")
	}); n != 0 {
		t.Errorf("nil tracer path allocates %.1f per op, want 0", n)
	}
}

func TestZeroHandleAllocs(t *testing.T) {
	var h SpanHandle
	if n := testing.AllocsPerRun(100, func() {
		c := h.Child("sub").WithShard(1)
		c.End()
		h.End()
		_ = h.Enabled()
	}); n != 0 {
		t.Errorf("zero SpanHandle path allocates %.1f per op, want 0", n)
	}
}

func TestDisabledTimelineAllocs(t *testing.T) {
	var c *Log
	if n := testing.AllocsPerRun(100, func() {
		c.Reset()
		_, _, _ = c.Cmds(), c.Modes(), c.PIMs()
	}); n != 0 {
		t.Errorf("nil log path allocates %.1f per op, want 0", n)
	}
	var tl *Timeline
	if n := testing.AllocsPerRun(100, func() {
		_ = tl.Channel(0)
		_, _ = tl.Events(), tl.Dropped()
	}); n != 0 {
		t.Errorf("nil timeline allocates %.1f per op, want 0", n)
	}
}

// rd and act are the commands the log tests record.
var (
	rd  = hbm.Command{Kind: hbm.CmdRD, Bank: 1, Col: 3}
	act = hbm.Command{Kind: hbm.CmdACT, Bank: 1, Row: 42}
)

// The enabled steady state (buffers warm, below capacity) must also be
// allocation-free: the flight recorder may run in production.
func TestEnabledTimelineSteadyStateAllocs(t *testing.T) {
	tl := NewTimeline(TimelineConfig{Channels: 1, MaxPerChannel: 1 << 12})
	c := tl.Channel(0)
	// Warm the slices past the growth phase.
	for i := int64(0); i < 512; i++ {
		c.Commands(&rd, i, 0, 1, hbm.ModeSB, hbm.ModeSB)
	}
	c.Reset()
	if n := testing.AllocsPerRun(100, func() {
		c.Commands(&act, 1, 0, 1, hbm.ModeSB, hbm.ModeSB)
		c.Commands(&rd, 2, 4, 8, hbm.ModeABPIM, hbm.ModeABPIM)
		c.PIM(2, 4, 8, 8)
	}); n != 0 {
		t.Errorf("warm log allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { _ = tl.Events() }); n != 0 {
		t.Errorf("counting a log's events allocates %.1f per op, want 0", n)
	}
}

// A Reset timeline re-records a full run without allocating: Reset keeps
// buffer capacity. This pins the traced-benchmark fix — rebuilding the
// timeline per run once cost ~9.9 MB/op against ~0.5 MB untraced.
func TestResetTimelineReuseAllocs(t *testing.T) {
	tl := NewTimeline(TimelineConfig{Channels: 2, MaxPerChannel: 1 << 12})
	record := func() {
		for ch := 0; ch < 2; ch++ {
			c := tl.Channel(ch)
			c.Commands(&act, 0, 0, 1, hbm.ModeSB, hbm.ModeAB)
			for i := int64(0); i < 1024; i++ {
				c.Commands(&rd, 16*i, 2, 8, hbm.ModeABPIM, hbm.ModeABPIM)
				c.PIM(16*i+1, 2, 8, 8)
			}
		}
	}
	record() // first run grows the buffers
	if n := testing.AllocsPerRun(10, func() {
		tl.Reset()
		record()
	}); n != 0 {
		t.Errorf("reset-reuse run allocates %.1f per op, want 0", n)
	}
}

func TestResetClearsEventsAndDrops(t *testing.T) {
	tl := NewTimeline(TimelineConfig{Channels: 1, MaxPerChannel: 2})
	c := tl.Channel(0)
	for i := int64(0); i < 5; i++ {
		c.Commands(&rd, i, 0, 1, hbm.ModeSB, hbm.ModeSB)
	}
	if tl.Dropped() == 0 {
		t.Fatal("expected drops past the cap")
	}
	tl.Reset()
	if got := tl.Events(); got != 0 {
		t.Errorf("Events after Reset = %d, want 0", got)
	}
	if got := tl.Dropped(); got != 0 {
		t.Errorf("Dropped after Reset = %d, want 0", got)
	}
	// The cap applies afresh after Reset.
	c.Commands(&rd, 1, 0, 1, hbm.ModeSB, hbm.ModeSB)
	if got := len(c.Cmds()); got != 1 {
		t.Errorf("Cmds after Reset+record = %d, want 1", got)
	}
	// Nil receivers stay safe.
	var nc *Log
	nc.Reset()
	var ntl *Timeline
	ntl.Reset()
}
