package memctrl

import (
	"strings"
	"testing"

	"pimsim/internal/hbm"
	"pimsim/internal/obs"
	"pimsim/internal/trace"
)

func TestChannelTraceRecording(t *testing.T) {
	cfg := hbm.HBM2Config(1000)
	cfg.Functional = false
	dev := hbm.MustNewDevice(cfg)
	ch := NewChannel(dev.PCH(0), cfg, 3)
	ch.Log = obs.NewLog(3, 64, false)

	s := NewScheduler(ch, cfg)
	for i := 0; i < 8; i++ {
		s.Enqueue(false, Loc{BG: i % 4, Bank: 0, Row: 1, Col: uint32(i)}, nil)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	ev := ch.Log.TraceEvents()
	if len(ev) == 0 {
		t.Fatal("no events recorded")
	}
	acts, rds := 0, 0
	var lastCycle int64 = -1
	for _, e := range ev {
		if e.Channel != 3 {
			t.Errorf("event labeled channel %d", e.Channel)
		}
		if e.Cycle < lastCycle {
			t.Errorf("events out of order: %d after %d", e.Cycle, lastCycle)
		}
		lastCycle = e.Cycle
		switch e.Kind {
		case hbm.CmdACT:
			acts++
		case hbm.CmdRD:
			rds++
		}
	}
	if rds != 8 || acts < 4 {
		t.Errorf("trace has %d RDs and %d ACTs", rds, acts)
	}

	// The dumped trace replays cleanly against a fresh device.
	var sb strings.Builder
	for _, e := range ev {
		sb.WriteString(e.String() + "\n")
	}
	events, err := trace.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	fresh := hbm.MustNewDevice(cfg).PCH(0)
	var now int64
	for i, e := range events {
		cmd := e.Command()
		at, err := fresh.EarliestIssue(cmd, now)
		if err != nil {
			t.Fatalf("replay event %d (%s): %v", i, cmd, err)
		}
		if _, err := fresh.Issue(cmd, at); err != nil {
			t.Fatalf("replay event %d: %v", i, err)
		}
		now = at + 1
	}
}
