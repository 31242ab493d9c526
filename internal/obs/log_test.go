package obs

import (
	"reflect"
	"testing"

	"pimsim/internal/hbm"
	"pimsim/internal/trace"
)

// A run record expands to one event per command at its own cycle and
// column; only its last command can switch the mode, and the mode track
// is derived from the records' modes. Triggers that continue a PIM
// record's progression at its count extend it.
func TestLogExpandsRuns(t *testing.T) {
	l := NewLog(5, 0, false)
	l.Commands(&act, 3, 0, 1, hbm.ModeSB, hbm.ModeAB)
	l.Commands(&rd, 10, 4, 3, hbm.ModeAB, hbm.ModeABPIM)
	l.PIM(10, 4, 1, 8)
	l.PIM(14, 4, 2, 8)  // continues the record above
	l.PIM(22, 4, 1, 16) // another count: a record of its own

	wantCmds := []CmdEvent{
		{Cycle: 3, Kind: "ACT", Bank: 1, Row: 42, Broadcast: true},
		{Cycle: 10, Kind: "RD", Bank: 1, Col: 3, Broadcast: true},
		{Cycle: 14, Kind: "RD", Bank: 1, Col: 4, Broadcast: true},
		{Cycle: 18, Kind: "RD", Bank: 1, Col: 5, Broadcast: true},
	}
	if got := l.Cmds(); !reflect.DeepEqual(got, wantCmds) {
		t.Errorf("Cmds = %+v\nwant %+v", got, wantCmds)
	}
	wantModes := []ModeEvent{{3, "AB"}, {18, "AB-PIM"}}
	if got := l.Modes(); !reflect.DeepEqual(got, wantModes) {
		t.Errorf("Modes = %+v, want %+v", got, wantModes)
	}
	wantPIMs := []PIMEvent{{10, 8}, {14, 8}, {18, 8}, {22, 16}}
	if got := l.PIMs(); !reflect.DeepEqual(got, wantPIMs) {
		t.Errorf("PIMs = %+v, want %+v", got, wantPIMs)
	}
	if len(l.recs) != 4 {
		t.Errorf("%d records, want 4 (the equal-count triggers share one)", len(l.recs))
	}
	if got, want := l.events(), len(wantCmds)+len(wantModes)+len(wantPIMs); got != want {
		t.Errorf("events() = %d, want %d", got, want)
	}
	wantTrace := []trace.Event{
		{Cycle: 3, Channel: 5, Kind: hbm.CmdACT, Bank: 1, Row: 42},
		{Cycle: 10, Channel: 5, Kind: hbm.CmdRD, Bank: 1, Col: 3},
		{Cycle: 14, Channel: 5, Kind: hbm.CmdRD, Bank: 1, Col: 4},
		{Cycle: 18, Channel: 5, Kind: hbm.CmdRD, Bank: 1, Col: 5},
	}
	if got := l.TraceEvents(); !reflect.DeepEqual(got, wantTrace) {
		t.Errorf("TraceEvents = %+v\nwant %+v", got, wantTrace)
	}
}

// A ring keeps its newest records in order and counts the commands of
// the ones it overwrote.
func TestLogRingKeepsNewest(t *testing.T) {
	l := NewLog(0, 3, true)
	for i := 0; i < 5; i++ {
		cmd := hbm.Command{Kind: hbm.CmdRD, Col: uint32(i)}
		l.Commands(&cmd, int64(10*i), 1, 2, hbm.ModeSB, hbm.ModeSB)
	}
	ev := l.TraceEvents()
	if len(ev) != 6 || l.Dropped() != 4 {
		t.Fatalf("ring holds %d commands and dropped %d, want 6 and 4", len(ev), l.Dropped())
	}
	for i, e := range ev {
		if want := int64(10*(2+i/2) + i%2); e.Cycle != want {
			t.Errorf("command %d at cycle %d, want %d (oldest records dropped first)", i, e.Cycle, want)
		}
	}
}

// A ring short of its cap holds everything logged.
func TestLogRingUnderfill(t *testing.T) {
	l := NewLog(0, 10, true)
	l.Commands(&act, 1, 0, 1, hbm.ModeSB, hbm.ModeSB)
	ev := l.TraceEvents()
	if len(ev) != 1 || ev[0].Row != 42 || l.Dropped() != 0 {
		t.Fatalf("%+v, dropped %d", ev, l.Dropped())
	}
}
