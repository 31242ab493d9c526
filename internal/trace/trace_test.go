package trace_test

import (
	"strings"
	"testing"

	"pimsim/internal/hbm"
	"pimsim/internal/trace"
)

func TestRingBuffer(t *testing.T) {
	r := trace.NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Record(trace.Event{Cycle: int64(i), Kind: hbm.CmdRD, Col: uint32(i)})
	}
	if r.Total() != 5 {
		t.Errorf("total = %d", r.Total())
	}
	ev := r.Events()
	if len(ev) != 3 {
		t.Fatalf("retained %d", len(ev))
	}
	for i, e := range ev {
		if e.Cycle != int64(i+2) {
			t.Errorf("event %d cycle %d, want %d (oldest dropped first)", i, e.Cycle, i+2)
		}
	}
}

func TestRecorderUnderfill(t *testing.T) {
	r := trace.NewRecorder(10)
	r.Record(trace.Event{Cycle: 1, Kind: hbm.CmdACT, Row: 7})
	ev := r.Events()
	if len(ev) != 1 || ev[0].Row != 7 {
		t.Fatalf("%+v", ev)
	}
	if trace.NewRecorder(0) == nil {
		t.Fatal("zero capacity recorder")
	}
}

// roundTripEvents, commentedTrace and malformedTraces are the tests'
// inputs, and FuzzParse's seeds.
var (
	roundTripEvents = []trace.Event{
		{Cycle: 10, Channel: 0, Kind: hbm.CmdACT, BG: 1, Bank: 2, Row: 300},
		{Cycle: 24, Channel: 0, Kind: hbm.CmdRD, BG: 1, Bank: 2, Col: 5},
		{Cycle: 30, Channel: 1, Kind: hbm.CmdWR, BG: 0, Bank: 0, Col: 9},
		{Cycle: 44, Channel: 0, Kind: hbm.CmdPRE, BG: 1, Bank: 2},
		{Cycle: 50, Channel: 0, Kind: hbm.CmdPREA},
		{Cycle: 60, Channel: 0, Kind: hbm.CmdREF},
	}
	commentedTrace = `
# a comment
10 0 ACT 0 0 5 0

12 0 RD 0 0 0 3
`
	malformedTraces = []string{
		"10 0 FROB 0 0 0 0",
		"not a line",
		"10 0 RD 0 0",
		// Trailing tokens are malformed, not ignorable (regression: Sscanf
		// used to stop at the 7th field and silently accept the rest).
		"10 0 RD 0 0 0 3 99",
		"10 0 RD 0 0 0 3 trailing junk",
		// Non-numeric address fields.
		"10 0 RD 0 0 x 3",
		"10 0 RD 0 0 0 -1",
	}
)

func TestDumpParseRoundTrip(t *testing.T) {
	r := trace.NewRecorder(8)
	events := roundTripEvents
	for _, e := range events {
		r.Record(e)
	}
	var sb strings.Builder
	if err := r.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("parsed %d of %d", len(back), len(events))
	}
	for i := range events {
		if back[i] != events[i] {
			t.Errorf("event %d: %+v != %+v", i, back[i], events[i])
		}
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	ev, err := trace.Parse(strings.NewReader(commentedTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 2 || ev[1].Col != 3 {
		t.Fatalf("%+v", ev)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range malformedTraces {
		if _, err := trace.Parse(strings.NewReader(src)); err == nil {
			t.Errorf("trace.Parse(%q) succeeded", src)
		}
	}
}

func TestValidate(t *testing.T) {
	cfg := hbm.HBM2Config(1000)
	good := []trace.Event{
		{Kind: hbm.CmdACT, Channel: 0, BG: 0, Bank: 0, Row: 5},
		{Kind: hbm.CmdRD, Channel: 1, BG: 0, Bank: 0, Col: 3},
	}
	if err := trace.Validate(good, cfg, 2); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := []struct {
		name string
		ev   trace.Event
	}{
		{"channel", trace.Event{Kind: hbm.CmdRD, Channel: 2}},
		{"bank group", trace.Event{Kind: hbm.CmdRD, BG: cfg.BankGroups}},
		{"bank", trace.Event{Kind: hbm.CmdRD, Bank: cfg.BanksPerGroup}},
		{"row", trace.Event{Kind: hbm.CmdACT, Row: uint32(cfg.Rows)}},
		{"column", trace.Event{Kind: hbm.CmdRD, Col: uint32(cfg.ColumnsPerRow())}},
	}
	for _, tc := range bad {
		if err := trace.Validate([]trace.Event{tc.ev}, cfg, 2); err == nil {
			t.Errorf("out-of-range %s accepted", tc.name)
		}
	}
}

func TestEventCommand(t *testing.T) {
	e := trace.Event{Kind: hbm.CmdWR, BG: 2, Bank: 3, Row: 9, Col: 8}
	cmd := e.Command()
	if cmd.Kind != hbm.CmdWR || cmd.BG != 2 || cmd.Bank != 3 || cmd.Row != 9 || cmd.Col != 8 {
		t.Errorf("%+v", cmd)
	}
}
