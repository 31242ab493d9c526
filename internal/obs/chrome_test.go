package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"pimsim/internal/hbm"
)

// decodeChrome parses exporter output into the generic shape a trace
// viewer sees, validating the envelope on the way.
func decodeChrome(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v", err)
	}
	if file.TraceEvents == nil {
		t.Fatal("missing traceEvents array")
	}
	return file.TraceEvents
}

// checkSchema enforces the Chrome trace-event invariants every event
// must satisfy to load in Perfetto.
func checkSchema(t *testing.T, evs []map[string]any) {
	t.Helper()
	for i, ev := range evs {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		if name == "" {
			t.Errorf("event %d has no name", i)
		}
		switch ph {
		case "X":
			for _, f := range []string{"ts", "dur", "pid", "tid"} {
				if _, ok := ev[f].(float64); !ok {
					t.Errorf("event %d (%s, ph=X) missing numeric %s", i, name, f)
				}
			}
			if dur, ok := ev["dur"].(float64); ok && dur < 0 {
				t.Errorf("event %d (%s) has negative dur %v", i, name, dur)
			}
		case "M", "C":
			if _, ok := ev["args"].(map[string]any); !ok {
				t.Errorf("event %d (%s, ph=%s) missing args", i, name, ph)
			}
		case "i":
			if s, _ := ev["s"].(string); s != "t" {
				t.Errorf("event %d (%s, ph=i) has scope %q, want t", i, name, s)
			}
		default:
			t.Errorf("event %d (%s) has unknown ph %q", i, name, ph)
		}
	}
}

func testTimeline() *Timeline {
	tl := NewTimeline(TimelineConfig{
		Channels: 2, NsPerCycle: 0.8333,
		BankGroups: 2, BanksPerGroup: 2,
		ActCycles: 17, PreCycles: 17, RdCycles: 26, WrCycles: 12, RefCycles: 312,
	})
	c := tl.Channel(0)
	one := func(at int64, cmd hbm.Command, mode hbm.Mode) { c.Commands(&cmd, at, 0, 1, mode, mode) }
	one(0, hbm.Command{Kind: hbm.CmdACT, Bank: 1, Row: 42}, hbm.ModeSB)
	one(10, hbm.Command{Kind: hbm.CmdPRE, BG: 1}, hbm.ModeAB) // enters AB
	// A two-command run at 20 and 60 whose last command enters AB-PIM.
	c.Commands(&hbm.Command{Kind: hbm.CmdRD, Bank: 1, Col: 3}, 20, 40, 2, hbm.ModeAB, hbm.ModeABPIM)
	one(80, hbm.Command{Kind: hbm.CmdACT, Row: 7}, hbm.ModeABPIM) // broadcast opens every bank
	c.PIM(100, 0, 1, 8)
	one(120, hbm.Command{Kind: hbm.CmdPRE, Bank: 1}, hbm.ModeABPIM)
	one(150, hbm.Command{Kind: hbm.CmdPREA}, hbm.ModeABPIM)
	one(160, hbm.Command{Kind: hbm.CmdPRE}, hbm.ModeSB) // back to SB
	one(200, hbm.Command{Kind: hbm.CmdREF}, hbm.ModeSB)
	return tl
}

func TestWriteChromeSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := testTimeline().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	evs := decodeChrome(t, &buf)
	checkSchema(t, evs)

	find := func(ph, name string) []map[string]any {
		var out []map[string]any
		for _, ev := range evs {
			if ev["ph"] == ph && ev["name"] == name {
				out = append(out, ev)
			}
		}
		return out
	}
	// Process and track names the viewer groups by.
	wantMeta := map[string]bool{"pCH0": false, "commands": false, "mode": false, "pim instr": false}
	for _, ev := range find("M", "process_name") {
		args := ev["args"].(map[string]any)
		if n, _ := args["name"].(string); n == "pCH0" {
			wantMeta["pCH0"] = true
		}
	}
	for _, ev := range find("M", "thread_name") {
		args := ev["args"].(map[string]any)
		if n, _ := args["name"].(string); n != "" {
			if _, tracked := wantMeta[n]; tracked {
				wantMeta[n] = true
			}
		}
	}
	for name, seen := range wantMeta {
		if !seen {
			t.Errorf("missing metadata track %q", name)
		}
	}

	// Every command kind becomes an X slice with address args.
	for _, kind := range []string{"ACT", "RD", "PRE", "PREA", "REF"} {
		slices := find("X", kind)
		if len(slices) == 0 {
			t.Errorf("no X slice for %s", kind)
			continue
		}
		args := slices[0]["args"].(map[string]any)
		for _, f := range []string{"bg", "bank", "row", "col", "cycle"} {
			if _, ok := args[f]; !ok {
				t.Errorf("%s slice missing arg %s", kind, f)
			}
		}
	}

	// Mode windows: implicit SB from 0, then AB, AB-PIM, SB — all X.
	for _, mode := range []string{"SB", "AB", "AB-PIM"} {
		if len(find("X", mode)) == 0 {
			t.Errorf("no mode window for %s", mode)
		}
	}
	// An AB window must span transition-to-transition: ts 10c, end 60c.
	ab := find("X", "AB")[0]
	nsPer := 0.8333
	if got, want := ab["ts"].(float64), 10*nsPer/1000; abs(got-want) > 1e-9 {
		t.Errorf("AB window ts %v, want %v", got, want)
	}
	if got, want := ab["dur"].(float64), 50*nsPer/1000; abs(got-want) > 1e-9 {
		t.Errorf("AB window dur %v, want %v", got, want)
	}

	// PIM counter track.
	ctr := find("C", "pim_instr")
	if len(ctr) != 1 {
		t.Fatalf("got %d pim_instr counter events, want 1", len(ctr))
	}
	if v, _ := ctr[0]["args"].(map[string]any)["instr"].(float64); v != 8 {
		t.Errorf("pim_instr counter value %v, want 8", v)
	}

	// Bank-row replay: the targeted ACT opens row 42 on bank bg0.b1; the
	// broadcast ACT at cycle 80 closes it (re-opening every bank with row
	// 7), so its window runs 0..80.
	row42 := find("X", "row 42")
	if len(row42) == 0 {
		t.Fatal("no open-row window for row 42")
	}
	if got, want := row42[0]["dur"].(float64), 80*nsPer/1000; abs(got-want) > 1e-9 {
		t.Errorf("row 42 window dur %v, want %v (ACT@0 .. broadcast ACT@80)", got, want)
	}
	if got := len(find("X", "row 7")); got != 4 {
		t.Errorf("broadcast ACT opened %d row-7 windows, want 4 (one per bank)", got)
	}

	// Channel 1 recorded nothing and must not appear.
	for _, ev := range evs {
		if pid, _ := ev["pid"].(float64); pid == 1 {
			t.Errorf("empty channel 1 leaked event %v", ev["name"])
		}
	}
}

func TestWriteChromeNil(t *testing.T) {
	var tl *Timeline
	if err := tl.WriteChrome(&bytes.Buffer{}); err == nil {
		t.Fatal("nil timeline export must error")
	}
}

func TestWriteSpansSchema(t *testing.T) {
	tr := NewTracer(16)
	root := tr.Start("req-7", "request")
	q := root.Child("queue")
	time.Sleep(time.Millisecond)
	q.End()
	ex := root.Child("exec").WithShard(1)
	ex.EndWith(11486, "batch=2", nil)
	tr.Event("req-7", "redispatch", "attempt=1")
	root.End()

	var buf bytes.Buffer
	if err := WriteSpans(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	evs := decodeChrome(t, &buf)
	checkSchema(t, evs)

	byName := map[string]map[string]any{}
	for _, ev := range evs {
		if ev["ph"] == "X" || ev["ph"] == "i" {
			byName[ev["name"].(string)] = ev
		}
	}
	for _, name := range []string{"request", "queue", "exec", "redispatch"} {
		if byName[name] == nil {
			t.Fatalf("span %q missing from export", name)
		}
	}
	if byName["redispatch"]["ph"] != "i" {
		t.Errorf("instant event exported as ph %v, want i", byName["redispatch"]["ph"])
	}
	// Shard-bound spans land on shard tracks, the rest on the frontend.
	if tid := byName["exec"]["tid"].(float64); tid != float64(tidShardBase+1) {
		t.Errorf("exec span on tid %v, want shard track %d", tid, tidShardBase+1)
	}
	if tid := byName["request"]["tid"].(float64); tid != float64(tidFrontend) {
		t.Errorf("request span on tid %v, want frontend track %d", tid, tidFrontend)
	}
	// The request ID and span linkage survive the export.
	args := byName["exec"]["args"].(map[string]any)
	if args["req"] != "req-7" {
		t.Errorf("exec lost its request ID: %v", args["req"])
	}
	if _, ok := args["parent"]; !ok {
		t.Error("exec span missing parent arg")
	}
	if c, _ := args["cycles"].(float64); c != 11486 {
		t.Errorf("exec cycles arg %v, want 11486", c)
	}
	// The root's ts is the file origin (earliest span): 0.
	if ts := byName["request"]["ts"].(float64); ts != 0 {
		t.Errorf("earliest span ts %v, want 0", ts)
	}
	// Child spans must nest inside the root's [ts, ts+dur] envelope.
	rootEnd := byName["request"]["ts"].(float64) + byName["request"]["dur"].(float64)
	for _, name := range []string{"queue", "exec"} {
		ts := byName[name]["ts"].(float64)
		end := ts + byName[name]["dur"].(float64)
		if ts < 0 || end > rootEnd+1 { // +1us slack for clock granularity
			t.Errorf("%s [%v,%v] escapes root envelope [0,%v]", name, ts, end, rootEnd)
		}
	}
	// Track names for both used threads.
	var names []string
	for _, ev := range evs {
		if ev["ph"] == "M" && ev["name"] == "thread_name" {
			names = append(names, ev["args"].(map[string]any)["name"].(string))
		}
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "frontend") || !strings.Contains(joined, "shard1") {
		t.Errorf("thread names %v missing frontend/shard1", names)
	}
}

func TestWriteSpansEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSpans(&buf, nil); err != nil {
		t.Fatal(err)
	}
	evs := decodeChrome(t, &buf)
	checkSchema(t, evs)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
