package obs

import (
	"testing"
	"time"

	"pimsim/internal/hbm"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTracer(16)
	root := tr.Start("req-1", "request")
	child := root.Child("queue")
	grand := child.Child("exec").WithShard(3)
	grand.End()
	child.End()
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if byName["request"].Parent != 0 {
		t.Errorf("root has parent %d, want 0", byName["request"].Parent)
	}
	if byName["queue"].Parent != byName["request"].ID {
		t.Errorf("queue parent %d, want root id %d", byName["queue"].Parent, byName["request"].ID)
	}
	if byName["exec"].Parent != byName["queue"].ID {
		t.Errorf("exec parent %d, want queue id %d", byName["exec"].Parent, byName["queue"].ID)
	}
	if byName["exec"].Shard != 3 {
		t.Errorf("exec shard %d, want 3", byName["exec"].Shard)
	}
	for _, name := range []string{"request", "queue", "exec"} {
		if byName[name].Req != "req-1" {
			t.Errorf("%s lost its request ID: %q", name, byName[name].Req)
		}
	}
}

func TestRingEvictionKeepsNewest(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		h := tr.Start("r", "span")
		h.EndWith(int64(i), "", nil)
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	// Oldest-first snapshot of the newest four: cycles 6,7,8,9.
	for i, sp := range spans {
		if want := int64(6 + i); sp.Cycles != want {
			t.Errorf("slot %d has cycles %d, want %d", i, sp.Cycles, want)
		}
	}
	if tr.Total() != 10 {
		t.Errorf("total %d, want 10", tr.Total())
	}
}

func TestSlowHookRootsOnly(t *testing.T) {
	tr := NewTracer(16)
	var got [][]Span
	tr.SetSlow(time.Nanosecond, func(tree []Span) { got = append(got, tree) })

	root := tr.Start("slow-1", "request")
	child := root.Child("queue")
	time.Sleep(time.Millisecond)
	child.End() // a slow child must NOT fire the hook
	if len(got) != 0 {
		t.Fatalf("hook fired %d times on a child span", len(got))
	}
	tr.Event("slow-1", "redispatch", "attempt=0")
	root.End()
	if len(got) != 1 {
		t.Fatalf("hook fired %d times, want 1", len(got))
	}
	tree := got[0]
	if len(tree) != 3 {
		t.Fatalf("tree has %d spans, want 3 (root, child, event)", len(tree))
	}
	if tree[0].Name != "request" || tree[0].Parent != 0 {
		t.Errorf("tree[0] = %q (parent %d), want the root first", tree[0].Name, tree[0].Parent)
	}
}

func TestSlowHookThreshold(t *testing.T) {
	tr := NewTracer(16)
	fired := 0
	tr.SetSlow(time.Hour, func([]Span) { fired++ })
	tr.Start("fast", "request").End()
	if fired != 0 {
		t.Fatalf("hook fired for a fast request")
	}
}

func TestEventInstant(t *testing.T) {
	tr := NewTracer(4)
	tr.Event("r-9", "driver.alloc", "base=2048 rows=4")
	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if !sp.Instant() {
		t.Errorf("event is not instant: start %v end %v", sp.Start, sp.End)
	}
	if sp.Attrs != "base=2048 rows=4" || sp.Req != "r-9" {
		t.Errorf("event lost payload: %+v", sp)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.SetSlow(time.Second, nil)
	tr.Event("r", "e", "")
	h := tr.Start("r", "root")
	if h.Enabled() {
		t.Error("nil tracer returned an enabled handle")
	}
	c := h.Child("sub").WithShard(2)
	c.End()
	h.End()
	if tr.Snapshot() != nil || tr.Total() != 0 || tr.Tree("r") != nil {
		t.Error("nil tracer retained state")
	}
}

func TestTreeCollectsByRequest(t *testing.T) {
	tr := NewTracer(32)
	r1 := tr.Start("a", "request")
	r1.Child("queue").End()
	tr.Event("a", "redispatch", "")
	r2 := tr.Start("b", "request")
	r2.Child("queue").End()
	r2.End()
	r1.End()

	tree := tr.Tree("a")
	if len(tree) != 3 {
		t.Fatalf("tree(a) has %d spans, want 3", len(tree))
	}
	if tree[0].Name != "request" || tree[0].Req != "a" {
		t.Errorf("roots first: got %q", tree[0].Name)
	}
	for _, sp := range tree {
		if sp.Req != "a" {
			t.Errorf("tree(a) contains %q from request %q", sp.Name, sp.Req)
		}
	}
	if tr.Tree("") != nil {
		t.Error("empty request ID should return nil")
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	seen := make(map[string]bool, 1000)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate request ID %q", id)
		}
		seen[id] = true
	}
}

func TestTimelineBounds(t *testing.T) {
	tl := NewTimeline(TimelineConfig{Channels: 2, MaxPerChannel: 3})
	c := tl.Channel(0)
	for i := int64(0); i < 5; i++ {
		c.Commands(&act, i, 0, 1, hbm.ModeSB, hbm.ModeSB)
	}
	if got := len(c.Cmds()); got != 3 {
		t.Errorf("log holds %d cmds, want 3 (capped)", got)
	}
	if tl.Dropped() != 2 {
		t.Errorf("dropped %d, want 2", tl.Dropped())
	}
	// A record that does not fit is dropped whole, every command counted.
	c.Commands(&rd, 10, 2, 4, hbm.ModeABPIM, hbm.ModeABPIM)
	if tl.Dropped() != 6 {
		t.Errorf("dropped %d after a 4-command run past the cap, want 6", tl.Dropped())
	}
	if tl.Channel(5) != nil || tl.Channel(-1) != nil {
		t.Error("out-of-range channel must be nil")
	}
	var nilT *Timeline
	if nilT.Channel(0) != nil || nilT.Events() != 0 || nilT.Dropped() != 0 {
		t.Error("nil timeline must be inert")
	}
	var nilC *Log
	if nilC.Cmds() != nil || nilC.Modes() != nil || nilC.PIMs() != nil || nilC.TraceEvents() != nil {
		t.Error("nil log must read as empty")
	}
}
