package slo

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"pimsim/internal/metrics"
)

func TestParseObjective(t *testing.T) {
	cases := []struct {
		in      string
		want    Objective
		wantErr bool
	}{
		{in: "p99=20ms", want: Objective{LatencyP99: 20 * time.Millisecond, Availability: 0.99}},
		{in: "p99=20ms,avail=0.999", want: Objective{LatencyP99: 20 * time.Millisecond, Availability: 0.999}},
		{in: "p99=1s,avail=99.9", want: Objective{LatencyP99: time.Second, Availability: 0.999}},
		{in: "gold:p99=5ms", want: Objective{Tenant: "gold", LatencyP99: 5 * time.Millisecond, Availability: 0.99}},
		{in: "gold/m1:p99=5ms", want: Objective{Tenant: "gold", Model: "m1", LatencyP99: 5 * time.Millisecond, Availability: 0.99}},
		{in: "*/m1:p99=5ms", want: Objective{Model: "m1", LatencyP99: 5 * time.Millisecond, Availability: 0.99}},
		{in: "avail=0.99", wantErr: true},        // missing p99
		{in: "p99=banana", wantErr: true},        // bad duration
		{in: "p99=5ms,avail=0", wantErr: true},   // out of range
		{in: "p99=5ms,avail=150", wantErr: true}, // out of range
		{in: "p99=5ms,avail=NaN", wantErr: true}, // not finite
		{in: "p99=5ms,avail=Inf", wantErr: true}, // not finite
		{in: "p99=5ms,avail=-Inf", wantErr: true},
		{in: "p99=5ms,frobs=3", wantErr: true}, // unknown key
		{in: "p99=5ms,avail", wantErr: true},   // not k=v
	}
	for _, c := range cases {
		got, err := ParseObjective(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseObjective(%q): want error, got %+v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseObjective(%q): %v", c.in, err)
			continue
		}
		availClose := math.Abs(got.Availability-c.want.Availability) < 1e-9
		got.Availability, c.want.Availability = 0, 0
		if got != c.want || !availClose {
			t.Errorf("ParseObjective(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestObjectiveSpecificity(t *testing.T) {
	e := New(Config{Objectives: []Objective{
		{LatencyP99: 1 * time.Millisecond, Availability: 0.9},                              // wildcard
		{Model: "m1", LatencyP99: 2 * time.Millisecond, Availability: 0.9},                 // model exact
		{Tenant: "gold", LatencyP99: 3 * time.Millisecond, Availability: 0.9},              // tenant exact
		{Tenant: "gold", Model: "m1", LatencyP99: 4 * time.Millisecond, Availability: 0.9}, // both
	}}, nil)
	cases := []struct {
		tenant, model string
		wantP99       time.Duration
	}{
		{"bronze", "m2", 1 * time.Millisecond},
		{"bronze", "m1", 2 * time.Millisecond},
		{"gold", "m2", 3 * time.Millisecond},
		{"gold", "m1", 4 * time.Millisecond},
	}
	for _, c := range cases {
		o := e.matchObjective(c.tenant, c.model)
		if o == nil || o.LatencyP99 != c.wantP99 {
			t.Errorf("matchObjective(%s,%s) = %+v, want p99 %v", c.tenant, c.model, o, c.wantP99)
		}
	}
}

// TestSlowRefinement checks that an OK completion past the objective's
// latency target counts against the budget as OutcomeSlow.
func TestSlowRefinement(t *testing.T) {
	clk := newFakeClock()
	e := New(Config{
		Objectives: []Objective{{LatencyP99: 10 * time.Millisecond, Availability: 0.99}},
		Clock:      clk.Now,
	}, nil)
	e.RecordRequest("t", "m", 2*time.Millisecond, OutcomeOK, "fast-req")
	e.RecordRequest("t", "m", 50*time.Millisecond, OutcomeOK, "slow-req")
	_, _, total, bad := e.burnRates(e.getSeries("t", "m"))
	if total != 2 || bad != 1 {
		t.Fatalf("total=%d bad=%d, want 2/1", total, bad)
	}
	ex := e.getSeries("t", "m").copyExemplars()
	if len(ex) != 1 || ex[0].ReqID != "slow-req" || ex[0].Outcome != "slow" {
		t.Fatalf("exemplars = %+v, want the slow request only", ex)
	}
}

// TestExemplarRingWraps pins oldest-first eviction past ExemplarCap.
func TestExemplarRingWraps(t *testing.T) {
	clk := newFakeClock()
	e := New(Config{
		Objectives:  []Objective{{LatencyP99: time.Millisecond, Availability: 0.99}},
		ExemplarCap: 4,
		Clock:       clk.Now,
	}, nil)
	for i := 0; i < 10; i++ {
		e.RecordRequest("t", "m", time.Second, OutcomeError, fmt.Sprintf("r%d", i))
	}
	ex := e.getSeries("t", "m").copyExemplars()
	if len(ex) != 4 {
		t.Fatalf("got %d exemplars, want 4", len(ex))
	}
	for i, want := range []string{"r6", "r7", "r8", "r9"} {
		if ex[i].ReqID != want {
			t.Fatalf("exemplar[%d] = %s, want %s (oldest-first after wrap)", i, ex[i].ReqID, want)
		}
	}
}

// TestUnmatchedSeriesRecordedNotEvaluated: series without an objective
// still export dimensional metrics but never page.
func TestUnmatchedSeriesRecordedNotEvaluated(t *testing.T) {
	clk := newFakeClock()
	reg := metrics.New()
	e := New(Config{
		Objectives: []Objective{{Tenant: "gold", LatencyP99: time.Millisecond, Availability: 0.99}},
		Clock:      clk.Now,
	}, reg)
	for i := 0; i < 100; i++ {
		e.RecordRequest("bronze", "m", time.Second, OutcomeError, "r")
	}
	if tr := e.Evaluate(); len(tr) != 0 {
		t.Fatalf("unmatched series fired transitions: %+v", tr)
	}
	if st := e.Status(); len(st) != 0 {
		t.Fatalf("unmatched series in status: %+v", st)
	}
	snap := reg.Snapshot()
	name := metrics.Labels("serve_slo_requests_window", "tenant", "bronze", "model", "m", "outcome", "error")
	if got := snap.Gauge(name); got != 100 {
		t.Fatalf("dimensional window %s = %d, want 100", name, got)
	}
}

// TestNilEngineSafe: every hook is a no-op on a nil engine.
func TestNilEngineSafe(t *testing.T) {
	var e *Engine
	e.RecordRequest("t", "m", time.Millisecond, OutcomeOK, "r")
	if tr := e.Evaluate(); tr != nil {
		t.Fatal("nil Evaluate returned transitions")
	}
	if ht := e.HedgeTargets(); ht != nil {
		t.Fatal("nil HedgeTargets returned a map")
	}
	if s := e.Status(); s != nil {
		t.Fatal("nil Status returned series")
	}
	if b := e.Burning(); b != nil {
		t.Fatal("nil Burning returned series")
	}
	if tr := e.Transitions(); tr != nil {
		t.Fatal("nil Transitions returned data")
	}
}

// TestDisabledPathAllocs gates the nil-engine hooks at zero allocations —
// a server without an SLO config must pay one pointer compare, nothing
// more.
func TestDisabledPathAllocs(t *testing.T) {
	var e *Engine
	if n := testing.AllocsPerRun(1000, func() {
		e.RecordRequest("gold", "m1", 5*time.Millisecond, OutcomeOK, "req-1")
	}); n != 0 {
		t.Fatalf("disabled SLO hooks allocate %.1f/op, want 0", n)
	}
}

// TestEngineConcurrent races recorders against evaluation and status
// reads (meaningful under -race).
func TestEngineConcurrent(t *testing.T) {
	clk := newFakeClock()
	e := New(Config{
		Objectives: []Objective{{LatencyP99: time.Millisecond, Availability: 0.99}},
		Hedge:      &HedgeConfig{},
		Clock:      clk.Now,
	}, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g%2)
			for i := 0; i < 2000; i++ {
				out := Outcome(i % 4)
				e.RecordRequest(tenant, "m", time.Duration(i)*time.Microsecond, out, "r")
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		e.Evaluate()
		_ = e.Status()
		_ = e.Burning()
		_ = e.HedgeTargets()
		clk.Advance(time.Second)
	}
	wg.Wait()
}

// fakeClock mirrors the metrics test helper: hand-driven deterministic
// time.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}
