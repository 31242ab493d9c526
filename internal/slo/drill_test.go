package slo

// The SLO drill: deterministic burn-rate scenarios on a fake clock, zero
// sleeps, exact pinned state transitions. Wall-clock layout shared by all
// scenarios: 2s window slots, one "tick" per slot — each tick records its
// traffic at the current instant, evaluates, then advances the clock 2s.
// Windows are 10s fast / 60s slow, thresholds 10 page / 2 warn, budget 1%
// (avail 0.99), ClearAfter 3. `make slo-drill` runs this matrix under
// -race.

import (
	"testing"
	"time"
)

const (
	drillTenant = "gold"
	drillQuiet  = "bronze"
	drillModel  = "m1"

	hedgeMin     = time.Millisecond
	hedgeMax     = 64 * time.Millisecond
	hedgeInitial = 8 * time.Millisecond
)

func newDrillEngine(clk *fakeClock) *Engine {
	return New(Config{
		Objectives: []Objective{
			{Tenant: drillTenant, Model: drillModel, LatencyP99: 10 * time.Millisecond, Availability: 0.99},
			{Tenant: drillQuiet, Model: drillModel, LatencyP99: 10 * time.Millisecond, Availability: 0.99},
		},
		FastWindow: 10 * time.Second,
		SlowWindow: 60 * time.Second,
		PageBurn:   10,
		WarnBurn:   2,
		ClearAfter: 3,
		Clock:      clk.Now,
		Hedge: &HedgeConfig{
			Min: hedgeMin, Max: hedgeMax, Factor: 2,
			HysteresisPct: 0.2, Initial: hedgeInitial,
		},
	}, nil)
}

// tick records one slot of traffic for both tenants and evaluates:
// 10 gold requests at goldLat, 10 bronze requests at a healthy 2ms.
func tick(clk *fakeClock, e *Engine, goldLat time.Duration) []Transition {
	for i := 0; i < 10; i++ {
		e.RecordRequest(drillTenant, drillModel, goldLat, OutcomeOK, "gold-req")
		e.RecordRequest(drillQuiet, drillModel, 2*time.Millisecond, OutcomeOK, "bronze-req")
	}
	tr := e.Evaluate()
	clk.Advance(2 * time.Second)
	return tr
}

func hedgeFor(t *testing.T, e *Engine, model string) time.Duration {
	t.Helper()
	d, ok := e.HedgeTargets()[model]
	if !ok {
		t.Fatalf("no hedge target for %s", model)
	}
	return d
}

func stateFor(t *testing.T, e *Engine, tenant string) string {
	t.Helper()
	for _, s := range e.Status() {
		if s.Tenant == tenant {
			return s.State
		}
	}
	t.Fatalf("no status series for tenant %s", tenant)
	return ""
}

// TestDrillSteady: healthy traffic never transitions, and the hedge
// controller converges from its static seed down to tracking the observed
// p99 (2ms traffic → target well under the 8ms seed, never the floor).
func TestDrillSteady(t *testing.T) {
	clk := newFakeClock()
	e := newDrillEngine(clk)
	for i := 0; i < 30; i++ {
		if tr := tick(clk, e, 2*time.Millisecond); len(tr) != 0 {
			t.Fatalf("tick %d: unexpected transitions %+v", i, tr)
		}
	}
	if got := stateFor(t, e, drillTenant); got != "ok" {
		t.Fatalf("steady state = %s, want ok", got)
	}
	for _, s := range e.Status() {
		if s.FastBurn != 0 || s.SlowBurn != 0 {
			t.Fatalf("steady burn nonzero: %+v", s)
		}
		// 60s window = 30 slots × 10 req, but the last advance pushed the
		// first slot out: the window holds exactly the retained slots.
		if s.WindowBad != 0 {
			t.Fatalf("steady window bad = %d, want 0", s.WindowBad)
		}
	}
	h := hedgeFor(t, e, drillModel)
	if h <= hedgeMin || h >= hedgeInitial {
		t.Fatalf("steady hedge = %v, want tracking observed p99 in (%v, %v)", h, hedgeMin, hedgeInitial)
	}
	if len(e.Burning()) != 0 {
		t.Fatal("steady scenario reports burning series")
	}
}

// TestDrillBurnAndRecover is the tentpole scenario: a latency spike trips
// the fast window (warn on the first bad slot, page when the slow window
// catches up), the hedge controller slams to its floor, and after the
// spike clears the state steps back down one level per ClearAfter clean
// evaluations while the hedge relaxes. Every transition is pinned to its
// exact tick.
func TestDrillBurnAndRecover(t *testing.T) {
	clk := newFakeClock()
	e := newDrillEngine(clk)

	// Phase 1 — baseline: 20 clean ticks (40s of good traffic).
	for i := 0; i < 20; i++ {
		if tr := tick(clk, e, 2*time.Millisecond); len(tr) != 0 {
			t.Fatalf("baseline tick %d: unexpected transitions %+v", i, tr)
		}
	}

	// Phase 2 — spike: gold's requests complete at 50ms against a 10ms
	// objective. Expected: tick 1 flips ok→warn (fast burn 20, slow burn
	// 210-total ≈ 4.8), tick 3 flips warn→page (slow burn crosses 10).
	spikeEdges := map[int][2]string{0: {"ok", "warn"}, 2: {"warn", "page"}}
	for i := 0; i < 5; i++ {
		tr := tick(clk, e, 50*time.Millisecond)
		want, wantEdge := spikeEdges[i]
		if wantEdge {
			if len(tr) != 1 || tr[0].From != want[0] || tr[0].To != want[1] || tr[0].Tenant != drillTenant {
				t.Fatalf("spike tick %d: transitions %+v, want %s→%s for %s", i, tr, want[0], want[1], drillTenant)
			}
		} else if len(tr) != 0 {
			t.Fatalf("spike tick %d: unexpected transitions %+v", i, tr)
		}
	}
	if got := stateFor(t, e, drillTenant); got != "page" {
		t.Fatalf("after spike: state = %s, want page", got)
	}
	// The quiet tenant shares the model but never leaves ok: per-tenant
	// isolation.
	if got := stateFor(t, e, drillQuiet); got != "ok" {
		t.Fatalf("quiet tenant dragged to %s by gold's burn", got)
	}
	// Hedge slammed to the floor while paging.
	if h := hedgeFor(t, e, drillModel); h != hedgeMin {
		t.Fatalf("paging hedge = %v, want floor %v", h, hedgeMin)
	}
	// The burning series carries exemplars pointing at real request IDs.
	burning := e.Burning()
	if len(burning) != 1 || burning[0].Tenant != drillTenant || burning[0].State != "page" {
		t.Fatalf("burning = %+v, want gold paging", burning)
	}
	if len(burning[0].Exemplars) == 0 || burning[0].Exemplars[0].ReqID != "gold-req" {
		t.Fatalf("burning exemplars = %+v, want gold-req IDs", burning[0].Exemplars)
	}

	// Phase 3 — recovery: clean traffic. The fast window still holds
	// spike slots through tick 4 (level stays page); ticks 5-7 are clean
	// (page→warn on the 3rd), ticks 8-10 clean again (warn→ok on the
	// 3rd).
	recoverEdges := map[int][2]string{6: {"page", "warn"}, 9: {"warn", "ok"}}
	for i := 0; i < 12; i++ {
		tr := tick(clk, e, 2*time.Millisecond)
		want, wantEdge := recoverEdges[i]
		if wantEdge {
			if len(tr) != 1 || tr[0].From != want[0] || tr[0].To != want[1] {
				t.Fatalf("recovery tick %d: transitions %+v, want %s→%s", i, tr, want[0], want[1])
			}
		} else if len(tr) != 0 {
			t.Fatalf("recovery tick %d: unexpected transitions %+v", i, tr)
		}
	}
	if got := stateFor(t, e, drillTenant); got != "ok" {
		t.Fatalf("after recovery: state = %s, want ok", got)
	}
	// Hedge relaxed off the floor once the objective recovered.
	if h := hedgeFor(t, e, drillModel); h <= hedgeMin {
		t.Fatalf("recovered hedge = %v, want relaxed above %v", h, hedgeMin)
	}

	// The full transition log, in order: exactly these four edges.
	wantLog := [][2]string{{"ok", "warn"}, {"warn", "page"}, {"page", "warn"}, {"warn", "ok"}}
	log := e.Transitions()
	if len(log) != len(wantLog) {
		t.Fatalf("transition log has %d entries (%+v), want %d", len(log), log, len(wantLog))
	}
	for i, w := range wantLog {
		if log[i].From != w[0] || log[i].To != w[1] || log[i].Tenant != drillTenant || log[i].Model != drillModel {
			t.Fatalf("log[%d] = %+v, want %s→%s", i, log[i], w[0], w[1])
		}
	}

	// Pinned per-tenant counts at the end. The final tick's advance moved
	// the clock one slot past the last recorded slot, so the 60s window
	// holds 29 populated slots: 5 spike slots (50 bad) plus 24 good ones
	// for gold; the quiet tenant is all good.
	for _, s := range e.Status() {
		switch s.Tenant {
		case drillTenant:
			if s.WindowTotal != 290 || s.WindowBad != 50 {
				t.Fatalf("gold window = %d/%d bad, want 290/50", s.WindowTotal, s.WindowBad)
			}
		case drillQuiet:
			if s.WindowTotal != 290 || s.WindowBad != 0 {
				t.Fatalf("bronze window = %d/%d bad, want 290/0", s.WindowTotal, s.WindowBad)
			}
		}
	}
}

// TestDrillShedStorm: availability burn without any latency signal — a
// storm of shed requests (no completions at all) must still page and must
// still drive the hedge to its floor even though the latency window is
// empty. With half the young history bad, both windows blow straight past
// the page threshold, so the state machine escalates ok→page in a single
// evaluation — escalation is immediate and unladdered by design.
func TestDrillShedStorm(t *testing.T) {
	clk := newFakeClock()
	e := newDrillEngine(clk)
	// Warm the model's hedge state with one healthy tick.
	tick(clk, e, 2*time.Millisecond)
	var transitions []Transition
	for i := 0; i < 6; i++ {
		for j := 0; j < 10; j++ {
			e.RecordRequest(drillTenant, drillModel, 0, OutcomeShed, "storm-req")
		}
		transitions = append(transitions, e.Evaluate()...)
		clk.Advance(2 * time.Second)
	}
	if got := stateFor(t, e, drillTenant); got != "page" {
		t.Fatalf("shed storm: state = %s, want page", got)
	}
	if len(transitions) != 1 || transitions[0].From != "ok" || transitions[0].To != "page" {
		t.Fatalf("shed storm transitions = %+v, want a single ok→page edge", transitions)
	}
	if h := hedgeFor(t, e, drillModel); h != hedgeMin {
		t.Fatalf("shed-storm hedge = %v, want floor %v (page overrides empty window)", h, hedgeMin)
	}
}
