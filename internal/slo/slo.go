// Package slo turns the serving stack's observability into a control
// input: per-tenant/per-model service-level objectives (a latency target
// and an availability target), evaluated with multi-window burn rates
// against sliding-window metrics, driving an ok → warn → page state
// machine with exemplars that link every burning objective to concrete
// request IDs in the flight recorder.
//
// The burn-rate formulation is the standard SRE one. An objective grants
// an error budget of 1−availability; the burn rate over a window is the
// observed bad-request ratio divided by that budget (burn 1 = spending
// the budget exactly on schedule, burn 10 = ten times too fast). A page
// requires BOTH the fast and the slow window to exceed the page
// threshold: the fast window makes paging responsive, the slow window
// stops a two-second blip from waking anyone. "Bad" covers requests that
// failed (5xx), were shed, or completed slower than the latency
// objective — a request that is correct but late still spends budget.
//
// The engine is deliberately clock-driven and deterministic: it does no
// background work of its own. Callers feed it records, call Evaluate on
// their own cadence, and read back transitions, hedge-delay targets and
// ops summaries. Tests drive entire burn scenarios on a fake clock with
// zero sleeps (see drill_test.go).
//
// Every public method is nil-receiver safe and the disabled path is
// zero-allocation, following the internal/fault and internal/obs hook
// discipline: a Server without an SLO config pays one pointer compare
// per hook.
package slo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pimsim/internal/metrics"
)

// Outcome classifies one finished (or refused) request for SLO purposes.
type Outcome int

const (
	// OutcomeOK is a successful completion. The engine refines it to
	// OutcomeSlow when the recorded latency exceeds the matched
	// objective's latency target.
	OutcomeOK Outcome = iota
	// OutcomeSlow is a success that missed the latency objective.
	OutcomeSlow
	// OutcomeError is a server-side failure (5xx class).
	OutcomeError
	// OutcomeShed is an admission-control rejection (429 class).
	OutcomeShed
)

// String returns the label value used on dimensional series.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeSlow:
		return "slow"
	case OutcomeError:
		return "error"
	case OutcomeShed:
		return "shed"
	}
	return "unknown"
}

// State is one series' position in the ok → warn → page ladder.
type State int

const (
	StateOK State = iota
	StateWarn
	StatePage
)

// String returns "ok", "warn" or "page".
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateWarn:
		return "warn"
	case StatePage:
		return "page"
	}
	return "unknown"
}

// Objective is one SLO: requests matching (Tenant, Model) must complete
// within LatencyP99 at least Availability of the time. Empty Tenant or
// Model is a wildcard; the most specific matching objective wins (both
// exact > tenant exact > model exact > both wildcard).
type Objective struct {
	Tenant       string        `json:"tenant,omitempty"`
	Model        string        `json:"model,omitempty"`
	LatencyP99   time.Duration `json:"latency_p99"`
	Availability float64       `json:"availability"`
}

func (o Objective) specificity() int {
	n := 0
	if o.Tenant != "" {
		n += 2
	}
	if o.Model != "" {
		n++
	}
	return n
}

func (o Objective) matches(tenant, model string) bool {
	return (o.Tenant == "" || o.Tenant == tenant) && (o.Model == "" || o.Model == model)
}

// HedgeConfig closes the loop from observed tail latency to the serving
// hedge delay. The controller tracks Factor × fast-window p99, clamped to
// [Min, Max]; a series in warn halves the target, a page drops it to Min
// (hedge as aggressively as allowed while the objective burns). Changes
// under HysteresisPct of the current value are suppressed so the delay
// doesn't flap step to step.
type HedgeConfig struct {
	Min           time.Duration `json:"min"`
	Max           time.Duration `json:"max"`
	Factor        float64       `json:"factor"`
	HysteresisPct float64       `json:"hysteresis_pct"`
	// Initial seeds each model's delay before the first window fills
	// (typically the static -hedge-delay value).
	Initial time.Duration `json:"initial"`
}

// Config configures an Engine. Zero fields take the documented defaults.
type Config struct {
	Objectives []Objective

	// FastWindow and SlowWindow are the two burn-rate windows
	// (defaults 10s and 60s). SlowWindow is also the error-budget
	// accounting window.
	FastWindow time.Duration
	SlowWindow time.Duration

	// PageBurn and WarnBurn are burn-rate thresholds; a level is entered
	// when BOTH windows exceed its threshold (defaults 10 and 2).
	PageBurn float64
	WarnBurn float64

	// ClearAfter is how many consecutive clean evaluations step the state
	// down one level (default 3). Escalation is immediate.
	ClearAfter int

	// ExemplarCap bounds the per-series exemplar ring (default 8).
	ExemplarCap int

	// EvalEvery is the serving layer's evaluation cadence (default 2s;
	// <0 disables the background loop — tests call Evaluate directly).
	EvalEvery time.Duration

	// Clock injects time for the windows, the state machine and the
	// transition log. Defaults to time.Now.
	Clock func() time.Time

	// Hedge enables the hedge-delay controller; nil leaves hedge delays
	// entirely to the static configuration.
	Hedge *HedgeConfig
}

func (c Config) withDefaults() Config {
	if c.FastWindow <= 0 {
		c.FastWindow = 10 * time.Second
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = 60 * time.Second
	}
	if c.SlowWindow < c.FastWindow {
		c.SlowWindow = c.FastWindow
	}
	if c.PageBurn <= 0 {
		c.PageBurn = 10
	}
	if c.WarnBurn <= 0 {
		c.WarnBurn = 2
	}
	if c.ClearAfter <= 0 {
		c.ClearAfter = 3
	}
	if c.ExemplarCap <= 0 {
		c.ExemplarCap = 8
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 2 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Hedge != nil {
		h := *c.Hedge
		if h.Min <= 0 {
			h.Min = time.Millisecond
		}
		if h.Max <= 0 {
			h.Max = 250 * time.Millisecond
		}
		if h.Max < h.Min {
			h.Max = h.Min
		}
		if h.Factor <= 0 {
			h.Factor = 1.5
		}
		if h.HysteresisPct <= 0 {
			h.HysteresisPct = 0.2
		}
		c.Hedge = &h
	}
	return c
}

// Exemplar links one bad tail observation to its request ID, so a burning
// SLO resolves to concrete span trees in the flight recorder.
type Exemplar struct {
	Tenant  string        `json:"tenant"`
	Model   string        `json:"model"`
	ReqID   string        `json:"request_id"`
	Latency time.Duration `json:"latency_ns"`
	Outcome string        `json:"outcome"`
	At      time.Time     `json:"at"`
}

// Transition is one state-machine edge, kept in a bounded log for the ops
// surface and pinned exactly by the drill tests.
type Transition struct {
	At       time.Time `json:"at"`
	Tenant   string    `json:"tenant"`
	Model    string    `json:"model"`
	From     string    `json:"from"`
	To       string    `json:"to"`
	FastBurn float64   `json:"fast_burn"`
	SlowBurn float64   `json:"slow_burn"`
}

// SeriesStatus is one (tenant, model) series' evaluated state for the ops
// surface.
type SeriesStatus struct {
	Tenant          string  `json:"tenant"`
	Model           string  `json:"model"`
	State           string  `json:"state"`
	FastBurn        float64 `json:"fast_burn"`
	SlowBurn        float64 `json:"slow_burn"`
	BudgetRemaining float64 `json:"budget_remaining"`
	ObjectiveP99Us  int64   `json:"objective_p99_us"`
	Availability    float64 `json:"availability"`
	WindowTotal     int64   `json:"window_total"`
	WindowBad       int64   `json:"window_bad"`
	P50Us           float64 `json:"p50_us"`
	P95Us           float64 `json:"p95_us"`
	P99Us           float64 `json:"p99_us"`
}

const transitionCap = 128

// Engine evaluates SLOs over sliding windows. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops).
type Engine struct {
	cfg Config
	reg *metrics.Registry
	now func() time.Time

	mu     sync.RWMutex
	series map[seriesKey]*series
	models map[string]*modelCtl

	transMu     sync.Mutex
	transitions []Transition
}

type seriesKey struct{ tenant, model string }

// series is one (tenant, model) pair's windows and state.
type series struct {
	tenant, model string
	obj           *Objective // nil: recorded but not evaluated

	outcomes [4]*metrics.WindowCounter // indexed by Outcome
	lat      *metrics.WindowHistogram

	stateGauge *metrics.Gauge
	fastGauge  *metrics.Gauge // burn × 1000
	slowGauge  *metrics.Gauge

	mu          sync.Mutex
	state       State
	cleanStreak int
	exemplars   []Exemplar // ring
	exNext      int
	exCount     int
}

// modelCtl is one model's hedge controller state and latency window.
type modelCtl struct {
	lat        *metrics.WindowHistogram
	hedgeGauge *metrics.Gauge
	hedgeNs    int64 // current target; engine-internal, mu-protected
}

// latBounds covers 25µs .. ~50s in ×2 steps: wide enough for simulated
// device latencies and timeouts, fine enough to interpolate a usable p99.
func latBounds() []int64 { return metrics.ExpBuckets(25, 2, 22) }

// New builds an engine. reg receives the dimensional windowed series
// (nil gets a private registry, for tests that only care about verdicts).
func New(cfg Config, reg *metrics.Registry) *Engine {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = metrics.New()
	}
	e := &Engine{
		cfg:    cfg,
		reg:    reg,
		now:    cfg.Clock,
		series: make(map[seriesKey]*series),
		models: make(map[string]*modelCtl),
	}
	reg.SetHelp("serve_slo_requests_window", "requests in the slow SLO window by tenant, model and outcome")
	reg.SetHelp("serve_slo_latency_us_window", "request wall latency over the slow SLO window (us)")
	reg.SetHelp("serve_slo_state", "SLO state per series: 0 ok, 1 warn, 2 page")
	reg.SetHelp("serve_slo_burn_fast_x1000", "fast-window burn rate x1000")
	reg.SetHelp("serve_slo_burn_slow_x1000", "slow-window burn rate x1000")
	reg.SetHelp("serve_slo_model_latency_us_window", "per-model wall latency over the fast window, drives the hedge controller (us)")
	reg.SetHelp("serve_slo_hedge_delay_us", "current hedge-delay target per model (us)")
	return e
}

// Config returns the normalized configuration (zero Config when nil).
func (e *Engine) Config() Config {
	if e == nil {
		return Config{}
	}
	return e.cfg
}

// windowOpts sizes every window ring: slow-window width, 2s slots by
// default (30 slots at the 60s default), never fewer than 6 slots so the
// fast window spans at least a slot.
func (e *Engine) windowOpts() metrics.WindowOpts {
	slots := int(e.cfg.SlowWindow / (2 * time.Second))
	if slots < 6 {
		slots = 6
	}
	return metrics.WindowOpts{Width: e.cfg.SlowWindow, Slots: slots, Clock: metrics.Clock(e.now)}
}

// matchObjective returns the most specific objective for (tenant, model),
// or nil.
func (e *Engine) matchObjective(tenant, model string) *Objective {
	var best *Objective
	bestSpec := -1
	for i := range e.cfg.Objectives {
		o := &e.cfg.Objectives[i]
		if o.matches(tenant, model) && o.specificity() > bestSpec {
			best, bestSpec = o, o.specificity()
		}
	}
	return best
}

// getSeries returns the series for (tenant, model), creating it on first
// use.
func (e *Engine) getSeries(tenant, model string) *series {
	k := seriesKey{tenant, model}
	e.mu.RLock()
	s := e.series[k]
	e.mu.RUnlock()
	if s != nil {
		return s
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if s = e.series[k]; s != nil {
		return s
	}
	o := e.windowOpts()
	s = &series{
		tenant: tenant,
		model:  model,
		obj:    e.matchObjective(tenant, model),
		lat:    e.reg.WindowHistogram(metrics.Labels("serve_slo_latency_us_window", "tenant", tenant, "model", model), latBounds(), o),
	}
	for out := OutcomeOK; out <= OutcomeShed; out++ {
		s.outcomes[out] = e.reg.WindowCounter(
			metrics.Labels("serve_slo_requests_window", "tenant", tenant, "model", model, "outcome", out.String()), o)
	}
	if s.obj != nil {
		s.stateGauge = e.reg.Gauge(metrics.Labels("serve_slo_state", "tenant", tenant, "model", model))
		s.fastGauge = e.reg.Gauge(metrics.Labels("serve_slo_burn_fast_x1000", "tenant", tenant, "model", model))
		s.slowGauge = e.reg.Gauge(metrics.Labels("serve_slo_burn_slow_x1000", "tenant", tenant, "model", model))
	}
	e.series[k] = s
	return s
}

// getModel returns the model's hedge controller, creating it on first use.
func (e *Engine) getModel(model string) *modelCtl {
	e.mu.RLock()
	m := e.models[model]
	e.mu.RUnlock()
	if m != nil {
		return m
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if m = e.models[model]; m != nil {
		return m
	}
	o := e.windowOpts()
	m = &modelCtl{
		lat:        e.reg.WindowHistogram(metrics.Labels("serve_slo_model_latency_us_window", "model", model), latBounds(), o),
		hedgeGauge: e.reg.Gauge(metrics.Labels("serve_slo_hedge_delay_us", "model", model)),
	}
	if e.cfg.Hedge != nil {
		m.hedgeNs = int64(e.cfg.Hedge.Initial)
		m.hedgeGauge.Set(m.hedgeNs / 1000)
	}
	e.models[model] = m
	return m
}

// RecordRequest records one finished (or refused) request. OutcomeOK is
// refined to OutcomeSlow when wall exceeds the matched objective's
// latency target. Completed requests (ok/slow) also feed the latency
// windows; sheds and errors feed availability only. Bad outcomes push an
// exemplar carrying reqID so the burning series links to span trees.
func (e *Engine) RecordRequest(tenant, model string, wall time.Duration, out Outcome, reqID string) {
	if e == nil {
		return
	}
	s := e.getSeries(tenant, model)
	if out == OutcomeOK && s.obj != nil && s.obj.LatencyP99 > 0 && wall > s.obj.LatencyP99 {
		out = OutcomeSlow
	}
	if out < 0 || out > OutcomeShed {
		out = OutcomeError
	}
	s.outcomes[out].Inc()
	if out == OutcomeOK || out == OutcomeSlow {
		us := wall.Microseconds()
		s.lat.Observe(us)
		e.getModel(model).lat.Observe(us)
	}
	if out != OutcomeOK {
		s.pushExemplar(Exemplar{
			Tenant: tenant, Model: model, ReqID: reqID,
			Latency: wall, Outcome: out.String(), At: e.now(),
		}, e.cfg.ExemplarCap)
	}
}

func (s *series) pushExemplar(x Exemplar, cap_ int) {
	s.mu.Lock()
	if len(s.exemplars) < cap_ {
		s.exemplars = append(s.exemplars, x)
	} else {
		s.exemplars[s.exNext] = x
	}
	s.exNext = (s.exNext + 1) % cap_
	s.exCount++
	s.mu.Unlock()
}

// burnRates returns the fast and slow burn rates plus the slow-window
// good/bad split for one evaluated series.
func (e *Engine) burnRates(s *series) (fast, slow float64, total, bad int64) {
	budget := 1 - s.obj.Availability
	if budget <= 0 {
		budget = 1e-9 // a 100% objective burns infinitely fast on any failure
	}
	ratio := func(w time.Duration) (float64, int64, int64) {
		var good, bad int64
		good = s.outcomes[OutcomeOK].Total(w)
		for out := OutcomeSlow; out <= OutcomeShed; out++ {
			bad += s.outcomes[out].Total(w)
		}
		t := good + bad
		if t == 0 {
			return 0, 0, 0
		}
		return float64(bad) / float64(t), t, bad
	}
	fr, _, _ := ratio(e.cfg.FastWindow)
	sr, total, bad := ratio(e.cfg.SlowWindow)
	return fr / budget, sr / budget, total, bad
}

// Evaluate runs one state-machine step over every evaluated series, then
// the hedge controller over every model. It returns the transitions that
// fired (also appended to the bounded log). Callers own the cadence; the
// serving layer ticks it on Config.EvalEvery.
func (e *Engine) Evaluate() []Transition {
	if e == nil {
		return nil
	}
	e.mu.RLock()
	all := make([]*series, 0, len(e.series))
	for _, s := range e.series {
		all = append(all, s)
	}
	models := make(map[string]*modelCtl, len(e.models))
	for name, m := range e.models {
		models[name] = m
	}
	e.mu.RUnlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].tenant != all[j].tenant {
			return all[i].tenant < all[j].tenant
		}
		return all[i].model < all[j].model
	})

	now := e.now()
	var fired []Transition
	worst := make(map[string]State, len(models)) // per-model worst state
	for _, s := range all {
		if s.obj == nil {
			continue
		}
		fast, slow, _, _ := e.burnRates(s)
		level := StateOK
		if fast >= e.cfg.PageBurn && slow >= e.cfg.PageBurn {
			level = StatePage
		} else if fast >= e.cfg.WarnBurn && slow >= e.cfg.WarnBurn {
			level = StateWarn
		}
		s.mu.Lock()
		from := s.state
		switch {
		case level > s.state: // escalate immediately
			s.state = level
			s.cleanStreak = 0
		case level < s.state: // de-escalate one level per ClearAfter clean evals
			s.cleanStreak++
			if s.cleanStreak >= e.cfg.ClearAfter {
				s.state--
				s.cleanStreak = 0
			}
		default:
			s.cleanStreak = 0
		}
		to := s.state
		s.mu.Unlock()
		if s.stateGauge != nil {
			s.stateGauge.Set(int64(to))
			s.fastGauge.Set(int64(fast * 1000))
			s.slowGauge.Set(int64(slow * 1000))
		}
		if w, ok := worst[s.model]; !ok || to > w {
			worst[s.model] = to
		}
		if from != to {
			fired = append(fired, Transition{
				At: now, Tenant: s.tenant, Model: s.model,
				From: from.String(), To: to.String(),
				FastBurn: fast, SlowBurn: slow,
			})
		}
	}
	if len(fired) > 0 {
		e.transMu.Lock()
		e.transitions = append(e.transitions, fired...)
		if n := len(e.transitions); n > transitionCap {
			e.transitions = append(e.transitions[:0], e.transitions[n-transitionCap:]...)
		}
		e.transMu.Unlock()
	}

	if e.cfg.Hedge != nil {
		for name, m := range models {
			e.stepHedge(m, worst[name])
		}
	}
	return fired
}

// stepHedge runs one controller step for a model: target the observed
// fast-window p99 scaled by Factor, clamped to [Min, Max]; tighten under
// warn/page; suppress sub-hysteresis changes.
func (e *Engine) stepHedge(m *modelCtl, worst State) {
	h := e.cfg.Hedge
	snap := m.lat.Snapshot(e.cfg.FastWindow)
	if snap.Count == 0 && worst < StatePage {
		return // no signal, no change (a page overrides: tighten blind)
	}
	target := time.Duration(h.Factor * snap.Quantile(0.99) * float64(time.Microsecond))
	if target < h.Min {
		target = h.Min
	}
	if target > h.Max {
		target = h.Max
	}
	switch worst {
	case StatePage:
		target = h.Min
	case StateWarn:
		if target/2 > h.Min {
			target /= 2
		} else {
			target = h.Min
		}
	}
	e.mu.Lock()
	cur := m.hedgeNs
	delta := int64(target) - cur
	if delta < 0 {
		delta = -delta
	}
	if cur == 0 || float64(delta) > h.HysteresisPct*float64(cur) {
		m.hedgeNs = int64(target)
	}
	ns := m.hedgeNs
	e.mu.Unlock()
	m.hedgeGauge.Set(ns / 1000)
}

// HedgeTargets returns the current per-model hedge-delay targets, empty
// when the controller is disabled.
func (e *Engine) HedgeTargets() map[string]time.Duration {
	if e == nil || e.cfg.Hedge == nil {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[string]time.Duration, len(e.models))
	for name, m := range e.models {
		if m.hedgeNs > 0 {
			out[name] = time.Duration(m.hedgeNs)
		}
	}
	return out
}

// Status summarizes every evaluated series, sorted by tenant then model.
func (e *Engine) Status() []SeriesStatus {
	if e == nil {
		return nil
	}
	e.mu.RLock()
	all := make([]*series, 0, len(e.series))
	for _, s := range e.series {
		if s.obj != nil {
			all = append(all, s)
		}
	}
	e.mu.RUnlock()
	out := make([]SeriesStatus, 0, len(all))
	for _, s := range all {
		fast, slow, total, bad := e.burnRates(s)
		budget := 1 - s.obj.Availability
		remaining := 1.0
		if total > 0 && budget > 0 {
			remaining = 1 - (float64(bad)/float64(total))/budget
		}
		if remaining < 0 {
			remaining = 0
		}
		lat := s.lat.Snapshot(e.cfg.FastWindow)
		s.mu.Lock()
		st := s.state
		s.mu.Unlock()
		out = append(out, SeriesStatus{
			Tenant: s.tenant, Model: s.model, State: st.String(),
			FastBurn: fast, SlowBurn: slow, BudgetRemaining: remaining,
			ObjectiveP99Us: s.obj.LatencyP99.Microseconds(),
			Availability:   s.obj.Availability,
			WindowTotal:    total, WindowBad: bad,
			P50Us: lat.Quantile(0.50), P95Us: lat.Quantile(0.95), P99Us: lat.Quantile(0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Model < out[j].Model
	})
	return out
}

func (s *series) copyExemplars() []Exemplar {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Exemplar, 0, len(s.exemplars))
	if s.exCount <= len(s.exemplars) { // never wrapped: insertion order
		return append(out, s.exemplars...)
	}
	for i := 0; i < len(s.exemplars); i++ { // wrapped: oldest sits at exNext
		out = append(out, s.exemplars[(s.exNext+i)%len(s.exemplars)])
	}
	return out
}

// Burning returns the exemplars of every series currently in warn or
// page, grouped per series and sorted by tenant then model — the payload
// behind GET /debug/slow.
func (e *Engine) Burning() []SeriesExemplars {
	if e == nil {
		return nil
	}
	e.mu.RLock()
	all := make([]*series, 0, len(e.series))
	for _, s := range e.series {
		all = append(all, s)
	}
	e.mu.RUnlock()
	var out []SeriesExemplars
	for _, s := range all {
		s.mu.Lock()
		st := s.state
		s.mu.Unlock()
		if st == StateOK {
			continue
		}
		out = append(out, SeriesExemplars{
			Tenant: s.tenant, Model: s.model, State: st.String(),
			Exemplars: s.copyExemplars(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Model < out[j].Model
	})
	return out
}

// SeriesExemplars is one burning series' exemplar set.
type SeriesExemplars struct {
	Tenant    string     `json:"tenant"`
	Model     string     `json:"model"`
	State     string     `json:"state"`
	Exemplars []Exemplar `json:"exemplars"`
}

// Transitions returns a copy of the bounded transition log, oldest first.
func (e *Engine) Transitions() []Transition {
	if e == nil {
		return nil
	}
	e.transMu.Lock()
	defer e.transMu.Unlock()
	return append([]Transition(nil), e.transitions...)
}

// ParseObjective parses "tenant/model:p99=<dur>,avail=<pct>" (tenant and
// model may be "*" or empty for wildcards; the "tenant/model:" prefix is
// optional and absent means both wildcard). pct accepts 0.999 or 99.9.
func ParseObjective(s string) (Objective, error) {
	o := Objective{Availability: 0.99}
	spec := s
	if head, rest, ok := strings.Cut(spec, ":"); ok && !strings.Contains(head, "=") {
		spec = rest
		if t, m, ok := strings.Cut(head, "/"); ok {
			o.Tenant, o.Model = wild(t), wild(m)
		} else {
			o.Tenant = wild(head)
		}
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return o, fmt.Errorf("slo: bad objective part %q (want k=v)", part)
		}
		switch k {
		case "p99":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return o, fmt.Errorf("slo: bad p99 %q", v)
			}
			o.LatencyP99 = d
		case "avail":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return o, fmt.Errorf("slo: bad avail %q", v)
			}
			if f > 1 { // 99.9 means 99.9%
				f /= 100
			}
			// Written so NaN fails too: ParseFloat accepts "NaN", and a NaN
			// target makes every burn rate NaN (never warns or pages) and
			// the objective unencodable as JSON.
			if !(f > 0 && f <= 1) {
				return o, fmt.Errorf("slo: avail %q out of range (want a finite fraction in (0, 1] or a percentage)", v)
			}
			o.Availability = f
		default:
			return o, fmt.Errorf("slo: unknown objective key %q", k)
		}
	}
	if o.LatencyP99 <= 0 {
		return o, fmt.Errorf("slo: objective %q missing p99", s)
	}
	return o, nil
}

func wild(s string) string {
	if s == "*" {
		return ""
	}
	return s
}
