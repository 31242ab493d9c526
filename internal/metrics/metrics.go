// Package metrics is the unified instrumentation layer of the simulator:
// a lightweight registry of named counters, gauges and histograms with
// snapshot/diff semantics and JSON / Prometheus text exposition.
//
// Naming scheme: `<subsystem>_<metric>[_total]` with an optional
// Prometheus-style label suffix baked into the name, e.g.
//
//	memctrl_row_hits_total          demand row hits (FR-FCFS scheduler)
//	hbm_bank_act_total{bank="3"}    ACT commands observed by bank 3
//	pim_instr_total{op="MAC"}       MAC instructions retired
//
// Counters and histograms are cumulative and monotone; gauges are levels.
// Each thing is counted once, by the component that owns it. The serving
// layer's metrics are registry handles, one atomic value each, written
// from any goroutine (Inc, Add, Set, Observe) and safe to Snapshot
// mid-flight. The simulator's counters are plain fields of the channel
// that owns them (hbm.Stats, the PIM executor's retire counts,
// memctrl.Stats, the runtime's phase ledger): one host thread group drives
// each pseudo channel, so they need no atomics, and a collector bridges
// them into each Snapshot. Collectors read foreign state unsynchronized,
// so their output is only exact while the instrumented components are
// quiescent.
package metrics

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds the named metrics of one simulated system.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	winHists   map[string]*WindowHistogram
	winCounts  map[string]*WindowCounter
	help       map[string]string
	collectors []Collector
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		hists:     make(map[string]*Histogram),
		winHists:  make(map[string]*WindowHistogram),
		winCounts: make(map[string]*WindowCounter),
		help:      make(map[string]string),
	}
}

// SetHelp records a # HELP line for a metric base name (label suffixes
// stripped, so help is set once per family regardless of which series
// registers it).
func (r *Registry) SetHelp(name, help string) {
	base := name
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base = name[:i]
	}
	r.mu.Lock()
	r.help[base] = help
	r.mu.Unlock()
}

// Counter returns the counter registered under name, creating it on first
// use. Registering a name as two different metric kinds panics: metric
// names are a global contract.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkKind(name, "counter")
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkKind(name, "gauge")
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given ascending bucket upper bounds on first use (an implicit +Inf
// bucket is appended).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkKind(name, "histogram")
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{
		name:    name,
		bounds:  append([]int64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// WindowHistogram returns the sliding-window histogram registered under
// name, creating it on first use with the given ascending bucket bounds
// and window sizing. Windowed histograms fold into Snapshot.Histograms at
// their full width, so the JSON and Prometheus paths export them without
// extra plumbing.
func (r *Registry) WindowHistogram(name string, bounds []int64, o WindowOpts) *WindowHistogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.winHists[name]; ok {
		return h
	}
	r.checkKind(name, "window-histogram")
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: window histogram %q bounds not ascending", name))
		}
	}
	o.applyDefaults()
	h := newWindowHistogram(name, bounds, o)
	r.winHists[name] = h
	return h
}

// WindowCounter returns the sliding-window rate counter registered under
// name, creating it on first use. Windowed counters fold into
// Snapshot.Gauges at their full width (the level "events in the last
// Width"), so both export paths carry them automatically.
func (r *Registry) WindowCounter(name string, o WindowOpts) *WindowCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.winCounts[name]; ok {
		return c
	}
	r.checkKind(name, "window-counter")
	o.applyDefaults()
	c := newWindowCounter(name, o)
	r.winCounts[name] = c
	return c
}

// checkKind panics when name is already registered as another kind.
// Callers hold r.mu.
func (r *Registry) checkKind(name, want string) {
	if _, ok := r.counters[name]; ok && want != "counter" {
		panic(fmt.Sprintf("metrics: %q already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; ok && want != "gauge" {
		panic(fmt.Sprintf("metrics: %q already registered as a gauge", name))
	}
	if _, ok := r.hists[name]; ok && want != "histogram" {
		panic(fmt.Sprintf("metrics: %q already registered as a histogram", name))
	}
	if _, ok := r.winHists[name]; ok && want != "window-histogram" {
		panic(fmt.Sprintf("metrics: %q already registered as a window histogram", name))
	}
	if _, ok := r.winCounts[name]; ok && want != "window-counter" {
		panic(fmt.Sprintf("metrics: %q already registered as a window counter", name))
	}
}

// Collector contributes cumulative values at snapshot time, bridging
// components that keep their own counters (the hbm device model, the PIM
// executors) into the registry without double bookkeeping on the hot path.
// Emitted values are merged into the snapshot's counter map (summing on
// name collisions). Collectors run on the snapshotting goroutine; they
// must only be registered for state that is quiescent when Snapshot is
// called.
type Collector func(emit func(name string, value int64))

// RegisterCollector adds a snapshot-time collector.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// Snapshot captures every metric plus collector output.
// Windowed metrics are folded in at their full width: histograms into
// Histograms, counters into Gauges (a window total is a level, not a
// monotone count).
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	winHists := make([]*WindowHistogram, 0, len(r.winHists))
	for _, h := range r.winHists {
		winHists = append(winHists, h)
	}
	winCounts := make([]*WindowCounter, 0, len(r.winCounts))
	for _, c := range r.winCounts {
		winCounts = append(winCounts, c)
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.RUnlock()

	s := &Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)+len(winCounts)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)+len(winHists)),
		Help:       help,
	}
	for _, c := range counters {
		s.Counters[c.name] = c.Value()
	}
	for _, g := range gauges {
		s.Gauges[g.name] = g.Value()
	}
	for _, h := range hists {
		s.Histograms[h.name] = h.snapshot()
	}
	for _, h := range winHists {
		s.Histograms[h.name] = h.Snapshot(0)
	}
	for _, c := range winCounts {
		s.Gauges[c.name] = c.Total(0)
	}
	for _, col := range collectors {
		col(func(name string, v int64) { s.Counters[name] += v })
	}
	return s
}

// Counter is a monotone cumulative count.
type Counter struct {
	name string
	v    atomic.Int64
}

// Inc adds one to the count.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d to the count.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, healthy shards).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores the level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the level by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution (latencies in microseconds,
// occupancies in entries).
type Histogram struct {
	name    string
	bounds  []int64        // ascending upper bounds; bucket i counts v <= bounds[i]
	buckets []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// snapshot copies the distribution.
func (h *Histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Bounds:  append([]int64(nil), h.bounds...),
		Buckets: make([]int64, len(h.buckets)),
	}
	for b := range out.Buckets {
		out.Buckets[b] = h.buckets[b].Load()
	}
	return out
}

// ExpBuckets returns n exponentially growing bucket bounds: start,
// start*factor, start*factor^2, ...
func ExpBuckets(start, factor int64, n int) []int64 {
	if start < 1 {
		start = 1
	}
	if factor < 2 {
		factor = 2
	}
	out := make([]int64, 0, n)
	for v := start; len(out) < n; v *= factor {
		out = append(out, v)
	}
	return out
}
