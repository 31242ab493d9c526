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
// Every metric is sharded: writers (one per memory channel under a
// parallel runtime engine) update their own shard through sync/atomic, so
// concurrent kernels never race, and shards are merged when a Snapshot is
// taken. No two shards' cells share a cache line, so writers of different
// shards do not contend for one either; writers sharing a shard (or a
// Snapshot reading it) still do. Snapshot may run concurrently with
// writers; collector callbacks (which read foreign state such as device
// counters) should only be relied on when the instrumented components are
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
	shards int

	mu         sync.RWMutex
	clock      Clock
	slab       []atomic.Int64 // the cells newCells cuts counters and gauges from
	slabUsed   int            // metrics holding a cell in each of slab's lines
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	winHists   map[string]*WindowHistogram
	winCounts  map[string]*WindowCounter
	help       map[string]string
	collectors []Collector
}

// New builds a registry with the given number of shards (one per
// concurrent writer, typically one per memory channel).
func New(shards int) *Registry {
	if shards < 1 {
		shards = 1
	}
	return &Registry{
		shards:    shards,
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		hists:     make(map[string]*Histogram),
		winHists:  make(map[string]*WindowHistogram),
		winCounts: make(map[string]*WindowCounter),
		help:      make(map[string]string),
	}
}

// Shards returns the writer shard count.
func (r *Registry) Shards() int { return r.shards }

// SetClock installs the time source used by windowed metrics built after
// the call (per-metric WindowOpts.Clock still wins). Tests install a fake
// clock here before wiring the serving layer so every window in the
// system rolls over deterministically.
func (r *Registry) SetClock(c Clock) {
	r.mu.Lock()
	r.clock = c
	r.mu.Unlock()
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
	c := &Counter{name: name, v: r.newCells()}
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
	g := &Gauge{name: name, v: r.newCells()}
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
		name:   name,
		bounds: append([]int64(nil), bounds...),
		sh:     make([]histShard, r.shards),
	}
	// The shards' buckets are cut from one array, each shard's on whole
	// cache lines of its own.
	nb := len(bounds) + 1
	stride := (nb + lineCells - 1) / lineCells * lineCells
	buckets := make([]atomic.Int64, stride*r.shards)
	for i := range h.sh {
		h.sh[i].buckets = buckets[i*stride : i*stride+nb : i*stride+nb]
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
	o.applyDefaults(r.clock)
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
	o.applyDefaults(r.clock)
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

// Snapshot captures every metric (shards merged) plus collector output.
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

// shardIndex bounds-checks a writer shard.
func shardIndex(n, shard int) int {
	if shard < 0 || shard >= n {
		panic(fmt.Sprintf("metrics: shard %d out of range (%d shards)", shard, n))
	}
	return shard
}

// cacheLine is the cache line size metric cells are laid out by: no
// line holds cells of two shards.
const cacheLine = 64

// lineCells is how many 8-byte cells fill a cache line.
const lineCells = cacheLine / 8

// cells is one counter's or gauge's value per shard, cut from a slab the
// registry shares among lineCells metrics: the slab holds one cache line
// per shard, the shard's cells of those metrics, so a line is written by
// its shard's writer alone and the metrics take no more memory than
// unpadded cells. A slab is whole cache lines, an allocation Go starts
// on a line boundary.
type cells struct {
	slab []atomic.Int64 // lineCells cells per shard
	col  int            // this metric's cell in each shard's line
}

// newCells cuts a metric's cells from the current slab, starting a new
// slab when every cell of its lines is taken. Callers hold r.mu.
func (r *Registry) newCells() cells {
	if r.slab == nil || r.slabUsed == lineCells {
		r.slab, r.slabUsed = make([]atomic.Int64, lineCells*r.shards), 0
	}
	r.slabUsed++
	return cells{slab: r.slab, col: r.slabUsed - 1}
}

// at returns shard's cell.
func (c cells) at(shard int) *atomic.Int64 {
	return &c.slab[shardIndex(len(c.slab)/lineCells, shard)*lineCells+c.col]
}

// sum returns the cells' total across shards.
func (c cells) sum() int64 {
	var t int64
	for i := c.col; i < len(c.slab); i += lineCells {
		t += c.slab[i].Load()
	}
	return t
}

// Counter is a monotone cumulative count.
type Counter struct {
	name string
	v    cells
}

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Inc adds one to the shard's count.
func (c *Counter) Inc(shard int) { c.Add(shard, 1) }

// Add adds d to the shard's count.
func (c *Counter) Add(shard int, d int64) { c.v.at(shard).Add(d) }

// Value returns the merged count across shards.
func (c *Counter) Value() int64 { return c.v.sum() }

// ShardValue returns one shard's count.
func (c *Counter) ShardValue(shard int) int64 { return c.v.at(shard).Load() }

// Gauge is an instantaneous level (queue depth, outstanding debt). The
// merged value is the sum over shards, which for per-channel levels reads
// as the system-wide level.
type Gauge struct {
	name string
	v    cells
}

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores the shard's level.
func (g *Gauge) Set(shard int, v int64) { g.v.at(shard).Store(v) }

// Add adjusts the shard's level by d.
func (g *Gauge) Add(shard int, d int64) { g.v.at(shard).Add(d) }

// Value returns the summed level across shards.
func (g *Gauge) Value() int64 { return g.v.sum() }

// ShardValue returns one shard's level.
func (g *Gauge) ShardValue(shard int) int64 { return g.v.at(shard).Load() }

// Histogram is a fixed-bucket distribution (latencies in cycles,
// occupancies in entries).
type Histogram struct {
	name   string
	bounds []int64 // ascending upper bounds; bucket i counts v <= bounds[i]
	sh     []histShard
}

// histShard is one shard of a histogram, padded to a cache line.
type histShard struct {
	buckets []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	count   atomic.Int64
	sum     atomic.Int64
	_       [cacheLine - 40]byte
}

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value in the shard's distribution.
func (h *Histogram) Observe(shard int, v int64) {
	s := &h.sh[shardIndex(len(h.sh), shard)]
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	s.buckets[i].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
}

// snapshot merges the shards.
func (h *Histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Bounds:  append([]int64(nil), h.bounds...),
		Buckets: make([]int64, len(h.bounds)+1),
	}
	for i := range h.sh {
		s := &h.sh[i]
		out.Count += s.count.Load()
		out.Sum += s.sum.Load()
		for b := range out.Buckets {
			out.Buckets[b] += s.buckets[b].Load()
		}
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
