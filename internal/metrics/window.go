package metrics

// Sliding-window metrics: the registry's counters and histograms are
// cumulative (good for diffing whole runs), but an operator asking "are we
// meeting the latency objective *right now*" needs the last N seconds, not
// the lifetime distribution. WindowHistogram and WindowCounter keep a ring
// of time-bucketed slots behind an injectable clock: each slot covers
// Width/Slots of wall time, an observation lands in the slot owning the
// current instant (lazily evicting whatever expired there a full ring ago),
// and a snapshot folds the slots younger than the queried window.
//
// Windows are quantized to slot boundaries: a query for window w covers at
// least w-slot and at most w of history. Tests pin rollover exactly by
// driving the clock in slot multiples (see window_test.go).
//
// Both types are safe for concurrent use (one mutex per instance — these
// sit on the serving layer's request path, not the simulator's per-cycle
// hot path). The injectable clock is what makes the SLO drills
// deterministic: internal/slo runs entire burn-rate scenarios on a fake
// clock with zero sleeps.

import (
	"sync"
	"time"
)

// Clock is the time source behind windowed metrics. Production uses
// time.Now; tests inject a hand-driven clock to pin window rollover.
type Clock func() time.Time

// WindowOpts sizes a sliding-window metric. Zero values take defaults:
// Width 60s, Slots 30, Clock time.Now.
type WindowOpts struct {
	Width time.Duration
	Slots int
	Clock Clock
}

func (o *WindowOpts) applyDefaults() {
	if o.Width <= 0 {
		o.Width = 60 * time.Second
	}
	if o.Slots <= 0 {
		o.Slots = 30
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
}

// WindowHistogram is a fixed-bucket distribution over a sliding time
// window: a ring of time slots, each holding its own bucket counts.
type WindowHistogram struct {
	name    string
	bounds  []int64
	slotDur int64 // ns covered by one slot
	now     Clock

	mu    sync.Mutex
	slots []winHistSlot
}

type winHistSlot struct {
	epoch   int64 // absolute slot index (unixNano / slotDur); -1 = never used
	count   int64
	sum     int64
	buckets []int64 // len(bounds)+1, last is +Inf overflow
}

func newWindowHistogram(name string, bounds []int64, o WindowOpts) *WindowHistogram {
	h := &WindowHistogram{
		name:    name,
		bounds:  append([]int64(nil), bounds...),
		slotDur: int64(o.Width) / int64(o.Slots),
		now:     o.Clock,
		slots:   make([]winHistSlot, o.Slots),
	}
	if h.slotDur < 1 {
		h.slotDur = 1
	}
	for i := range h.slots {
		h.slots[i].epoch = -1
		h.slots[i].buckets = make([]int64, len(bounds)+1)
	}
	return h
}

// Width returns the total history the ring retains.
func (h *WindowHistogram) Width() time.Duration {
	return time.Duration(h.slotDur * int64(len(h.slots)))
}

// Observe records one value at the current instant. Steady state is
// allocation-free: slots are preallocated and reset in place on rollover.
func (h *WindowHistogram) Observe(v int64) {
	epoch := h.now().UnixNano() / h.slotDur
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.mu.Lock()
	s := h.slot(epoch)
	s.buckets[i]++
	s.count++
	s.sum += v
	h.mu.Unlock()
}

// slot returns the ring slot owning epoch, lazily evicting the expired
// occupant. Callers hold h.mu.
func (h *WindowHistogram) slot(epoch int64) *winHistSlot {
	s := &h.slots[int(epoch%int64(len(h.slots)))]
	if s.epoch != epoch {
		s.epoch = epoch
		s.count, s.sum = 0, 0
		for b := range s.buckets {
			s.buckets[b] = 0
		}
	}
	return s
}

// Snapshot folds every slot younger than window into one merged
// HistogramSnapshot. window clamps to the ring's width; <= 0 means the
// full width.
func (h *WindowHistogram) Snapshot(window time.Duration) HistogramSnapshot {
	if window <= 0 || window > h.Width() {
		window = h.Width()
	}
	n := (int64(window) + h.slotDur - 1) / h.slotDur // slots covered, rounded up
	cur := h.now().UnixNano() / h.slotDur
	out := HistogramSnapshot{
		Bounds:  append([]int64(nil), h.bounds...),
		Buckets: make([]int64, len(h.bounds)+1),
	}
	h.mu.Lock()
	for i := range h.slots {
		s := &h.slots[i]
		if s.epoch < 0 || s.epoch <= cur-n || s.epoch > cur {
			continue
		}
		out.Count += s.count
		out.Sum += s.sum
		for b := range out.Buckets {
			out.Buckets[b] += s.buckets[b]
		}
	}
	h.mu.Unlock()
	return out
}

// WindowCounter counts events over a sliding time window (a rate counter:
// Total over the last N seconds, Rate in events/second).
type WindowCounter struct {
	name    string
	slotDur int64
	now     Clock

	mu    sync.Mutex
	slots []winCountSlot
}

type winCountSlot struct {
	epoch int64 // -1 = never used
	count int64
}

func newWindowCounter(name string, o WindowOpts) *WindowCounter {
	c := &WindowCounter{
		name:    name,
		slotDur: int64(o.Width) / int64(o.Slots),
		now:     o.Clock,
		slots:   make([]winCountSlot, o.Slots),
	}
	if c.slotDur < 1 {
		c.slotDur = 1
	}
	for i := range c.slots {
		c.slots[i].epoch = -1
	}
	return c
}

// Width returns the total history the ring retains.
func (c *WindowCounter) Width() time.Duration {
	return time.Duration(c.slotDur * int64(len(c.slots)))
}

// Inc adds one event at the current instant.
func (c *WindowCounter) Inc() { c.Add(1) }

// Add adds d events at the current instant.
func (c *WindowCounter) Add(d int64) {
	epoch := c.now().UnixNano() / c.slotDur
	c.mu.Lock()
	s := &c.slots[int(epoch%int64(len(c.slots)))]
	if s.epoch != epoch {
		s.epoch = epoch
		s.count = 0
	}
	s.count += d
	c.mu.Unlock()
}

// Total counts the events recorded within window of now (clamped to the
// ring width; <= 0 means the full width).
func (c *WindowCounter) Total(window time.Duration) int64 {
	if window <= 0 || window > c.Width() {
		window = c.Width()
	}
	n := (int64(window) + c.slotDur - 1) / c.slotDur
	cur := c.now().UnixNano() / c.slotDur
	var t int64
	c.mu.Lock()
	for i := range c.slots {
		s := &c.slots[i]
		if s.epoch < 0 || s.epoch <= cur-n || s.epoch > cur {
			continue
		}
		t += s.count
	}
	c.mu.Unlock()
	return t
}

// Rate returns events per second over the window.
func (c *WindowCounter) Rate(window time.Duration) float64 {
	if window <= 0 || window > c.Width() {
		window = c.Width()
	}
	if window <= 0 {
		return 0
	}
	return float64(c.Total(window)) / window.Seconds()
}
