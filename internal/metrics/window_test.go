package metrics

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-driven time source: tests advance it in slot
// multiples to pin window rollover exactly.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	// An arbitrary fixed instant aligned to whole seconds so slot
	// boundaries land exactly where the arithmetic says.
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

// TestWindowHistogramRollover pins exact slot eviction: a 10s window of
// five 2s slots, driven one slot at a time. Each observation must expire
// exactly one ring-width after it landed, not sooner, not later.
func TestWindowHistogramRollover(t *testing.T) {
	clk := newFakeClock()
	h := newWindowHistogram("w", []int64{10, 100}, WindowOpts{
		Width: 10 * time.Second, Slots: 5, Clock: clk.Now,
	})
	if h.Width() != 10*time.Second {
		t.Fatalf("Width = %v, want 10s", h.Width())
	}

	// One observation per slot for five slots: values 1..5.
	for i := 1; i <= 5; i++ {
		h.Observe(int64(i))
		if got := h.Snapshot(0).Count; got != int64(i) {
			t.Fatalf("after %d slots: count = %d, want %d", i, got, i)
		}
		clk.Advance(2 * time.Second)
	}
	// The clock now sits one slot past the last observation: the first
	// observation's slot is exactly at the window edge and must be gone.
	if got := h.Snapshot(0).Count; got != 4 {
		t.Fatalf("one slot past full ring: count = %d, want 4 (oldest evicted)", got)
	}
	// A new observation lands in the slot the oldest vacated.
	h.Observe(6)
	s := h.Snapshot(0)
	if s.Count != 5 || s.Sum != 2+3+4+5+6 {
		t.Fatalf("after wrap: count=%d sum=%d, want 5/%d", s.Count, s.Sum, 2+3+4+5+6)
	}

	// Narrow query: a 4s window covers exactly the two youngest slots.
	s = h.Snapshot(4 * time.Second)
	if s.Count != 2 || s.Sum != 5+6 {
		t.Fatalf("4s window: count=%d sum=%d, want 2/11", s.Count, s.Sum)
	}
	// A 3s window rounds up to two slots — windows are slot-quantized.
	if got := h.Snapshot(3 * time.Second).Count; got != 2 {
		t.Fatalf("3s window: count = %d, want 2 (rounds up to slot)", got)
	}

	// Jump a full ring ahead: everything expires at once.
	clk.Advance(10 * time.Second)
	if got := h.Snapshot(0).Count; got != 0 {
		t.Fatalf("after full-width gap: count = %d, want 0", got)
	}
	// And stale slots must not resurrect when a new epoch reuses them.
	h.Observe(7)
	s = h.Snapshot(0)
	if s.Count != 1 || s.Sum != 7 {
		t.Fatalf("fresh epoch reusing stale slot: count=%d sum=%d, want 1/7", s.Count, s.Sum)
	}
}

// TestWindowHistogramBuckets checks bucket assignment and fold.
func TestWindowHistogramBuckets(t *testing.T) {
	clk := newFakeClock()
	h := newWindowHistogram("w", []int64{10, 100}, WindowOpts{
		Width: 10 * time.Second, Slots: 5, Clock: clk.Now,
	})
	h.Observe(3)   // bucket 0 (<=10)
	h.Observe(10)  // bucket 0 (le is inclusive)
	h.Observe(50)  // bucket 1 (<=100)
	h.Observe(999) // +Inf overflow
	clk.Advance(2 * time.Second)
	h.Observe(11) // bucket 1, next slot
	s := h.Snapshot(0)
	want := []int64{2, 2, 1}
	for i, c := range want {
		if s.Buckets[i] != c {
			t.Fatalf("buckets = %v, want %v", s.Buckets, want)
		}
	}
	if q := s.Quantile(0.5); q <= 0 {
		t.Fatalf("Quantile(0.5) = %v, want > 0", q)
	}
}

// TestWindowCounterRollover pins the rate counter's eviction the same way.
func TestWindowCounterRollover(t *testing.T) {
	clk := newFakeClock()
	c := newWindowCounter("w", WindowOpts{Width: 10 * time.Second, Slots: 5, Clock: clk.Now})
	for i := 0; i < 5; i++ {
		c.Add(10)
		clk.Advance(2 * time.Second)
	}
	if got := c.Total(0); got != 40 {
		t.Fatalf("total after ring+1 = %d, want 40", got)
	}
	if got := c.Total(4 * time.Second); got != 10 {
		t.Fatalf("4s total = %d, want 10", got)
	}
	// Rate normalizes by the (clamped) window.
	if got := c.Rate(10 * time.Second); got != 4.0 {
		t.Fatalf("rate = %v, want 4.0", got)
	}
	clk.Advance(20 * time.Second)
	if got := c.Total(0); got != 0 {
		t.Fatalf("total after long gap = %d, want 0", got)
	}
}

// TestRegistryWindows checks registry integration: idempotent
// registration, kind collisions, and snapshot folding into the ordinary
// export maps.
func TestRegistryWindows(t *testing.T) {
	clk := newFakeClock()
	r := New()

	h := r.WindowHistogram("win_lat_us", []int64{10, 100}, WindowOpts{Width: 10 * time.Second, Slots: 5, Clock: clk.Now})
	c := r.WindowCounter("win_reqs", WindowOpts{Width: 10 * time.Second, Slots: 5, Clock: clk.Now})
	if r.WindowHistogram("win_lat_us", nil, WindowOpts{}) != h {
		t.Fatal("re-registration returned a new window histogram")
	}
	if r.WindowCounter("win_reqs", WindowOpts{}) != c {
		t.Fatal("re-registration returned a new window counter")
	}

	h.Observe(42)
	c.Add(3)
	clk.Advance(2 * time.Second)
	c.Inc()

	snap := r.Snapshot()
	hs, ok := snap.Histograms["win_lat_us"]
	if !ok || hs.Count != 1 || hs.Sum != 42 {
		t.Fatalf("snapshot histogram fold = %+v ok=%v, want count 1 sum 42", hs, ok)
	}
	if got := snap.Gauge("win_reqs"); got != 4 {
		t.Fatalf("snapshot counter fold = %d, want 4", got)
	}

	// Expiry flows through the snapshot too: the registry exports what is
	// in-window now, not lifetime totals.
	clk.Advance(20 * time.Second)
	snap = r.Snapshot()
	if snap.Histograms["win_lat_us"].Count != 0 || snap.Gauge("win_reqs") != 0 {
		t.Fatalf("expired windows still visible in snapshot: %+v / %d",
			snap.Histograms["win_lat_us"], snap.Gauge("win_reqs"))
	}

	// Kind collisions panic like every other cross-kind registration.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("registering a window name as a counter did not panic")
			}
		}()
		r.Counter("win_reqs")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("registering a histogram name as a window histogram did not panic")
			}
		}()
		r.Histogram("plain_h", []int64{1})
		r.WindowHistogram("plain_h", []int64{1}, WindowOpts{})
	}()
}

// TestWindowConcurrent races writers against snapshots (run under -race).
func TestWindowConcurrent(t *testing.T) {
	clk := newFakeClock()
	h := newWindowHistogram("w", ExpBuckets(1, 2, 8), WindowOpts{
		Width: time.Second, Slots: 4, Clock: clk.Now,
	})
	c := newWindowCounter("c", WindowOpts{Width: time.Second, Slots: 4, Clock: clk.Now})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				h.Observe(int64(i % 300))
				c.Inc()
				if i%100 == 0 {
					clk.Advance(time.Millisecond)
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		_ = h.Snapshot(0)
		_ = c.Total(0)
	}
	wg.Wait()
}
