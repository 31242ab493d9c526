package metrics

import (
	"math"
	"testing"
)

func observeAll(h *Histogram, vs []int64) {
	for _, v := range vs {
		h.Observe(v)
	}
}

func TestQuantileUniform(t *testing.T) {
	// 1..1000 uniformly, buckets every 50: quantiles must land within one
	// bucket width of the exact order statistic.
	r := New()
	var bounds []int64
	for b := int64(50); b <= 1000; b += 50 {
		bounds = append(bounds, b)
	}
	h := r.Histogram("u", bounds)
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["u"]
	for _, tc := range []struct{ p, want float64 }{
		{0.50, 500}, {0.95, 950}, {0.99, 990}, {1.0, 1000},
	} {
		got := s.Quantile(tc.p)
		if math.Abs(got-tc.want) > 50 {
			t.Errorf("Quantile(%.2f) = %.1f, want %.1f +- 50", tc.p, got, tc.want)
		}
	}
}

func TestQuantilePointMass(t *testing.T) {
	// 100 identical observations of 5 in a (0,10] bucket: every quantile
	// interpolates to the bucket's midpoint region, never outside (0,10].
	r := New()
	h := r.Histogram("pm", []int64{10, 100})
	observeAll(h, make([]int64, 0))
	for i := 0; i < 100; i++ {
		h.Observe(5)
	}
	s := r.Snapshot().Histograms["pm"]
	if got := s.Quantile(0.5); got != 5 {
		t.Errorf("p50 of a uniform-in-bucket point mass = %v, want 5", got)
	}
	if got := s.Quantile(1.0); got != 10 {
		t.Errorf("p100 = %v, want bucket upper edge 10", got)
	}
	if got := s.Quantile(0.0001); got <= 0 || got > 10 {
		t.Errorf("tiny quantile %v escaped the bucket", got)
	}
}

func TestQuantileBimodal(t *testing.T) {
	// 90 fast observations near 10, 10 slow ones near 1000: p50 must sit
	// in the fast mode, p95/p99 in the slow mode — the serving tail-latency
	// pattern this helper exists for.
	r := New()
	h := r.Histogram("bi", ExpBuckets(1, 2, 12)) // 1,2,4,...,2048
	for i := 0; i < 90; i++ {
		h.Observe(10)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	s := r.Snapshot().Histograms["bi"]
	if p50 := s.Quantile(0.50); p50 < 8 || p50 > 16 {
		t.Errorf("p50 = %v, want within the fast mode's (8,16] bucket", p50)
	}
	if p95 := s.Quantile(0.95); p95 < 512 || p95 > 1024 {
		t.Errorf("p95 = %v, want within the slow mode's (512,1024] bucket", p95)
	}
	if p99 := s.Quantile(0.99); p99 < 512 || p99 > 1024 {
		t.Errorf("p99 = %v, want within the slow mode's (512,1024] bucket", p99)
	}
}

func TestQuantileEdges(t *testing.T) {
	r := New()
	h := r.Histogram("e", []int64{10})
	s := r.Snapshot().Histograms["e"]
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	// Overflow-only data clamps to the highest finite bound.
	h.Observe(50)
	s = r.Snapshot().Histograms["e"]
	if got := s.Quantile(0.99); got != 10 {
		t.Errorf("overflow quantile = %v, want clamp to 10", got)
	}
	// p > 1 clamps to 1.
	if got := s.Quantile(2); got != 10 {
		t.Errorf("Quantile(2) = %v, want 10", got)
	}
}

// TestQuantileDegenerateInputs pins every pathological p and histogram
// shape to a defined answer: no NaN/Inf escapes, no panic, no silent
// max-bound masquerading as a tail estimate.
func TestQuantileDegenerateInputs(t *testing.T) {
	r := New()
	h := r.Histogram("d", []int64{10, 100})
	for i := 0; i < 10; i++ {
		h.Observe(5) // all mass in the (0,10] bucket
	}
	s := r.Snapshot().Histograms["d"]
	empty := HistogramSnapshot{}
	noBounds := HistogramSnapshot{Count: 3, Buckets: []int64{3}}

	for _, tc := range []struct {
		name string
		h    HistogramSnapshot
		p    float64
		want func(got float64) bool
		desc string
	}{
		{"NaN p", s, math.NaN(), func(g float64) bool { return g == 0 }, "0"},
		{"+Inf p", s, math.Inf(1), func(g float64) bool { return g == 10 }, "clamp to p=1 (10)"},
		{"-Inf p", s, math.Inf(-1), func(g float64) bool { return g > 0 && g <= 10 }, "below-first-rank, inside (0,10]"},
		{"negative p", s, -0.5, func(g float64) bool { return g > 0 && g <= 10 }, "below-first-rank, inside (0,10]"},
		{"zero p", s, 0, func(g float64) bool { return g > 0 && g <= 10 }, "below-first-rank, inside (0,10]"},
		{"p exactly 1", s, 1, func(g float64) bool { return g == 10 }, "bucket upper edge 10"},
		{"empty histogram", empty, 0.5, func(g float64) bool { return g == 0 }, "0"},
		{"empty histogram NaN", empty, math.NaN(), func(g float64) bool { return g == 0 }, "0"},
		{"no bounds", noBounds, 0.5, func(g float64) bool { return g == 0 }, "0"},
	} {
		got := tc.h.Quantile(tc.p)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("%s: Quantile(%v) = %v, must be finite", tc.name, tc.p, got)
			continue
		}
		if !tc.want(got) {
			t.Errorf("%s: Quantile(%v) = %v, want %s", tc.name, tc.p, got, tc.desc)
		}
	}
}
