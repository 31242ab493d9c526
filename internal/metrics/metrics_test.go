package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterShardsMerge(t *testing.T) {
	r := New(4)
	c := r.Counter("x_total")
	for shard := 0; shard < 4; shard++ {
		c.Add(shard, int64(shard+1))
	}
	if c.Value() != 1+2+3+4 {
		t.Errorf("merged value = %d, want 10", c.Value())
	}
	if c.ShardValue(2) != 3 {
		t.Errorf("shard 2 = %d, want 3", c.ShardValue(2))
	}
	// Registration is idempotent: same handle back.
	if r.Counter("x_total") != c {
		t.Error("re-registration returned a new counter")
	}
}

func TestKindCollisionPanics(t *testing.T) {
	r := New(1)
	r.Counter("name")
	defer func() {
		if recover() == nil {
			t.Error("registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("name")
}

func TestConcurrentShardWriters(t *testing.T) {
	const shards, perShard = 8, 10000
	r := New(shards)
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Histogram("h", ExpBuckets(1, 2, 8))
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perShard; i++ {
				c.Inc(s)
				g.Set(s, int64(i))
				h.Observe(s, int64(i%300))
			}
		}(s)
	}
	// Snapshots race against the writers on purpose: shard merging must be
	// safe mid-flight (values are merely approximate then).
	for i := 0; i < 100; i++ {
		_ = r.Snapshot()
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Counter("c_total"); got != shards*perShard {
		t.Errorf("counter = %d, want %d", got, shards*perShard)
	}
	hs := snap.Histograms["h"]
	if hs.Count != shards*perShard {
		t.Errorf("histogram count = %d, want %d", hs.Count, shards*perShard)
	}
	var bucketTotal int64
	for _, b := range hs.Buckets {
		bucketTotal += b
	}
	if bucketTotal != hs.Count {
		t.Errorf("buckets sum to %d, count is %d", bucketTotal, hs.Count)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := New(1)
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Histogram("h", []int64{10, 100})
	c.Add(0, 5)
	g.Set(0, 7)
	h.Observe(0, 3)
	before := r.Snapshot()
	c.Add(0, 10)
	g.Set(0, 2)
	h.Observe(0, 50)
	h.Observe(0, 1000)
	diff := r.Snapshot().Diff(before)
	if diff.Counter("c_total") != 10 {
		t.Errorf("counter diff = %d, want 10", diff.Counter("c_total"))
	}
	if diff.Gauge("g") != 2 {
		t.Errorf("gauge diff keeps the current level, got %d", diff.Gauge("g"))
	}
	hd := diff.Histograms["h"]
	if hd.Count != 2 || hd.Sum != 1050 {
		t.Errorf("histogram diff count=%d sum=%d, want 2/1050", hd.Count, hd.Sum)
	}
	if hd.Buckets[0] != 0 || hd.Buckets[1] != 1 || hd.Buckets[2] != 1 {
		t.Errorf("histogram diff buckets = %v", hd.Buckets)
	}
}

func TestCollectorMergesIntoCounters(t *testing.T) {
	r := New(1)
	r.Counter("a_total").Add(0, 2)
	r.RegisterCollector(func(emit func(string, int64)) {
		emit("a_total", 3) // sums with the registered counter
		emit("b_total", 7) // appears on its own
	})
	snap := r.Snapshot()
	if snap.Counter("a_total") != 5 || snap.Counter("b_total") != 7 {
		t.Errorf("collected a=%d b=%d, want 5/7", snap.Counter("a_total"), snap.Counter("b_total"))
	}
}

// TestGoldenExposition pins the exact JSON and Prometheus output formats
// so downstream scrapers can rely on them.
func TestGoldenExposition(t *testing.T) {
	r := New(2)
	r.Counter("memctrl_row_hits_total").Add(0, 40)
	r.Counter("memctrl_row_hits_total").Add(1, 2)
	r.Counter(`hbm_bank_act_total{bank="3"}`).Add(0, 9)
	r.Gauge("memctrl_wbuf_depth").Set(0, 4)
	h := r.Histogram("memctrl_reorder_distance", []int64{1, 4})
	h.Observe(0, 1)
	h.Observe(0, 3)
	h.Observe(1, 100)
	snap := r.Snapshot()

	var js strings.Builder
	if err := snap.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{
  "counters": {
    "hbm_bank_act_total{bank=\"3\"}": 9,
    "memctrl_row_hits_total": 42
  },
  "gauges": {
    "memctrl_wbuf_depth": 4
  },
  "histograms": {
    "memctrl_reorder_distance": {
      "count": 3,
      "sum": 104,
      "bounds": [
        1,
        4
      ],
      "buckets": [
        1,
        1,
        1
      ]
    }
  }
}
`
	if js.String() != wantJSON {
		t.Errorf("JSON exposition:\n%s\nwant:\n%s", js.String(), wantJSON)
	}

	var prom strings.Builder
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	wantProm := `# TYPE hbm_bank_act_total counter
hbm_bank_act_total{bank="3"} 9
# TYPE memctrl_row_hits_total counter
memctrl_row_hits_total 42
# TYPE memctrl_wbuf_depth gauge
memctrl_wbuf_depth 4
# TYPE memctrl_reorder_distance histogram
memctrl_reorder_distance_bucket{le="1"} 1
memctrl_reorder_distance_bucket{le="4"} 2
memctrl_reorder_distance_bucket{le="+Inf"} 3
memctrl_reorder_distance_sum 104
memctrl_reorder_distance_count 3
`
	if prom.String() != wantProm {
		t.Errorf("Prometheus exposition:\n%s\nwant:\n%s", prom.String(), wantProm)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 5)
	want := []int64{1, 2, 4, 8, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

// BenchmarkCounterShards times one Counter.Add: from one goroutine on
// shard 0, and from two goroutines at once on shards 0 and 1, which must
// not share a cache line (per Add, of each goroutine).
func BenchmarkCounterShards(b *testing.B) {
	b.Run("one", func(b *testing.B) {
		c := New(2).Counter("c")
		for i := 0; i < b.N; i++ {
			c.Add(0, 1)
		}
	})
	b.Run("two", func(b *testing.B) {
		c := New(2).Counter("c")
		var wg sync.WaitGroup
		for shard := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < b.N; i++ {
					c.Add(shard, 1)
				}
			}()
		}
		wg.Wait()
	})
}
