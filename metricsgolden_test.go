package pimsim

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"pimsim/internal/blas"
	"pimsim/internal/engine"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/memctrl"
	"pimsim/internal/metrics"
	"pimsim/internal/runtime"
)

// metricsGolden is the checked-in listing TestMetricsSnapshotGolden
// compares against: one "kind name value" line per simulator series.
const metricsGolden = "testdata/metrics_snapshot.golden"

// TestMetricsSnapshotGolden pins every simulator series of the runtime's
// metrics registry — each memctrl_*, runtime_*, hbm_* and pim_* name and
// its value — after a fixed kernel set, on the serial and the parallel
// engine: a timing-only GEMV 1kx4k followed by a seeded FR-FCFS drain
// with posted writes on channel 0 (long enough for refreshes to fall due
// mid-drain, some postponed behind open rows), and functional ADD and BN
// over 64k elements on 4 pseudo channels. How the simulator counts may
// change; what it counts may not.
func TestMetricsSnapshotGolden(t *testing.T) {
	var listings []string
	for _, parallel := range []bool{false, true} {
		timing := metricsRuntime(t, false, 16, parallel)
		if _, _, err := blas.PimGemv(timing, nil, 1024, 4096, nil); err != nil {
			t.Fatal(err)
		}
		if err := seededDrain(timing); err != nil {
			t.Fatal(err)
		}

		fn := metricsRuntime(t, true, 4, parallel)
		rng := rand.New(rand.NewSource(11))
		const n = 1 << 16
		a, b := fp16.NewVector(n), fp16.NewVector(n)
		for i := range a {
			a[i] = fp16.FromFloat32(float32(rng.NormFloat64()))
			b[i] = fp16.FromFloat32(float32(rng.NormFloat64()))
		}
		if _, _, err := blas.PimAdd(fn, a, b, n); err != nil {
			t.Fatal(err)
		}
		if _, _, err := blas.PimBN(fn, a, n, fp16.FromFloat32(1.25), fp16.FromFloat32(-0.5)); err != nil {
			t.Fatal(err)
		}

		listings = append(listings, "# timing-only GEMV 1kx4k, FR-FCFS drain\n"+
			simSeries(timing.Metrics.Snapshot())+
			"# functional ADD, BN 64k on 4 pCHs\n"+
			simSeries(fn.Metrics.Snapshot()))
	}
	if listings[0] != listings[1] {
		t.Errorf("parallel engine snapshot differs from serial:\n%s", lineDiff(listings[0], listings[1]))
	}
	want, err := os.ReadFile(metricsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := listings[0]; got != string(want) {
		t.Errorf("snapshot differs from %s (-golden +got):\n%s", metricsGolden, lineDiff(string(want), got))
	}
}

// metricsRuntime builds a runtime over one device of pchs pseudo
// channels, on the parallel engine when asked.
func metricsRuntime(t *testing.T, functional bool, pchs int, parallel bool) *runtime.Runtime {
	t.Helper()
	cfg := hbm.PIMHBMConfig(1000)
	cfg.PseudoChannels = pchs
	cfg.Functional = functional
	rt, err := runtime.New([]*hbm.Device{hbm.MustNewDevice(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	if parallel {
		rt.UseEngine(engine.NewParallel(4))
		t.Cleanup(rt.CloseEngine)
	}
	return rt
}

// seededDrain runs 2048 seeded transactions, 30 % writes, through an
// FR-FCFS scheduler with posted writes on channel 0, draining every 256.
func seededDrain(rt *runtime.Runtime) error {
	cfg := rt.Cfg
	s := memctrl.NewScheduler(rt.Chans[0], cfg)
	s.AutoRelease = true
	if err := s.EnableWriteBuffer(8, 24); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2048; i++ {
		v := rng.Uint64()
		s.Enqueue(v>>23%10 < 3, memctrl.Loc{
			BG:   int(v % uint64(cfg.BankGroups)),
			Bank: int(v >> 2 % uint64(cfg.BanksPerGroup)),
			Row:  uint32(v >> 4 % 16),
			Col:  uint32(v >> 13 % 4),
		}, nil)
		if i%256 == 255 {
			if _, err := s.Drain(); err != nil {
				return err
			}
		}
	}
	return s.CloseAll()
}

// simSeries lists a snapshot's simulator series, sorted: counters and
// gauges as "kind name value", histograms with their count, sum and
// buckets.
func simSeries(s *metrics.Snapshot) string {
	sim := func(name string) bool {
		for _, p := range []string{"memctrl_", "runtime_", "hbm_", "pim_"} {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	var lines []string
	for name, v := range s.Counters {
		if sim(name) {
			lines = append(lines, fmt.Sprintf("counter %s %d", name, v))
		}
	}
	for name, v := range s.Gauges {
		if sim(name) {
			lines = append(lines, fmt.Sprintf("gauge %s %d", name, v))
		}
	}
	for name, h := range s.Histograms {
		if sim(name) {
			lines = append(lines, fmt.Sprintf("histogram %s count=%d sum=%d buckets=%v", name, h.Count, h.Sum, h.Buckets))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// lineDiff lists the lines only in a (prefixed "-") and only in b ("+").
func lineDiff(a, b string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	ina, inb := in(a), in(b)
	var out []string
	for _, l := range strings.Split(a, "\n") {
		if !inb[l] {
			out = append(out, "-"+l)
		}
	}
	for _, l := range strings.Split(b, "\n") {
		if !ina[l] {
			out = append(out, "+"+l)
		}
	}
	return strings.Join(out, "\n")
}
