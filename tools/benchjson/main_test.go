package main

import "testing"

func TestParseBenchStandard(t *testing.T) {
	r, ok := parseBench("BenchmarkTimingOnlyGemv-8  10  109675585 ns/op  611.89 MB/s  12909501 B/op  398099 allocs/op")
	if !ok {
		t.Fatal("standard line rejected")
	}
	if r.Name != "BenchmarkTimingOnlyGemv" {
		t.Errorf("name %q: -GOMAXPROCS suffix not stripped", r.Name)
	}
	if r.Iterations != 10 || r.NsPerOp != 109675585 || r.MBPerS != 611.89 ||
		r.BytesPerOp != 12909501 || r.AllocsPerOp != 398099 {
		t.Errorf("bad parse: %+v", r)
	}
	if len(r.Extra) != 0 {
		t.Errorf("standard units leaked into Extra: %v", r.Extra)
	}
}

func TestParseBenchCustomUnits(t *testing.T) {
	// The shape cmd/pimload emits: ns/op plus serving metrics.
	r, ok := parseBench("BenchmarkServe/closed/batch4-8 96 208333 ns/op 4800.0 req/s 612.5 p99_us 3.84 avg_batch")
	if !ok {
		t.Fatal("custom-unit line rejected")
	}
	if r.NsPerOp != 208333 {
		t.Errorf("ns/op = %v", r.NsPerOp)
	}
	want := map[string]float64{"req/s": 4800, "p99_us": 612.5, "avg_batch": 3.84}
	for unit, v := range want {
		if r.Extra[unit] != v {
			t.Errorf("Extra[%q] = %v, want %v", unit, r.Extra[unit], v)
		}
	}
}

func TestCheckBaseline(t *testing.T) {
	base := report{Benchmarks: []result{
		{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 500},
		{Name: "BenchmarkGone", NsPerOp: 10},
	}}

	// Within the factor on both axes, plus a benchmark the baseline
	// doesn't know about — only the missing baseline entry fails.
	cur := report{Benchmarks: []result{
		{Name: "BenchmarkA", NsPerOp: 2400, BytesPerOp: 1200},
		{Name: "BenchmarkNew", NsPerOp: 1},
	}}
	fails := checkBaseline(base, cur, nil, 2.5)
	if len(fails) != 1 {
		t.Fatalf("got %d failures, want 1 (missing BenchmarkGone): %v", len(fails), fails)
	}

	// Time regression and allocation regression each fail independently.
	cur = report{Benchmarks: []result{
		{Name: "BenchmarkA", NsPerOp: 2600, BytesPerOp: 1300},
		{Name: "BenchmarkGone", NsPerOp: 10},
	}}
	fails = checkBaseline(base, cur, nil, 2.5)
	if len(fails) != 2 {
		t.Fatalf("got %d failures, want 2 (ns/op and B/op): %v", len(fails), fails)
	}
}

// A baseline entry the run reported as skipped is passed over; one that
// is merely absent still fails.
func TestCheckBaselineSkipped(t *testing.T) {
	base := report{Benchmarks: []result{
		{Name: "BenchmarkK/simd", NsPerOp: 20},
		{Name: "BenchmarkK/portable", NsPerOp: 120},
	}}
	cur := report{Benchmarks: []result{{Name: "BenchmarkK/portable", NsPerOp: 130}}}
	if fails := checkBaseline(base, cur, map[string]bool{"BenchmarkK/simd": true}, 2.5); len(fails) != 0 {
		t.Errorf("skipped benchmark failed the check: %v", fails)
	}
	if fails := checkBaseline(base, cur, nil, 2.5); len(fails) != 1 {
		t.Errorf("got %d failures, want 1 (BenchmarkK/simd missing, not skipped): %v", len(fails), fails)
	}
}

func TestParseBenchRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX",                  // too few fields
		"BenchmarkX notanint 5 ns/op", // bad iteration count
		"BenchmarkX 10 zzz ns/op",     // bad value for a known unit
	} {
		if _, ok := parseBench(line); ok {
			t.Errorf("accepted %q", line)
		}
	}
	// An unparsable custom value is skipped, not fatal: the known units
	// still make the line useful.
	r, ok := parseBench("BenchmarkX 10 5 ns/op abc widgets")
	if !ok || r.NsPerOp != 5 {
		t.Errorf("line with bad custom value rejected: %+v ok=%v", r, ok)
	}
	if len(r.Extra) != 0 {
		t.Errorf("unparsable custom value kept: %v", r.Extra)
	}
}
