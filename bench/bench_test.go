package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesCatalogue pins BENCHMARK.json to the catalogue in
// main.go and to the limits the driver refuses a file beyond.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(f.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the catalogue %q (or their whys differ)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or used twice", w.Name)
		}
		seen[w.Name] = true
	}
	check := func(kind string, got, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
		}
		for i, d := range got {
			if d != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the catalogue %+v", kind, i, d, want[i])
			}
			if !name.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q is malformed or used twice", d.Name)
			}
			seen[d.Name] = true
			if !unit.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better is %q", d.Name, d.Better)
			}
			if bounded != (d.Bound > 0) || d.Bound > 0.25 {
				t.Errorf("%s: bound %v", d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	if len(f.PerLayer) > 128 || len(f.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end to end, %d per layer", len(f.EndToEnd), len(f.PerLayer))
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
}

// checkResult asserts a run's result line carries exactly the metrics the
// catalogue names for it, each once, finite and with its unit, and that no
// op failed.
func checkResult(t *testing.T, rep *report, defs []metricDef, nonZero bool) result {
	t.Helper()
	res := rep.result()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", rep.Workload, res.Correct, res.Attempted, res.Failed)
	}
	line := string(mustJSON(res))
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics on the result line, want %d", rep.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if n := strings.Count(line, `"`+d.Name+`":`); n != 1 {
			t.Errorf("%s: %s is on the result line %d times", rep.Workload, d.Name, n)
		}
		m := res.Metrics[d.Name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit || (nonZero && m.Value <= 0) {
			t.Errorf("%s: %s = %v %q, want a finite value in %q", rep.Workload, d.Name, m.Value, m.Unit, d.Unit)
		}
	}
	return res
}

// TestWorkloadsEmitEveryMetric runs a short pass of all five workloads,
// end to end and traced, and checks the offline workloads' simulated
// numbers repeat exactly.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	const seed, seconds, div = 7, 0.6, 50
	dir := t.TempDir()
	for _, def := range workloads {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			run := func(trace int) result {
				rep, err := measure(def, seed, seconds, trace, dir, div)
				if err != nil {
					t.Fatal(err)
				}
				if trace == 0 {
					return checkResult(t, rep, endToEnd, true)
				}
				if _, err := os.Stat(rep.SpanFile); err != nil {
					t.Errorf("span file: %v", err)
				}
				total, sum := rep.SelfTimeMs["bench.op.total"], 0.0
				for name, v := range rep.SelfTimeMs {
					if name != "bench.op.total" {
						sum += v
					}
				}
				if total <= 0 || math.Abs(sum-total) > 0.001*total {
					t.Errorf("span self times sum to %.1f ms, the bench.op roots to %.1f ms", sum, total)
				}
				return checkResult(t, rep, perLayer, false)
			}
			e2e, traced := run(0), run(1)
			if def.Name != "kernels_direct" && def.Name != "sim_sweep" {
				return
			}
			// The simulator's own counters a second time, without the rest of
			// the ladder: they must repeat to the digit.
			again, w := metricSet{}, def.new(seed)
			if err := probeDevice(again, w, w.shapes(), rand.New(rand.NewSource(seed))); err != nil {
				t.Fatal(err)
			}
			if err := probeSim(again, seed, 1); err != nil {
				t.Fatal(err)
			}
			for name, b := range again {
				if a := traced.Metrics[name].Value; exact(name) && a != b {
					t.Errorf("%s differs between two runs of one seed: %v vs %v", name, a, b)
				}
			}
			if def.Name == "sim_sweep" {
				if a, b := e2e.Metrics["sim_us_per_op"].Value, run(0).Metrics["sim_us_per_op"].Value; a != b {
					t.Errorf("sim_us_per_op differs between two runs of one seed: %v vs %v", a, b)
				}
			}
		})
	}
}

// TestQuietPartsAreTheLeastStolen builds a 40 s run of one 10 ms op after
// another in which the hypervisor takes half the machine for 28 s, and
// checks that the figures come from the windows it left alone.
func TestQuietPartsAreTheLeastStolen(t *testing.T) {
	t0 := time.Unix(100, 0)
	m := &stealMeter{}
	out := &outcome{attempted: 0, start: t0, wall: 40 * time.Second}
	stolen := 0.0
	for at := t0; at.Before(t0.Add(out.wall)); {
		m.at, m.stolen = append(m.at, at), append(m.stolen, stolen)
		took := 10 * time.Millisecond
		if at.Sub(t0) >= 10*time.Second && at.Sub(t0) < 38*time.Second {
			took *= 2
			stolen += 0.010
		}
		out.done = append(out.done, served{due: at, from: at, to: at.Add(took), ops: 1, simNs: 7})
		out.attempted++
		at = at.Add(took)
	}
	m.at, m.stolen = append(m.at, t0.Add(out.wall)), append(m.stolen, stolen)
	out.cut(m)
	for i, quiet := range out.quietWin {
		if busy := i >= 10 && i < 38; quiet == busy {
			t.Errorf("window %d: quiet = %v though the hypervisor took half of windows 10 to 37", i, quiet)
		}
	}
	lat := out.latencies(out.quietReq)
	if got := quantile(lat, 0.9); got != 10 || len(lat) < 1100 {
		t.Errorf("p90 = %v ms over %d ops, want the 10 ms of the nearly 1200 that met no steal", got, len(lat))
	}
	if got := out.rate(); math.Abs(got-100) > 1 {
		t.Errorf("rate = %v ops/s, want the unstolen windows' 100", got)
	}
	if got := out.simUsPerOp(); got != 0.007 {
		t.Errorf("sim_us_per_op = %v, want 0.007", got)
	}
	if got := quantile(out.latencies(nil), 0.5); got != 20 {
		t.Errorf("plain p50 = %v ms, want it to move with the steal", got)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	rec := &recorder{}
	t0 := time.Unix(1, 0)
	root := rec.add("bench.op", t0, t0.Add(100), 0, 1)
	kid := rec.add("serve.http", t0.Add(10), t0.Add(90), root, 1)
	rec.add("serve.exec", t0.Add(20), t0.Add(50), kid, 1)
	rec.add("serve.exec", t0.Add(40), t0.Add(70), kid, 1) // overlaps its sibling
	self, roots := rec.selfTimes()
	if roots != 100 || self["bench.op"] != 20 || self["serve.http"] != 30 || self["serve.exec"] != 50 {
		t.Errorf("roots %v self %v", roots, self)
	}
}
