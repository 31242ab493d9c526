// benchjson converts `go test -bench -benchmem` output on stdin into a
// machine-readable JSON report. Input lines are echoed to stdout so the
// benchmark run stays visible in the terminal/CI log:
//
//	go test -run '^$' -bench 'Gemv$' -benchmem . | benchjson -out BENCH_gemv.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`

	// Extra holds custom units (testing.B.ReportMetric or tools like
	// cmd/pimload emit e.g. "1234.5 req/s", "87 p99_us"), keyed by unit.
	Extra map[string]float64 `json:"extra,omitempty"`
}

type report struct {
	GOOS       string   `json:"goos,omitempty"`
	GOARCH     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []result `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH.json", "output JSON file")
	check := flag.String("check", "", "baseline JSON file: compare stdin results against it instead of writing")
	maxRatio := flag.Float64("max-ratio", 2.5, "with -check, fail when ns/op or B/op exceeds baseline by this factor")
	flag.Parse()

	var rep report
	skipped := make(map[string]bool) // benchmarks the run reported as skipped (go test -v)
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, r)
			}
		case strings.HasPrefix(line, "--- SKIP: Benchmark"):
			skipped[strings.Fields(line)[2]] = true
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark result lines on stdin"))
	}
	if *check != "" {
		data, err := os.ReadFile(*check)
		if err != nil {
			fatal(err)
		}
		var base report
		if err := json.Unmarshal(data, &base); err != nil {
			fatal(fmt.Errorf("parsing baseline %s: %w", *check, err))
		}
		failures := checkBaseline(base, rep, skipped, *maxRatio)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchjson:", f)
		}
		if len(failures) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d results within %.1fx of %s\n",
			len(rep.Benchmarks), *maxRatio, *check)
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(rep.Benchmarks), *out)
}

// parseBench decodes one result line, e.g.
//
//	BenchmarkTimingOnlyGemv-8  10  109675585 ns/op  611.89 MB/s  12909501 B/op  398099 allocs/op
func parseBench(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return result{}, false
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		name = name[:i] // strip the -GOMAXPROCS suffix
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			r.NsPerOp, err = strconv.ParseFloat(v, 64)
		case "MB/s":
			r.MBPerS, err = strconv.ParseFloat(v, 64)
		case "B/op":
			r.BytesPerOp, err = strconv.ParseInt(v, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, err = strconv.ParseInt(v, 10, 64)
		default:
			// Custom metric: keep it rather than dropping it silently.
			if f, ferr := strconv.ParseFloat(v, 64); ferr == nil {
				if r.Extra == nil {
					r.Extra = make(map[string]float64)
				}
				r.Extra[unit] = f
			}
		}
		if err != nil {
			return result{}, false
		}
	}
	return r, true
}

// checkBaseline compares each current result against its baseline entry
// (matched by name) and reports a failure when ns/op or B/op exceeds the
// baseline by more than ratio. The factor is deliberately generous — CI
// machines differ from the one that recorded BENCH_gemv.json, so this
// catches order-of-magnitude regressions (a dropped fast path, an
// allocation blow-up), not percent-level drift. Benchmarks absent from
// the baseline pass; a baseline entry with no current result fails, so a
// renamed or deleted benchmark can't silently drop out of the gate,
// unless the run itself reported the benchmark as skipped (a `--- SKIP:`
// line of `go test -v`: a kernel this machine's CPU cannot run has no
// number to compare, and another path's number is not it).
func checkBaseline(base, cur report, skipped map[string]bool, ratio float64) []string {
	var failures []string
	current := make(map[string]result, len(cur.Benchmarks))
	for _, r := range cur.Benchmarks {
		current[r.Name] = r
	}
	for _, b := range base.Benchmarks {
		r, ok := current[b.Name]
		if !ok && skipped[b.Name] {
			fmt.Fprintf(os.Stderr, "benchjson: %s: skipped by this run, not compared\n", b.Name)
			continue
		}
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not in this run", b.Name))
			continue
		}
		if b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*ratio {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op exceeds baseline %.0f ns/op by more than %.1fx",
				b.Name, r.NsPerOp, b.NsPerOp, ratio))
		}
		if b.BytesPerOp > 0 && float64(r.BytesPerOp) > float64(b.BytesPerOp)*ratio {
			failures = append(failures, fmt.Sprintf("%s: %d B/op exceeds baseline %d B/op by more than %.1fx",
				b.Name, r.BytesPerOp, b.BytesPerOp, ratio))
		}
		if b.MBPerS > 0 && r.MBPerS > 0 && r.MBPerS < b.MBPerS/ratio {
			failures = append(failures, fmt.Sprintf("%s: %.1f MB/s fell below baseline %.1f MB/s by more than %.1fx",
				b.Name, r.MBPerS, b.MBPerS, ratio))
		}
		failures = append(failures, checkExtras(b, r, ratio)...)
	}
	return failures
}

// checkExtras gates the custom units. Rate-like units (a "/s" suffix:
// req/s, sim_req/s) regress downward, so they fail when the current value
// falls below baseline/ratio; latency-like units (_ns/_us/_ms suffixes:
// p99_us) regress upward, like ns/op. Every other custom unit — paper
// anchors, counts, gains, recorded constants like baseline_ns/op —
// carries no machine-independent contract and is not gated here (gains
// have their own hard floor in cmd/pimload's -min-gain).
func checkExtras(b, r result, ratio float64) []string {
	var failures []string
	for unit, bv := range b.Extra {
		rate := strings.HasSuffix(unit, "/s")
		latency := strings.HasSuffix(unit, "_ns") || strings.HasSuffix(unit, "_us") || strings.HasSuffix(unit, "_ms")
		if (!rate && !latency) || bv <= 0 {
			continue
		}
		rv, ok := r.Extra[unit]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: unit %q in baseline but not in this run", b.Name, unit))
			continue
		}
		if rate && rv < bv/ratio {
			failures = append(failures, fmt.Sprintf("%s: %.1f %s fell below baseline %.1f by more than %.1fx",
				b.Name, rv, unit, bv, ratio))
		}
		if latency && rv > bv*ratio {
			failures = append(failures, fmt.Sprintf("%s: %.1f %s exceeds baseline %.1f by more than %.1fx",
				b.Name, rv, unit, bv, ratio))
		}
	}
	return failures
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
