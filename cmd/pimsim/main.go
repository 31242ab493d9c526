// pimsim runs a single kernel on a simulated PIM-HBM system and prints
// timing, device activity and (in functional mode) a numeric check
// against the host reference.
//
//	pimsim -kernel gemv -m 4096 -k 8192            timing-only GEMV3
//	pimsim -kernel add -n 4194304                  timing-only ADD2
//	pimsim -kernel gemv -m 256 -k 512 -functional  verified small GEMV
//	pimsim -kernel gemv -variant srw ...           a Fig. 14 variant
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"pimsim/internal/blas"
	"pimsim/internal/energy"
	"pimsim/internal/engine"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/obs"
	"pimsim/internal/prof"
	"pimsim/internal/runtime"
)

func main() {
	kernel := flag.String("kernel", "gemv", "gemv, add, mul, relu or bn")
	m := flag.Int("m", 1024, "GEMV output rows")
	k := flag.Int("k", 4096, "GEMV input columns")
	n := flag.Int("n", 1<<20, "elementwise length")
	devices := flag.Int("devices", 4, "PIM-HBM stacks")
	mhz := flag.Int("mhz", 1200, "memory clock in MHz")
	functional := flag.Bool("functional", false, "move real data and verify numerics")
	variantName := flag.String("variant", "base", "base, 2x, 2ba or srw")
	noFences := flag.Bool("nofences", false, "model an order-guaranteeing controller")
	seed := flag.Int64("seed", 1, "data seed (functional mode)")
	traceN := flag.Int("trace", 0, "print the last N DRAM commands of channel 0 (with -timeline, from the timeline's log)")
	timelineOut := flag.String("timeline", "", "write a Perfetto/Chrome trace-event timeline to this file")
	dumpCRF := flag.Bool("dump-crf", false, "disassemble unit 0's CRF after the kernel")
	metricsOut := flag.String("metrics-out", "", "write a metrics snapshot to this file (\"-\" for stdout)")
	metricsFormat := flag.String("metrics-format", "json", "metrics snapshot format: json or prom")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	engineName := flag.String("engine", "parallel", "channel execution engine: serial (sequential oracle) or parallel (worker per pseudo channel)")
	flag.Parse()

	// Fail a typo'd -engine here, before any device is built.
	if err := engine.Validate(*engineName); err != nil {
		fatal(err)
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()

	variant, err := hbm.ParseVariant(*variantName)
	if err != nil {
		fatal(err)
	}

	cfg := hbm.PIMHBMVariantConfig(variant, *mhz)
	cfg.Functional = *functional
	rt, devs, err := runtime.NewStack(cfg, *devices)
	if err != nil {
		fatal(err)
	}
	eng, err := engine.New(*engineName, rt.NumChannels())
	if err != nil {
		fatal(err)
	}
	rt.UseEngine(eng)
	rt.SetGuaranteeOrder(*noFences)
	if *traceN > 0 {
		rt.Chans[0].Log = obs.NewLog(0, *traceN, true)
	}
	var tl *obs.Timeline
	if *timelineOut != "" {
		tl = obs.FromHBM(cfg, rt.EffectiveChannels(), 0)
		rt.AttachTimeline(tl)
	}

	rng := rand.New(rand.NewSource(*seed))
	randVec := func(n int) fp16.Vector {
		v := fp16.NewVector(n)
		for i := range v {
			v[i] = fp16.FromFloat32(float32(rng.NormFloat64()))
		}
		return v
	}

	var ks blas.KernelStats
	var mismatch int
	switch strings.ToLower(*kernel) {
	case "gemv":
		var W, x fp16.Vector
		if *functional {
			W, x = randVec(*m**k), randVec(*k)
		}
		var y fp16.Vector
		y, ks, err = blas.PimGemv(rt, W, *m, *k, x)
		if err == nil && *functional {
			want := blas.RefGemvPIMOrder(W, *m, *k, x, cfg.GRFDepth())
			for i := range want {
				if y[i] != want[i] {
					mismatch++
				}
			}
		}
		fmt.Printf("kernel: GEMV %dx%d on %s\n", *m, *k, variant)
	case "add", "mul":
		var a, b fp16.Vector
		if *functional {
			a, b = randVec(*n), randVec(*n)
		}
		var c, want fp16.Vector
		if *kernel == "add" {
			c, ks, err = blas.PimAdd(rt, a, b, *n)
			if *functional {
				want = blas.RefAdd(a, b)
			}
		} else {
			c, ks, err = blas.PimMul(rt, a, b, *n)
			if *functional {
				want = blas.RefMul(a, b)
			}
		}
		if err == nil && *functional {
			for i := range want {
				if c[i] != want[i] {
					mismatch++
				}
			}
		}
		fmt.Printf("kernel: %s of %d elements on %s\n", strings.ToUpper(*kernel), *n, variant)
	case "relu":
		var x fp16.Vector
		if *functional {
			x = randVec(*n)
		}
		var y fp16.Vector
		y, ks, err = blas.PimReLU(rt, x, *n)
		if err == nil && *functional {
			want := blas.RefReLU(x)
			for i := range want {
				if y[i] != want[i] {
					mismatch++
				}
			}
		}
		fmt.Printf("kernel: RELU of %d elements on %s\n", *n, variant)
	case "bn":
		var x fp16.Vector
		if *functional {
			x = randVec(*n)
		}
		gamma, beta := fp16.FromFloat32(1.25), fp16.FromFloat32(-0.5)
		var y fp16.Vector
		y, ks, err = blas.PimBN(rt, x, *n, gamma, beta)
		if err == nil && *functional {
			want := blas.RefBN(x, gamma, beta)
			for i := range want {
				if y[i] != want[i] {
					mismatch++
				}
			}
		}
		fmt.Printf("kernel: BN of %d elements on %s\n", *n, variant)
	default:
		fatal(fmt.Errorf("unknown kernel %q", *kernel))
	}
	if err != nil {
		fatal(err)
	}

	ns := rt.Cfg.Timing.CyclesToNs(ks.Cycles)
	fmt.Printf("cycles:   %d (%.2f us at %d MHz)\n", ks.Cycles, ns/1000, *mhz)
	fmt.Printf("triggers: %d   fences: %d\n", ks.Triggers, ks.Fences)

	var st hbm.Stats
	for _, d := range devs {
		s := d.Stats()
		st.Add(s)
	}
	fmt.Printf("device:   %d PIM instructions (%d arithmetic), %d bank reads, %d bank writes\n",
		st.PIMInstr, st.PIMArith, st.BankReads, st.BankWrites)
	b := energy.Compute(st, ks.Cycles, rt.Cfg, energy.DefaultParams(), rt.NumChannels())
	fmt.Printf("energy:   %.3f mJ device (%.1f%% background)\n",
		b.Total()*1e-9, 100*b.Background/b.Total())
	if *functional {
		if mismatch == 0 {
			fmt.Println("verify:   PASS (bit-exact against the host reference)")
		} else {
			fmt.Printf("verify:   FAIL (%d mismatching elements)\n", mismatch)
			os.Exit(1)
		}
	}
	if *dumpCRF {
		prog, err := rt.Execs[0].Program(0)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nunit 0 CRF image:")
		for i, in := range prog {
			fmt.Printf("  CRF[%2d]  %s\n", i, in)
		}
	}
	if *traceN > 0 {
		log := rt.Chans[0].Log
		events := log.TraceEvents()
		last := events[max(0, len(events)-*traceN):]
		fmt.Printf("\nlast %d of %d commands on channel 0 (cycle ch cmd bg bank row col):\n",
			len(last), int64(len(events))+log.Dropped())
		for _, e := range last {
			fmt.Println(e)
		}
	}
	if *metricsOut != "" {
		if err := writeMetrics(rt, *metricsOut, *metricsFormat); err != nil {
			fatal(err)
		}
	}
	if tl != nil {
		if err := writeTimeline(tl, *timelineOut); err != nil {
			fatal(err)
		}
		fmt.Printf("timeline: %d events -> %s (open in https://ui.perfetto.dev)\n",
			tl.Events(), *timelineOut)
		if d := tl.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "pimsim: timeline dropped %d events (per-channel buffer full)\n", d)
		}
	}
}

// writeTimeline exports the recorded command timeline as Chrome
// trace-event JSON.
func writeTimeline(tl *obs.Timeline, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics dumps the runtime's metrics snapshot to path ("-" for
// stdout) in JSON or Prometheus text format.
func writeMetrics(rt *runtime.Runtime, path, format string) error {
	snap := rt.Metrics.Snapshot()
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch strings.ToLower(format) {
	case "json":
		return snap.WriteJSON(w)
	case "prom", "prometheus":
		return snap.WritePrometheus(w)
	}
	return fmt.Errorf("unknown metrics format %q (want json or prom)", format)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pimsim:", err)
	os.Exit(1)
}
