package pimsim

// One benchmark per table and figure of the paper's evaluation. Each
// iteration regenerates the experiment from scratch through the simulator
// and reports the headline quantity as a custom metric, so
// `go test -bench=. -benchmem` both exercises the full stack and prints
// the reproduced numbers next to the paper's anchors.

import (
	"math/rand"
	"sync"
	"testing"

	"pimsim/internal/blas"
	"pimsim/internal/dse"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/isa"
	"pimsim/internal/macmodel"
	"pimsim/internal/memctrl"
	"pimsim/internal/models"
	"pimsim/internal/obs"
	"pimsim/internal/runtime"
	"pimsim/internal/sim"
)

var (
	sysOnce sync.Once
	pimSys  *sim.System
	hostSys *sim.System
	sysErr  error
)

func systems(b *testing.B) (*sim.System, *sim.System) {
	b.Helper()
	sysOnce.Do(func() {
		pimSys, sysErr = sim.NewPIMSystem(hbm.VariantBase)
		hostSys = sim.NewHostSystem(1)
	})
	if sysErr != nil {
		b.Fatal(sysErr)
	}
	return pimSys, hostSys
}

// BenchmarkTable1MACModel evaluates the MAC area/energy estimator over
// all Table I formats and reports the FP32/INT16 area ratio (paper 3.96).
func BenchmarkTable1MACModel(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := macmodel.TableI()
		ratio = rows[5].Area / rows[0].Area
	}
	b.ReportMetric(ratio, "fp32/int16-area")
}

// BenchmarkTable2Combos enumerates the legal operand routings (paper: 114
// compute + 24 movement).
func BenchmarkTable2Combos(b *testing.B) {
	var compute int
	for i := 0; i < b.N; i++ {
		compute = len(isa.ComputeCombos())
	}
	b.ReportMetric(float64(compute), "compute-combos")
}

// BenchmarkTable3Encode round-trips the whole legal instruction space
// through the 32-bit Table III encoding.
func BenchmarkTable3Encode(b *testing.B) {
	combos := isa.ComputeCombos()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range combos {
			in := isa.Instruction{Op: c.Op, Dst: c.Dst, Src0: c.Src0, Src1: c.Src1}
			w, err := isa.Encode(in)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := isa.Decode(w); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable4UnitThroughput measures the functional SIMD datapath: one
// unit's 16-lane MAC rate in the software model. Operands rotate through
// a seeded pool in [-1, 1) and the accumulator is cleared every 64 MACs,
// like a GEMV row: one fixed operand pair accumulated forever saturates
// to +Inf within a few thousand iterations, and the loop then times the
// Inf lane, not a MAC.
func BenchmarkTable4UnitThroughput(b *testing.B) {
	const pool = 256
	rng := rand.New(rand.NewSource(4))
	x := fp16.NewVector(pool * fp16.Lanes)
	w := fp16.NewVector(pool * fp16.Lanes)
	for i := range x {
		x[i] = fp16.FromFloat32(rng.Float32()*2 - 1)
		w[i] = fp16.FromFloat32(rng.Float32()*2 - 1)
	}
	acc := fp16.NewVector(fp16.Lanes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			clear(acc)
		}
		o := i % pool * fp16.Lanes
		fp16.MACVec(acc, x[o:o+fp16.Lanes], w[o:o+fp16.Lanes])
	}
	b.ReportMetric(float64(fp16.Lanes), "lane-MACs/op")
}

// BenchmarkTable5DeviceBandwidth drives a steady AB-PIM MAC stream through
// one pseudo channel and reports delivered on-chip GB/s (Table V: ~77
// GB/s per channel at 1.2 GHz, 1.229 TB/s per 16-channel device).
func BenchmarkTable5DeviceBandwidth(b *testing.B) {
	var gbps float64
	for i := 0; i < b.N; i++ {
		g, err := sim.OnChipStreamGBps(4096)
		if err != nil {
			b.Fatal(err)
		}
		gbps = g
	}
	b.ReportMetric(gbps, "onchip-GB/s-per-pCH")
}

// BenchmarkTable6Microbench runs the whole Table VI set at batch 1.
func BenchmarkTable6Microbench(b *testing.B) {
	p, h := systems(b)
	var geo float64
	for i := 0; i < b.N; i++ {
		rs, err := sim.RunMicroSuite(p, h, 1)
		if err != nil {
			b.Fatal(err)
		}
		geo = sim.GeoMeanSpeedup(rs)
	}
	b.ReportMetric(geo, "geomean-xHBM")
}

// BenchmarkFig10GEMV reports the headline GEMV4 batch-1 speedup (paper
// 11.2x).
func BenchmarkFig10GEMV(b *testing.B) {
	p, h := systems(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := sim.RunMicro(p, h, sim.MicroSpec{Name: "GEMV4", M: 8192, K: 8192}, 1)
		if err != nil {
			b.Fatal(err)
		}
		speedup = r.Speedup
	}
	b.ReportMetric(speedup, "xHBM(paper:11.2)")
}

// BenchmarkFig10ADD reports the ADD2 batch-1 speedup (paper ~1.6x).
func BenchmarkFig10ADD(b *testing.B) {
	p, h := systems(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := sim.RunMicro(p, h, sim.MicroSpec{Name: "ADD2", N: 4 << 20}, 1)
		if err != nil {
			b.Fatal(err)
		}
		speedup = r.Speedup
	}
	b.ReportMetric(speedup, "xHBM(paper:1.6)")
}

// BenchmarkFig10Apps evaluates all five applications at batch 1 and
// reports the DS2 speedup (paper 3.5x).
func BenchmarkFig10Apps(b *testing.B) {
	p, h := systems(b)
	var ds2 float64
	for i := 0; i < b.N; i++ {
		for _, m := range models.All() {
			r, err := sim.EvalApp(p, h, m, 1)
			if err != nil {
				b.Fatal(err)
			}
			if m.Name == "DS2" {
				ds2 = r.Speedup
			}
		}
	}
	b.ReportMetric(ds2, "DS2-xHBM(paper:3.5)")
}

// BenchmarkFig10Batching runs the batch 1/2/4 sweep of the
// microbenchmarks (the crossover study).
func BenchmarkFig10Batching(b *testing.B) {
	p, h := systems(b)
	var b4gemv float64
	for i := 0; i < b.N; i++ {
		for _, batch := range []int{1, 2, 4} {
			rs, err := sim.RunMicroSuite(p, h, batch)
			if err != nil {
				b.Fatal(err)
			}
			if batch == 4 {
				b4gemv = rs[3].Speedup
			}
		}
	}
	b.ReportMetric(b4gemv, "GEMV4-B4-xHBM(<1)")
}

// BenchmarkFig11Power reproduces the back-to-back RD power comparison and
// reports the PIM/HBM power ratio (paper 1.054).
func BenchmarkFig11Power(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := sim.RunFig11()
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.PowerRatio
	}
	b.ReportMetric(ratio, "power-ratio(paper:1.054)")
}

// BenchmarkFig12Energy reports the GEMV system-energy gain (paper 8.25x).
func BenchmarkFig12Energy(b *testing.B) {
	p, h := systems(b)
	var gain float64
	for i := 0; i < b.N; i++ {
		rows, err := sim.RunFig12(p, h)
		if err != nil {
			b.Fatal(err)
		}
		gain = rows[0].PimEnergyGain
	}
	b.ReportMetric(gain, "GEMV-energy-gain(paper:8.25)")
}

// BenchmarkFig13Timeline builds the DS2 power-over-time traces.
func BenchmarkFig13Timeline(b *testing.B) {
	p, h := systems(b)
	var segs int
	for i := 0; i < b.N; i++ {
		r, err := sim.EvalApp(p, h, models.DS2(), 1)
		if err != nil {
			b.Fatal(err)
		}
		segs = len(sim.PowerTimeline(r, p, true)) + len(sim.PowerTimeline(r, h, false))
	}
	b.ReportMetric(float64(segs), "segments")
}

// BenchmarkFig14DSE runs the full design space exploration and reports
// the 2x variant's geomean gain over the product (paper ~+40%).
func BenchmarkFig14DSE(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		rs, err := dse.Run()
		if err != nil {
			b.Fatal(err)
		}
		gain = rs[1].GeomeanOverBase
	}
	b.ReportMetric(gain, "2x-over-base(paper:~1.4)")
}

// BenchmarkFenceStudy reproduces the in-order controller analysis
// (Section VII-B; the paper reads ~2x).
func BenchmarkFenceStudy(b *testing.B) {
	var geo float64
	for i := 0; i < b.N; i++ {
		r, err := sim.RunFenceStudy(1)
		if err != nil {
			b.Fatal(err)
		}
		geo = r.Geomean
	}
	b.ReportMetric(geo, "nofence-gain(paper:~2)")
}

// BenchmarkEncoderStudy reproduces the GNMT encoder-only analysis.
func BenchmarkEncoderStudy(b *testing.B) {
	p, h := systems(b)
	var sp float64
	for i := 0; i < b.N; i++ {
		r, err := sim.EvalApp(p, h, models.GNMT().EncoderOnly(), 1)
		if err != nil {
			b.Fatal(err)
		}
		sp = r.Speedup
	}
	b.ReportMetric(sp, "encoder-xHBM")
}

// BenchmarkFunctionalGemv measures the simulator itself: a fully
// functional (bit-exact) GEMV through the device model. The device and
// runtime are built once and one untimed GEMV touches every row first
// (bank rows are allocated on first touch, and bench-check runs only two
// iterations); a timed iteration is the steady-state cost of weight
// layout plus kernel on a warm device.
func BenchmarkFunctionalGemv(b *testing.B) {
	cfg := hbm.PIMHBMConfig(1200)
	cfg.PseudoChannels = 2
	cfg.Functional = true
	const M, K = 256, 512
	W := fp16.NewVector(M * K)
	x := fp16.NewVector(K)
	for i := range W {
		W[i] = fp16.FromFloat32(float32(i%13) * 0.1)
	}
	for i := range x {
		x[i] = fp16.FromFloat32(float32(i%7) * 0.2)
	}
	rt, err := runtime.New([]*hbm.Device{hbm.MustNewDevice(cfg)})
	if err != nil {
		b.Fatal(err)
	}
	gemv := func() {
		if _, _, err := blas.PimGemv(rt, W, M, K, x); err != nil {
			b.Fatal(err)
		}
	}
	gemv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemv()
	}
	b.SetBytes(int64(2 * M * K))
}

// timingOnlyStack builds the one-device timing-only stack the GEMV
// benchmarks below run on, outside their timed loops, so that they price
// the kernel's steady state and not the stack's construction.
func timingOnlyStack(b *testing.B) (*runtime.Runtime, hbm.Config) {
	cfg := hbm.PIMHBMConfig(1200)
	cfg.Functional = false
	rt, _, err := runtime.NewStack(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	return rt, cfg
}

// BenchmarkTimingOnlyGemv measures the event-driven fast path used by the
// experiment sweeps: one 4096x8192 GEMV on a stack built once and warmed
// by one GEMV.
func BenchmarkTimingOnlyGemv(b *testing.B) {
	rt, _ := timingOnlyStack(b)
	gemv := func() {
		if _, _, err := blas.PimGemv(rt, nil, 4096, 8192, nil); err != nil {
			b.Fatal(err)
		}
	}
	gemv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemv()
	}
	b.SetBytes(2 * 4096 * 8192)
}

// BenchmarkMixedStreamGemv measures the timing core on a mixed command
// stream, not one uniform broadcast kernel: interleaved SB demand
// traffic (random FR-FCFS transactions through the host scheduler) and
// AB-PIM GEMV kernel bursts on the same channel, the paper's mixed
// host/PIM serving shape (the DS2/RNN-T/GNMT layer split). Each round is
// a demand burst, a precharge-all (the host flushes before the mode
// switch), then a GEMV chunk.
//
// mixedStreamBaselineNs is this benchmark's ns/op measured at commit
// 5067723 (the tree immediately before the event-driven timing core:
// per-command all-bank scans, per-trigger struct copies, O(window^2)
// look-ahead). Reported as a metric so BENCH_gemv.json carries both the
// pre-change baseline and the current number, and `benchjson -check`
// can gate the speedup ratio.
const mixedStreamBaselineNs = 8828858.0

func BenchmarkMixedStreamGemv(b *testing.B) {
	const (
		rounds = 8
		burst  = 256
		M, K   = 1024, 2048
	)
	rt, cfg := timingOnlyStack(b)
	sched := memctrl.NewScheduler(rt.Chans[0], cfg)
	sched.AutoRelease = true
	stream := func() {
		var state uint64
		next := func() uint64 { // splitmix64: avalanched low bits
			state += 0x9E3779B97F4A7C15
			z := state
			z ^= z >> 30
			z *= 0xBF58476D1CE4E5B9
			z ^= z >> 27
			z *= 0x94D049BB133111EB
			return z ^ z>>31
		}
		for r := 0; r < rounds; r++ {
			for t := 0; t < burst; t++ {
				v := next()
				loc := memctrl.Loc{
					BG:   int(v % uint64(cfg.BankGroups)),
					Bank: int(v >> 2 % uint64(cfg.BanksPerGroup)),
					Row:  uint32(v >> 4 % 512),
					Col:  uint32(v >> 13 % uint64(cfg.ColumnsPerRow())),
				}
				sched.Enqueue(v>>23%10 < 3, loc, nil)
			}
			if _, err := sched.Drain(); err != nil {
				b.Fatal(err)
			}
			if err := sched.CloseAll(); err != nil {
				b.Fatal(err)
			}
			if _, _, err := blas.PimGemv(rt, nil, M, K, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	stream() // grows the scheduler's and the channel's buffers outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream()
	}
	b.SetBytes(rounds * (2*M*K + burst*32))
	b.ReportMetric(mixedStreamBaselineNs, "baseline_ns/op")
}

// BenchmarkTracedTimingOnlyGemv is the same kernel with the command
// timeline attached — the enabled-path cost of observability, priced
// against BenchmarkTimingOnlyGemv in BENCH_gemv.json.
func BenchmarkTracedTimingOnlyGemv(b *testing.B) {
	rt, cfg := timingOnlyStack(b)
	// The timeline outlives iterations: Reset keeps the event-buffer
	// capacity, pricing the steady-state recording cost rather than the
	// one-time buffer growth (which once dominated at ~9.9 MB/op). The
	// warm-up run below grows the buffers outside the timed region.
	tl := obs.FromHBM(cfg, 1, 0)
	rt.AttachTimeline(tl)
	gemv := func() {
		tl.Reset()
		if _, _, err := blas.PimGemv(rt, nil, 4096, 8192, nil); err != nil {
			b.Fatal(err)
		}
		if tl.Events() == 0 {
			b.Fatal("timeline recorded nothing")
		}
	}
	gemv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemv()
	}
	b.SetBytes(2 * 4096 * 8192)
}
