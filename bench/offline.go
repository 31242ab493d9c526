package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pimsim/internal/blas"
	"pimsim/internal/dse"
	"pimsim/internal/engine"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/memctrl"
	"pimsim/internal/models"
	"pimsim/internal/obs"
	"pimsim/internal/runtime"
	"pimsim/internal/sim"
)

const (
	offlineWarmup = 3 // untimed passes before the clock starts
	inputSets     = 4 // distinct input sets kernels_direct cycles through
)

// part is one call into a layer inside a pass. It returns the simulated
// cost of the call and keeps its own outputs for the check afterwards.
type part struct {
	name string
	run  func(pass int) (ns float64, cycles int64, err error)
}

// passLog is the raw record of a run of passes.
type passLog struct {
	start   time.Time
	wall    time.Duration
	done    []served             // the passes that ran without error
	partMs  map[string][]float64 // per part, per pass
	cycles  int64
	errored int
}

// runPasses repeats the parts back to back for d (or for exactly n passes
// when n > 0) and times every pass and every part.
func runPasses(parts []part, d time.Duration, n int, rec *recorder) passLog {
	t0 := time.Now()
	log := passLog{start: t0, partMs: map[string][]float64{}}
	for pass := 0; (n > 0 && pass < n) || (n == 0 && time.Since(t0) < d); pass++ {
		start, failed, simNs := time.Now(), false, 0.0
		type timed struct{ from, to time.Time }
		times := make([]timed, len(parts))
		for i, p := range parts {
			times[i].from = time.Now()
			ns, cyc, err := p.run(pass)
			times[i].to = time.Now()
			if err != nil {
				failed = true
			}
			simNs += ns
			log.cycles += cyc
		}
		end := time.Now()
		if failed {
			log.errored++
		} else {
			log.done = append(log.done, served{due: start, from: start, to: end, ops: 1, simNs: simNs})
		}
		root := rec.add("bench.op", start, end, 0, pass)
		for i, p := range parts {
			log.partMs[p.name] = append(log.partMs[p.name], ms(times[i].to.Sub(times[i].from)))
			rec.add(p.name, times[i].from, times[i].to, root, pass)
		}
	}
	log.wall = time.Since(t0)
	return log
}

func (l passLog) outcome(wrong int) *outcome {
	out := &outcome{
		attempted: len(l.done) + l.errored, failed: l.errored + wrong, start: l.start, wall: l.wall, done: l.done,
		cycles: float64(l.cycles), layer: metricSet{},
	}
	if l.cycles > 0 {
		out.layer["bench.host_ns_per_sim_cycle"] = float64(l.wall) / float64(l.cycles)
	}
	return out
}

// digest folds a vector into 64 bits (FNV-1a over the fp16 words). The
// two 64k-element outputs of every kernels_direct pass are kept in this
// form: kept whole they would be a quarter MiB a pass, and peak memory
// would then rise with the very speed-ups the benchmark exists to show.
func digest(v fp16.Vector) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h = (h ^ uint64(x)) * 1099511628211
	}
	return h
}

// kernelInputs is one seeded input set of kernels_direct.
type kernelInputs struct {
	xs         []fp16.Vector // 4 GEMV inputs
	a, b       fp16.Vector   // eltwise operands
	lx, lh, lc fp16.Vector   // LSTM cell input and state
}

// kernelOutputs is what one pass produced.
type kernelOutputs struct {
	b1, b4, slots []fp16.Vector
	add, bn       uint64
	h, c          fp16.Vector
}

// kernelsDirect is the functional datapath with no server and no nn: one
// 4-pCH functional device, a runtime and the parallel engine.
type kernelsDirect struct {
	W           fp16.Vector
	lstm        blas.LSTMWeights
	gamma, beta fp16.F16
	in          []kernelInputs

	st   *stack
	g    *blas.ResidentGemv
	outs []kernelOutputs
}

const (
	kdM, kdK = 256, 256
	kdHidden = 112
	kdElts   = 64 << 10
)

func newKernelsDirect(seed int64) workload {
	rng := rand.New(rand.NewSource(seed))
	w := &kernelsDirect{
		W:     randVec(rng, kdM*kdK, 0.25),
		gamma: fp16.FromFloat32(1.5), beta: fp16.FromFloat32(0.25),
		lstm: blas.LSTMWeights{
			Wx: randVec(rng, 4*kdHidden*kdHidden, 0.25), Wh: randVec(rng, 4*kdHidden*kdHidden, 0.25),
			B: randVec(rng, 4*kdHidden, 0.25), X: kdHidden, H: kdHidden,
		},
	}
	for i := 0; i < inputSets; i++ {
		in := kernelInputs{
			a: randVec(rng, kdElts, 1), b: randVec(rng, kdElts, 1),
			lx: randVec(rng, kdHidden, 1), lh: randVec(rng, kdHidden, 1), lc: randVec(rng, kdHidden, 1),
		}
		for j := 0; j < 4; j++ {
			in.xs = append(in.xs, randVec(rng, kdK, 1))
		}
		w.in = append(w.in, in)
	}
	return w
}

// stack is a bench-owned device + runtime + engine.
type stack struct {
	dev *hbm.Device
	rt  *runtime.Runtime
}

func newStack(channels int, functional bool, eng engine.Engine) (*stack, error) {
	cfg := hbm.PIMHBMConfig(sim.MemClockMHz)
	cfg.PseudoChannels = channels
	cfg.Functional = functional
	dev, err := hbm.NewDevice(cfg)
	if err != nil {
		return nil, err
	}
	rt, err := runtime.New([]*hbm.Device{dev})
	if err != nil {
		return nil, err
	}
	rt.UseEngine(eng)
	return &stack{dev: dev, rt: rt}, nil
}

func (w *kernelsDirect) setup() error {
	st, err := newStack(4, true, engine.NewParallel(4))
	if err != nil {
		return err
	}
	g, err := blas.LoadGemv(st.rt, w.W, kdM, kdK)
	if err != nil {
		return err
	}
	w.st, w.g, w.outs = st, g, nil
	_, _, err = g.RunBatch(st.rt, w.in[0].xs[:1])
	return err
}

func (w *kernelsDirect) close() { w.st.rt.CloseEngine() }

func (w *kernelsDirect) parts() []part {
	rt := w.st.rt
	set := func(pass int) *kernelInputs { return &w.in[pass%len(w.in)] }
	out := func(pass int) *kernelOutputs {
		if pass == len(w.outs) {
			w.outs = append(w.outs, kernelOutputs{})
		}
		return &w.outs[pass]
	}
	gemv := func(name string, pick func(*kernelInputs) []fp16.Vector, keep func(*kernelOutputs, []fp16.Vector)) part {
		return part{name, func(pass int) (float64, int64, error) {
			ys, ks, err := w.g.RunSlots(rt, pick(set(pass)))
			keep(out(pass), ys)
			return ks.Ns(rt), ks.Cycles, err
		}}
	}
	return []part{
		gemv("blas.run_batch.b1", func(in *kernelInputs) []fp16.Vector { return in.xs[:1] },
			func(o *kernelOutputs, ys []fp16.Vector) { o.b1 = ys }),
		gemv("blas.run_batch.b4", func(in *kernelInputs) []fp16.Vector { return in.xs },
			func(o *kernelOutputs, ys []fp16.Vector) { o.b4 = ys }),
		gemv("blas.run_slots", func(in *kernelInputs) []fp16.Vector { return []fp16.Vector{in.xs[0], nil, in.xs[2], nil} },
			func(o *kernelOutputs, ys []fp16.Vector) { o.slots = ys }),
		{"blas.pim_add", func(pass int) (float64, int64, error) {
			in := set(pass)
			y, ks, err := blas.PimAdd(rt, in.a, in.b, kdElts)
			out(pass).add = digest(y)
			return ks.Ns(rt), ks.Cycles, err
		}},
		{"blas.pim_bn", func(pass int) (float64, int64, error) {
			y, ks, err := blas.PimBN(rt, set(pass).a, kdElts, w.gamma, w.beta)
			out(pass).bn = digest(y)
			return ks.Ns(rt), ks.Cycles, err
		}},
		{"blas.pim_lstm_cell", func(pass int) (float64, int64, error) {
			in, o := set(pass), out(pass)
			var ks blas.KernelStats
			var err error
			o.h, o.c, ks, err = blas.PimLSTMCell(rt, w.lstm, in.lx, in.lh, in.lc)
			return ks.Ns(rt), ks.Cycles, err
		}},
	}
}

func (w *kernelsDirect) run(d time.Duration, div int, rec *recorder) *outcome {
	runPasses(w.parts(), 0, max(1, offlineWarmup/div), nil)
	w.outs = nil
	log := runPasses(w.parts(), d, 0, rec)
	return log.outcome(w.verify())
}

// timelineRun repeats the timed phase with the command timeline attached
// to the runtime (reset every pass, as a traced server would between
// exports), to price that observer.
func (w *kernelsDirect) timelineRun(d time.Duration) *outcome {
	tl := obs.FromHBM(w.st.rt.Cfg, w.st.rt.NumChannels(), 0)
	w.st.rt.AttachTimeline(tl)
	reset := part{"obs.timeline_reset", func(int) (float64, int64, error) {
		tl.Reset()
		return 0, 0, nil
	}}
	w.outs = nil
	log := runPasses(append([]part{reset}, w.parts()...), d, 0, nil)
	return log.outcome(w.verify())
}

// lstmOracle is the LSTM cell in the PIM datapath's order: both GEMVs
// through RefGemvPIMOrder, then bias, float64 gates and the state update.
func lstmOracle(w blas.LSTMWeights, x, h, c fp16.Vector) (hOut, cOut fp16.Vector) {
	zx := blas.RefGemvPIMOrder(w.Wx, 4*w.H, w.X, x, grfDepth)
	zh := blas.RefGemvPIMOrder(w.Wh, 4*w.H, w.H, h, grfDepth)
	sigmoid := func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }
	hOut, cOut = fp16.NewVector(w.H), fp16.NewVector(w.H)
	for j := 0; j < w.H; j++ {
		pre := func(g int) float64 {
			return zx[g*w.H+j].Float64() + zh[g*w.H+j].Float64() + w.B[g*w.H+j].Float64()
		}
		cNew := sigmoid(pre(1))*c[j].Float64() + sigmoid(pre(0))*math.Tanh(pre(2))
		cOut[j] = fp16.FromFloat64(cNew)
		hOut[j] = fp16.FromFloat64(sigmoid(pre(3)) * math.Tanh(cNew))
	}
	return hOut, cOut
}

// verify compares every pass's outputs with the oracle's, computed once
// per input set, and returns how many passes had any wrong bit.
func (w *kernelsDirect) verify() (wrong int) {
	want := make([]kernelOutputs, len(w.in))
	for i, in := range w.in {
		o := &want[i]
		for _, x := range in.xs {
			o.b4 = append(o.b4, blas.RefGemvPIMOrder(w.W, kdM, kdK, x, grfDepth))
		}
		o.b1, o.slots = o.b4[:1], []fp16.Vector{o.b4[0], nil, o.b4[2], nil}
		o.add, o.bn = digest(blas.RefAdd(in.a, in.b)), digest(blas.RefBN(in.a, w.gamma, w.beta))
		o.h, o.c = lstmOracle(w.lstm, in.lx, in.lh, in.lc)
	}
	same := func(a, b []fp16.Vector) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !vecEqual(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	for pass, got := range w.outs {
		o := &want[pass%len(want)]
		if !(same(got.b1, o.b1) && same(got.b4, o.b4) && same(got.slots, o.slots) &&
			got.add == o.add && got.bn == o.bn && vecEqual(got.h, o.h) && vecEqual(got.c, o.c)) {
			wrong++
		}
	}
	return wrong
}

func (w *kernelsDirect) shapes() probeShapes { return probeShapes{m: kdM, k: kdK} }

// anchors are the paper's figures the sim_sweep pass reproduces, in the
// order simPass reports them.
var anchors = []struct {
	name  string
	paper float64
}{
	{"gemv4", 11.2}, {"add2", 1.6}, {"ds2", 3.5}, {"power", 1.054},
	{"energy", 8.25}, {"bw", 1.229}, {"dse2x", 1.4}, {"fence", 2},
}

// simSweep is the researcher's workload: the paper's experiment suite on
// timing-only devices plus a mixed SB/AB-PIM stream on one channel.
type simSweep struct {
	seed uint64
	// nums is every simulated figure of every pass: the anchors first, then
	// the rest. Passes must agree bit for bit.
	nums [][]float64
}

func newSimSweep(seed int64) workload { return &simSweep{seed: uint64(seed)} }

// setup is one whole pass: a sweep has nothing to construct ahead of its
// first op, so its set-up time is the time to the first result.
func (w *simSweep) setup() error {
	log := runPasses(w.parts(freshSim), 0, 1, nil)
	w.nums = nil
	if log.errored > 0 {
		return fmt.Errorf("sim_sweep pass failed")
	}
	return nil
}

func (w *simSweep) close() {}

// mix is splitmix64 of a seed and a counter.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// freshSim builds what a sim_sweep pass starts from: the PIM system whose
// kernel-cost caches are still empty, and the 16-pCH timing-only device the
// mixed stream runs on.
func freshSim() (*sim.System, *stack, error) {
	p, err := sim.NewPIMSystem(hbm.VariantBase)
	if err != nil {
		return nil, nil, err
	}
	st, err := newStack(16, false, nil)
	if err != nil {
		return nil, nil, err
	}
	st.rt.SimChannels = 1
	return p, st, nil
}

// mixedStream is the shape of BenchmarkMixedStreamGemv: rounds of a seeded
// 70/30 read/write FR-FCFS burst, a precharge-all, and a timing-only GEMV
// on the same channel. It returns the channel's cycles.
func mixedStream(st *stack, seed uint64) (int64, error) {
	const rounds, burst, m, k = 8, 256, 1024, 2048
	cfg := st.rt.Cfg
	sched := memctrl.NewScheduler(st.rt.Chans[0], cfg)
	sched.AutoRelease = true
	for r := uint64(0); r < rounds; r++ {
		for t := uint64(0); t < burst; t++ {
			sched.Enqueue(seededTx(cfg, mix(seed, r*burst+t)))
		}
		if _, err := sched.Drain(); err != nil {
			return 0, err
		}
		if err := sched.CloseAll(); err != nil {
			return 0, err
		}
		if _, _, err := blas.PimGemv(st.rt, nil, m, k, nil); err != nil {
			return 0, err
		}
	}
	return st.rt.Now(0), nil
}

// seededTx turns 64 random bits into one demand transaction: 30 % writes,
// 512 rows, any bank and column.
func seededTx(cfg hbm.Config, v uint64) (write bool, loc memctrl.Loc, data []byte) {
	return v>>23%10 < 3, memctrl.Loc{
		BG:   int(v % uint64(cfg.BankGroups)),
		Bank: int(v >> 2 % uint64(cfg.BanksPerGroup)),
		Row:  uint32(v >> 4 % 512),
		Col:  uint32(v >> 13 % uint64(cfg.ColumnsPerRow())),
	}, nil
}

// parts is one pass; fresh supplies what it starts from (freshSim, or
// stacks the device-counter probe is watching).
func (w *simSweep) parts(fresh func() (*sim.System, *stack, error)) []part {
	var p, h *sim.System
	var mixed *stack
	var cur []float64
	keep := func(vs ...float64) { cur = append(cur, vs...) }
	anchor := make([]float64, len(anchors))
	return []part{
		{"sim.run_micro_suite", func(int) (float64, int64, error) {
			var err error
			if p, mixed, err = fresh(); err != nil {
				return 0, 0, err
			}
			h, cur = sim.NewHostSystem(1), nil
			var ns float64
			for _, batch := range []int{1, 2, 4} {
				rs, err := sim.RunMicroSuite(p, h, batch)
				if err != nil {
					return 0, 0, err
				}
				for _, r := range rs {
					keep(r.Speedup)
					if batch == 1 {
						ns += r.PimNs
					}
				}
				if batch == 1 {
					anchor[0], anchor[1] = rs[3].Speedup, rs[5].Speedup
				}
			}
			return ns, 0, nil
		}},
		{"sim.eval_apps", func(int) (float64, int64, error) {
			for _, m := range models.All() {
				r, err := sim.EvalApp(p, h, m, 1)
				if err != nil {
					return 0, 0, err
				}
				keep(r.Speedup)
				if m.Name == "DS2" {
					anchor[2] = r.Speedup
				}
			}
			return 0, 0, nil
		}},
		{"sim.fig11", func(int) (float64, int64, error) {
			r, err := sim.RunFig11()
			if err != nil {
				return 0, 0, err
			}
			gbps, err := sim.OnChipStreamGBps(4096)
			anchor[3], anchor[5] = r.PowerRatio, gbps*16/1000 // 16 pCH, TB/s per device
			keep(r.PowerRatioNoBufIO, r.EnergyPerBitRatio)
			return 0, 0, err
		}},
		{"sim.fig12", func(int) (float64, int64, error) {
			rows, err := sim.RunFig12(p, h)
			if err != nil {
				return 0, 0, err
			}
			for _, r := range rows {
				keep(r.PimEnergyGain)
			}
			anchor[4] = rows[0].PimEnergyGain
			return 0, 0, nil
		}},
		{"dse.run", func(int) (float64, int64, error) {
			rs, err := dse.Run()
			if err != nil {
				return 0, 0, err
			}
			for _, r := range rs {
				keep(r.GeomeanOverBase)
			}
			anchor[6] = rs[1].GeomeanOverBase
			return 0, 0, nil
		}},
		{"sim.fence_study", func(int) (float64, int64, error) {
			r, err := sim.RunFenceStudy(1)
			anchor[7] = r.Geomean
			return 0, 0, err
		}},
		{"sim.mixed_stream", func(int) (float64, int64, error) {
			cycles, err := mixedStream(mixed, w.seed)
			if err != nil {
				return 0, 0, err
			}
			keep(float64(cycles))
			w.nums = append(w.nums, append(append([]float64(nil), anchor...), cur...))
			return mixed.rt.Cfg.Timing.CyclesToNs(cycles), cycles, nil
		}},
	}
}

func (w *simSweep) run(d time.Duration, div int, rec *recorder) *outcome {
	runPasses(w.parts(freshSim), 0, max(1, offlineWarmup/div), nil)
	w.nums = nil
	log := runPasses(w.parts(freshSim), d, 0, rec)
	// A simulator's output is its numbers: a pass is wrong when any of them
	// differs from the first pass's, or is not a finite positive figure.
	wrong := 0
	for _, nums := range w.nums {
		ok := len(nums) == len(w.nums[0])
		for i := 0; ok && i < len(nums); i++ {
			ok = nums[i] == w.nums[0][i] && nums[i] > 0 && !math.IsInf(nums[i], 0)
		}
		if !ok {
			wrong++
		}
	}
	out := log.outcome(wrong)
	if len(w.nums) > 0 {
		anchorErrors(w.nums[0], out.layer)
	}
	return out
}

// anchorErrors writes each anchor's |measured - paper| / paper in percent,
// and the largest of them.
func anchorErrors(nums []float64, into metricSet) {
	worst := 0.0
	for i, a := range anchors {
		e := 100 * math.Abs(nums[i]-a.paper) / a.paper
		into["sim.anchor_err_pct."+a.name] = e
		worst = math.Max(worst, e)
	}
	into["sim.paper_err_max_pct"] = worst
}

// countable is one pass on stacks handed out before it runs, so the
// device-counter probe can read them. It sees the shared PIM system and the
// mixed-stream channel; fig11, dse and the fence study build devices of
// their own inside internal/sim and stay out of the count.
func (w *simSweep) countable() ([]*runtime.Runtime, []*hbm.Device, func() error, error) {
	p, mixed, err := freshSim()
	if err != nil {
		return nil, nil, nil, err
	}
	probe := &simSweep{seed: w.seed}
	op := func() error {
		parts := probe.parts(func() (*sim.System, *stack, error) { return p, mixed, nil })
		if log := runPasses(parts, 0, 1, nil); log.errored > 0 {
			return fmt.Errorf("sim_sweep pass failed")
		}
		return nil
	}
	return []*runtime.Runtime{p.RT, mixed.rt}, append([]*hbm.Device{mixed.dev}, p.Devices...), op, nil
}

func (w *simSweep) shapes() probeShapes { return probeShapes{m: kdM, k: kdK, timingOnly: true} }
