package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"pimsim/internal/blas"
	"pimsim/internal/engine"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/memctrl"
	"pimsim/internal/metrics"
	"pimsim/internal/models"
	"pimsim/internal/nn"
	"pimsim/internal/runtime"
	"pimsim/internal/serve"
)

// ladder measures every layer from outside, on stacks the bench owns, one
// layer added per rung: differences between rungs are a layer's self time.
// Iteration counts are fixed (divided by div in tests), never timed, so the
// simulated counters it reads repeat exactly.
func ladder(w workload, seed int64, div int) (metricSet, error) {
	sh := w.shapes()
	m := metricSet{}
	n := func(full int) int { return max(1, full/div) }
	rng := rand.New(rand.NewSource(seed ^ 0x6c6164)) // "lad"

	probeFP16(m, rng, n(1_000_000))
	if err := probeTiming(m, uint64(seed), n(200_000)); err != nil {
		return nil, fmt.Errorf("hbm/memctrl probes: %w", err)
	}
	probeEngine(m, n(20_000))

	st, err := newStack(4, true, engine.Serial{})
	if err != nil {
		return nil, err
	}
	defer st.rt.CloseEngine()
	if err := probeBlas(m, st, sh, rng, n); err != nil {
		return nil, fmt.Errorf("blas probes: %w", err)
	}
	if err := probeNN(m, st, rng, n); err != nil {
		return nil, fmt.Errorf("nn probes: %w", err)
	}
	if err := probeDevice(m, w, sh, rng); err != nil {
		return nil, fmt.Errorf("device counters: %w", err)
	}
	if err := probeServe(m, sh, n); err != nil {
		return nil, fmt.Errorf("serve probes: %w", err)
	}
	if _, ok := m["metrics.snapshot_us"]; !ok {
		m["metrics.snapshot_us"] = us(medianOf(n(50), func() { st.rt.Metrics.Snapshot() }))
	}
	return m, probeSim(m, seed, n(3))
}

func probeFP16(m metricSet, rng *rand.Rand, calls int) {
	acc, a, b := fp16.NewVector(fp16.Lanes), randVec(rng, fp16.Lanes, 1), randVec(rng, fp16.Lanes, 1)
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		fp16.MACVec(acc, a, b)
	}
	m["fp16.macvec_ns"] = float64(time.Since(t0)) / float64(calls)
	var sink float32
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		sink += fp16.FromFloat32(float32(i&1023) * 0.37).Float32()
	}
	m["fp16.convert_ns"] = float64(time.Since(t0)) / float64(calls)
	_ = sink
}

// cmdStream is a seeded SB-mode stream that is legal at whatever cycle the
// device grants: bank by bank, ACT, six column commands (30 % writes), PRE.
func cmdStream(cfg hbm.Config, seed uint64, n int) []hbm.Command {
	cmds := make([]hbm.Command, 0, n+8)
	for i := uint64(0); len(cmds) < n; i++ {
		v := mix(seed, i)
		bg, bank := int(v%uint64(cfg.BankGroups)), int(v>>2%uint64(cfg.BanksPerGroup))
		cmds = append(cmds, hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: bank, Row: uint32(v >> 4 % 512)})
		for c := uint64(0); c < 6; c++ {
			kind := hbm.CmdRD
			if v>>(23+c)%10 < 3 {
				kind = hbm.CmdWR
			}
			cmds = append(cmds, hbm.Command{Kind: kind, BG: bg, Bank: bank, Col: uint32((v>>13 + c) % uint64(cfg.ColumnsPerRow()))})
		}
		cmds = append(cmds, hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: bank})
	}
	return cmds
}

// probeTiming replays one command stream into the device timing model
// alone, then through the memory controller's channel on top of it, then
// feeds the mixed burst through the FR-FCFS scheduler on top of that.
func probeTiming(m metricSet, seed uint64, n int) error {
	st, err := newStack(1, false, nil)
	if err != nil {
		return err
	}
	cmds := cmdStream(st.rt.Cfg, seed, n)
	p := st.dev.PCH(0)
	var res hbm.IssueResult
	var now int64
	t0 := time.Now()
	for i := range cmds {
		if err := p.IssueEarliest(&cmds[i], now, &res); err != nil {
			return fmt.Errorf("IssueEarliest %v: %w", cmds[i], err)
		}
		now = res.Cycle
	}
	m["hbm.issue_ns"] = float64(time.Since(t0)) / float64(len(cmds))

	if st, err = newStack(1, false, nil); err != nil {
		return err
	}
	ch := st.rt.Chans[0]
	t0 = time.Now()
	for i := range cmds {
		if _, err := ch.Issue(cmds[i]); err != nil {
			return fmt.Errorf("Channel.Issue %v: %w", cmds[i], err)
		}
	}
	m["memctrl.issue_ns"] = float64(time.Since(t0)) / float64(len(cmds))

	if st, err = newStack(1, false, nil); err != nil {
		return err
	}
	cfg := st.rt.Cfg
	sched := memctrl.NewScheduler(st.rt.Chans[0], cfg)
	sched.AutoRelease = true
	const burst = 256
	rounds := max(1, n/20/burst)
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for t := 0; t < burst; t++ {
			sched.Enqueue(seededTx(cfg, mix(seed, uint64(r*burst+t))))
		}
		if _, err := sched.Drain(); err != nil {
			return err
		}
	}
	m["memctrl.sched_tx_ns"] = float64(time.Since(t0)) / float64(rounds*burst)
	m["memctrl.row_hit_frac"] = float64(sched.RowHits()) / float64(sched.RowHits()+sched.RowMisses())
	return nil
}

func probeEngine(m metricSet, calls int) {
	eng := engine.NewParallel(4)
	defer eng.Close()
	noop := func(int) error { return nil }
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		_ = eng.Run(4, noop)
	}
	m["engine.run_overhead_us"] = us(time.Since(t0)) / float64(calls)
}

// probeBlas times the kernels at the workload's GEMV shape on a functional
// stack, under the serial engine first and the parallel one after (the
// rung that adds the engine), and the verification oracle beside them.
func probeBlas(m metricSet, st *stack, sh probeShapes, rng *rand.Rand, n func(int) int) error {
	rt := st.rt
	W := randVec(rng, sh.m*sh.k, 0.25)
	xs := []fp16.Vector{randVec(rng, sh.k, 1), randVec(rng, sh.k, 1), randVec(rng, sh.k, 1), randVec(rng, sh.k, 1)}
	var firstErr error
	note := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}

	m["driver.alloc_free_ns"] = float64(medianOf(n(2000), func() {
		base, err := rt.Drv.AllocPIMRows(4)
		note(err)
		note(rt.Drv.FreePIMRows(base))
	}))

	var g *blas.ResidentGemv
	m["blas.load_gemv_ms"] = ms(medianOf(n(3), func() {
		if g != nil {
			note(g.Unload(rt))
		}
		var err error
		g, err = blas.LoadGemv(rt, W, sh.m, sh.k)
		note(err)
	}))
	if firstErr != nil {
		return firstErr
	}
	runBatch := func(b int) time.Duration {
		return medianOf(n(40), func() { _, _, err := g.RunBatch(rt, xs[:b]); note(err) })
	}
	serialB4 := runBatch(4)
	rt.UseEngine(engine.NewParallel(4))
	b4 := runBatch(4)
	m["engine.parallel_speedup"] = float64(serialB4) / float64(b4)
	m["blas.run_batch_us.b1"], m["blas.run_batch_us.b2"], m["blas.run_batch_us.b4"] = us(runBatch(1)), us(runBatch(2)), us(b4)
	m["blas.run_slots_us"] = us(medianOf(n(40), func() {
		_, _, err := g.RunSlots(rt, []fp16.Vector{xs[0], nil, xs[2], nil})
		note(err)
	}))
	m["blas.oracle_us"] = us(medianOf(n(40), func() { blas.RefGemvPIMOrder(W, sh.m, sh.k, xs[0], grfDepth) }))

	tiny, err := blas.LoadGemv(rt, randVec(rng, 16*16, 0.25), 16, 16)
	if err != nil {
		return err
	}
	x16 := []fp16.Vector{randVec(rng, 16, 1)}
	m["runtime.kernel_launch_us"] = us(medianOf(n(200), func() { _, _, err := tiny.RunBatch(rt, x16); note(err) }))

	a, b := randVec(rng, kdElts, 1), randVec(rng, kdElts, 1)
	m["blas.eltwise_add_us"] = us(medianOf(n(10), func() { _, _, err := blas.PimAdd(rt, a, b, kdElts); note(err) }))
	m["blas.eltwise_bn_us"] = us(medianOf(n(10), func() {
		_, _, err := blas.PimBN(rt, a, kdElts, fp16.FromFloat32(1.5), fp16.FromFloat32(0.25))
		note(err)
	}))
	lw := blas.LSTMWeights{
		Wx: randVec(rng, 4*kdHidden*kdHidden, 0.25), Wh: randVec(rng, 4*kdHidden*kdHidden, 0.25),
		B: randVec(rng, 4*kdHidden, 0.25), X: kdHidden, H: kdHidden,
	}
	lx, lh, lc := randVec(rng, kdHidden, 1), randVec(rng, kdHidden, 1), randVec(rng, kdHidden, 1)
	m["blas.lstm_cell_us"] = us(medianOf(n(10), func() { _, _, _, err := blas.PimLSTMCell(rt, lw, lx, lh, lc); note(err) }))

	// The functional datapath's share: the same kernel, same shape, with and
	// without bytes and fp16 behind the commands.
	functional := medianOf(n(20), func() { _, _, err := blas.PimGemv(rt, W, sh.m, sh.k, xs[0]); note(err) })
	to, err := newStack(4, false, engine.NewParallel(4))
	if err != nil {
		return err
	}
	defer to.rt.CloseEngine()
	timing := medianOf(n(20), func() { _, _, err := blas.PimGemv(to.rt, nil, sh.m, sh.k, nil); note(err) })
	if !sh.timingOnly {
		m["pim.datapath_share"] = float64(functional-timing) / float64(functional)
	}
	return firstErr
}

// probeNN times the ds2-small stack layer by layer: compile, load, a step
// at 1, 2 and 4 occupied slots, the host oracle, and what is left of a
// step once its 13 GEMVs are taken out.
func probeNN(m metricSet, st *stack, rng *rand.Rand, n func(int) int) error {
	rt, mc := st.rt, models.DS2Small()
	var plan *nn.Plan
	var firstErr error
	note := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	m["nn.compile_ms"] = ms(medianOf(n(3), func() {
		w, err := nn.GenWeights(mc)
		note(err)
		if err == nil {
			plan, err = nn.Compile(w)
			note(err)
		}
	}))
	if firstErr != nil {
		return firstErr
	}
	t0 := time.Now()
	res, err := nn.Load(rt, plan)
	if err != nil {
		return err
	}
	m["nn.load_ms"] = ms(time.Since(t0))
	frames := make([]fp16.Vector, 4)
	for i := range frames {
		frames[i] = randVec(rng, mc.Input, 0.5)
	}
	for _, s := range []int{1, 2, 4} {
		m[fmt.Sprintf("nn.step_slots_ms.s%d", s)] = ms(medianOf(n(8), func() { _, _, err := res.StepSlots(rt, frames[:s]); note(err) }))
	}
	m["nn.host_oracle_step_ms"] = ms(medianOf(n(4), func() { _, err := plan.HostOracle(frames, grfDepth); note(err) })) / float64(len(frames))

	// One slot's step is 2 GEMVs a layer and the output projection. Time
	// each distinct shape alone and take their sum out of the step.
	var gemvs time.Duration
	hidden := mc.Hidden[0]
	for _, shape := range []struct{ m, k, times int }{
		{4 * hidden, mc.Input, 1}, {4 * hidden, hidden, 2*len(mc.Hidden) - 1}, {mc.Output, hidden, 1},
	} {
		g, err := blas.LoadGemv(rt, randVec(rng, shape.m*shape.k, 0.25), shape.m, shape.k)
		if err != nil {
			return err
		}
		x := []fp16.Vector{randVec(rng, shape.k, 1)}
		gemvs += time.Duration(shape.times) * medianOf(n(20), func() { _, _, err := g.RunSlots(rt, x); note(err) })
	}
	m["nn.self_ms"] = m["nn.step_slots_ms.s1"] - ms(gemvs)
	return firstErr
}

// probeDevice runs one representative op of the workload on bench-owned
// devices and reads what it did to the modelled hardware: command counts,
// PIM instructions, controller stalls and the runtime's phase cycles.
// These are exact: a host-speed change must not move them.
func probeDevice(m metricSet, w workload, sh probeShapes, rng *rand.Rand) error {
	rts, devs, op, err := representativeOp(w, sh, rng)
	if err != nil {
		return err
	}
	var before hbm.Stats
	snaps := make([]*metrics.Snapshot, len(rts))
	for i, rt := range rts {
		snaps[i] = rt.Metrics.Snapshot()
		rt.BeginPhaseObs()
	}
	for _, d := range devs {
		before.Add(d.Stats())
	}
	if err := op(); err != nil {
		return err
	}
	var after hbm.Stats
	for _, d := range devs {
		after.Add(d.Stats())
	}
	var phases runtime.PhaseBreakdown
	var instr, stall, refresh int64
	for i, rt := range rts {
		diff := rt.Metrics.Snapshot().Diff(snaps[i])
		for name, v := range diff.Counters {
			if strings.HasPrefix(name, "pim_instr_total{") {
				instr += v
			}
		}
		stall += diff.Counter("memctrl_fence_stall_cycles_total")
		refresh += diff.Counter("memctrl_refresh_total")
		b := rt.TakePhaseObs()
		for p := range phases.Cycles {
			phases.Cycles[p] += b.Cycles[p]
		}
	}
	for name, v := range map[string]int64{
		"act": after.ACT + after.ABACT - before.ACT - before.ABACT, "pre": after.PRE + after.ABPRE - before.PRE - before.ABPRE,
		"rd": after.RD - before.RD, "wr": after.WR - before.WR, "abrd": after.ABRD - before.ABRD,
		"abwr": after.ABWR - before.ABWR, "ref": after.REF - before.REF,
	} {
		m["hbm.cmds_per_op."+name] = float64(v)
	}
	m["pim.instr_per_op"] = float64(instr)
	m["memctrl.fence_stall_cycles_per_op"] = float64(stall)
	m["memctrl.refresh_per_op"] = float64(refresh)
	for p := runtime.KernelPhase(0); p < runtime.NumPhases; p++ {
		m["runtime.phase_cycles."+p.String()] = float64(phases.Cycles[p])
	}
	return nil
}

// representativeOp builds fresh stacks and returns one op of the workload
// on them: a batch-1 GEMV at its shape, one ds2-small timestep, a whole
// kernels_direct pass, or the countable part of a sim_sweep pass.
func representativeOp(w workload, sh probeShapes, rng *rand.Rand) ([]*runtime.Runtime, []*hbm.Device, func() error, error) {
	switch w := w.(type) {
	case *kernelsDirect:
		kd := *w // a private copy: its own stack, its own outputs
		if err := kd.setup(); err != nil {
			return nil, nil, nil, err
		}
		return []*runtime.Runtime{kd.st.rt}, []*hbm.Device{kd.st.dev}, func() error {
			defer kd.close()
			if log := runPasses(kd.parts(), 0, 1, nil); log.errored > 0 {
				return fmt.Errorf("kernels_direct pass failed")
			}
			return nil
		}, nil
	case *simSweep:
		return w.countable()
	}
	st, err := newStack(4, true, engine.NewParallel(4))
	if err != nil {
		return nil, nil, nil, err
	}
	rts, devs := []*runtime.Runtime{st.rt}, []*hbm.Device{st.dev}
	if sh.seqOp {
		weights, err := nn.GenWeights(models.DS2Small())
		if err != nil {
			return nil, nil, nil, err
		}
		plan, err := nn.Compile(weights)
		if err != nil {
			return nil, nil, nil, err
		}
		res, err := nn.Load(st.rt, plan)
		if err != nil {
			return nil, nil, nil, err
		}
		x := []fp16.Vector{randVec(rng, plan.Cfg.Input, 0.5)}
		return rts, devs, func() error {
			defer st.rt.CloseEngine()
			_, _, err := res.StepSlots(st.rt, x)
			return err
		}, nil
	}
	g, err := blas.LoadGemv(st.rt, randVec(rng, sh.m*sh.k, 0.25), sh.m, sh.k)
	if err != nil {
		return nil, nil, nil, err
	}
	x := []fp16.Vector{randVec(rng, sh.k, 1)}
	return rts, devs, func() error {
		defer st.rt.CloseEngine()
		_, _, err := g.RunBatch(st.rt, x)
		return err
	}, nil
}

// probeServe times the JSON codec at the workload's request and reply
// shapes, and server construction and drain with its configuration. A
// workload without a server leaves them 0.
func probeServe(m metricSet, sh probeShapes, n func(int) int) error {
	if sh.serve == nil {
		return nil
	}
	reqBody := mustJSON(sh.req)
	var firstErr error
	m["serve.codec_us.req"] = us(medianOf(n(200), func() {
		var r serve.InferRequest
		if err := json.Unmarshal(reqBody, &r); err != nil && firstErr == nil {
			firstErr = err
		}
	}))
	m["serve.codec_us.resp"] = us(medianOf(n(200), func() { mustJSON(sh.resp) }))
	var srv *serve.Server
	m["serve.new_ms"] = ms(medianOf(n(3), func() {
		if srv != nil {
			_ = srv.Close(context.Background())
		}
		var err error
		if srv, err = serve.New(*sh.serve); err != nil && firstErr == nil {
			firstErr = err
		}
	}))
	if firstErr != nil {
		return firstErr
	}
	t0 := time.Now()
	err := srv.Close(context.Background())
	m["serve.close_ms"] = ms(time.Since(t0))
	return err
}

// probeSim times each experiment of a sim_sweep pass and takes the paper
// anchors' errors from it.
func probeSim(m metricSet, seed int64, passes int) error {
	w := &simSweep{seed: uint64(seed)}
	log := runPasses(w.parts(freshSim), 0, passes, nil)
	if log.errored > 0 {
		return fmt.Errorf("sim pass failed")
	}
	for part, name := range map[string]string{
		"sim.run_micro_suite": "sim.micro_suite_ms", "sim.eval_apps": "sim.eval_apps_ms", "sim.fig11": "sim.fig11_ms",
		"sim.fig12": "sim.fig12_ms", "dse.run": "dse.run_ms", "sim.fence_study": "sim.fence_study_ms",
		"sim.mixed_stream": "sim.mixed_stream_ms",
	} {
		m[name] = median(log.partMs[part])
	}
	anchorErrors(w.nums[0], m)
	return nil
}
