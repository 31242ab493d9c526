package nn

import (
	"fmt"
	"math"

	"pimsim/internal/blas"
	"pimsim/internal/fp16"
	"pimsim/internal/runtime"
)

// Resident is a Plan loaded onto one shard: every MatVec's weights (one
// fused matrix per LSTM layer and the output projection) laid out once
// through the driver free-list (replicated into each pseudo channel by
// blas.LoadGemv), plus a reserved row span for the recurrent state (none
// for a zero-layer plan, whose step is one GEMV). Slot s (= pseudo
// channel s) holds one in-flight sequence; its h/c persist in the
// Resident across timesteps, so a sequence costs one input frame in and
// one logit vector out per step.
//
// Like blas.ResidentGemv, methods must not run concurrently on the same
// Runtime — the serving stepper guarantees that by holding the shard
// lease for as long as any slot is active.
type Resident struct {
	Plan *Plan

	slots     int
	gemv      []*blas.ResidentGemv // one per layer, then the output projection
	stateBase uint32
	stateRows int

	// Functional recurrent state, indexed [layer][slot]. The device rows
	// above reserve the capacity (the row budget /v1/models reports);
	// the simulator keeps the functional values here because only GEMV
	// operands stream through the modeled PIM datapath.
	h, c [][]fp16.Vector

	// The bias add runs on the burst kernels: bias holds each layer's
	// bias encoded as one burst at load, and a slot's gate
	// pre-activations are encoded for it into zbuf, viewed as the burst
	// z[0].
	bias   [][]byte
	zbuf   []byte
	z      [1][]byte
	resume [fp16.MaxBurstUnits]int32

	unloaded bool
}

// SlotState is one sequence's exported recurrent state — what migrates
// to another shard's Resident when a step hits a retryable fault.
type SlotState struct {
	H, C []fp16.Vector // per layer
}

// Load lays p's weights out on rt and reserves state rows (if the plan
// has any state) for one sequence per pseudo channel. Everything
// allocated is released again if any later layer fails to fit.
func Load(rt *runtime.Runtime, p *Plan) (*Resident, error) {
	r := &Resident{Plan: p, slots: rt.NumChannels()}
	fail := func(err error) (*Resident, error) {
		for _, g := range r.gemv {
			_ = g.Unload(rt)
		}
		return nil, err
	}
	for l, lw := range p.W.Layers {
		g, err := blas.LoadGemv(rt, lw.W, 4*lw.H, lw.X+lw.H)
		if err != nil {
			return fail(fmt.Errorf("nn: load %s layer %d: %w", p.Cfg.Name, l, err))
		}
		r.gemv = append(r.gemv, g)
	}
	gout, err := blas.LoadGemv(rt, p.W.WOut, p.Cfg.Output, p.W.lastHidden())
	if err != nil {
		return fail(fmt.Errorf("nn: load %s output projection: %w", p.Cfg.Name, err))
	}
	r.gemv = append(r.gemv, gout)

	if p.StateBytesPerSlot > 0 {
		r.stateRows = ceilDiv(r.slots*p.StateBytesPerSlot, rt.Cfg.RowBytes)
		base, err := rt.Drv.AllocPIMRows(r.stateRows)
		if err != nil {
			return fail(fmt.Errorf("nn: reserve %s state rows: %w", p.Cfg.Name, err))
		}
		r.stateBase = base
	}

	r.h = make([][]fp16.Vector, len(p.W.Layers))
	r.c = make([][]fp16.Vector, len(p.W.Layers))
	for l, lw := range p.W.Layers {
		r.bias = append(r.bias, lw.B.Bytes())
		r.zbuf = make([]byte, max(len(r.zbuf), 2*4*lw.H))
		r.h[l] = make([]fp16.Vector, r.slots)
		r.c[l] = make([]fp16.Vector, r.slots)
		for s := 0; s < r.slots; s++ {
			r.h[l][s] = fp16.NewVector(lw.H)
			r.c[l][s] = fp16.NewVector(lw.H)
		}
	}
	return r, nil
}

// Slots returns the number of sequence slots (one per pseudo channel).
func (r *Resident) Slots() int { return r.slots }

// OwnsRow reports whether a device row belongs to this model's resident
// spans — how the serving layer maps an uncorrectable error's row back
// to the model that must relocate.
func (r *Resident) OwnsRow(row uint32) bool {
	span := func(base uint32, n int) bool {
		return row >= base && row < base+uint32(n)
	}
	for _, g := range r.gemv {
		if b, n := g.RowRange(); span(b, n) {
			return true
		}
	}
	return span(r.stateBase, r.stateRows)
}

// ResetSlot zeroes slot s's recurrent state, making it ready for a new
// sequence.
func (r *Resident) ResetSlot(s int) error {
	if err := r.checkSlot(s); err != nil {
		return err
	}
	for l := range r.h {
		for i := range r.h[l][s] {
			r.h[l][s][i] = fp16.Zero
		}
		for i := range r.c[l][s] {
			r.c[l][s][i] = fp16.Zero
		}
	}
	return nil
}

// ExportState deep-copies slot s's recurrent state.
func (r *Resident) ExportState(s int) (*SlotState, error) {
	if err := r.checkSlot(s); err != nil {
		return nil, err
	}
	st := &SlotState{}
	for l := range r.h {
		hc := fp16.NewVector(len(r.h[l][s]))
		copy(hc, r.h[l][s])
		cc := fp16.NewVector(len(r.c[l][s]))
		copy(cc, r.c[l][s])
		st.H = append(st.H, hc)
		st.C = append(st.C, cc)
	}
	return st, nil
}

// ImportState installs an exported state into slot s — the receiving end
// of a mid-sequence shard migration. The state must come from the same
// Plan (layer count and widths are checked).
func (r *Resident) ImportState(s int, st *SlotState) error {
	if err := r.checkSlot(s); err != nil {
		return err
	}
	if st == nil {
		return fmt.Errorf("nn: no state to import into model %s", r.Plan.Cfg.Name)
	}
	if len(st.H) != len(r.h) || len(st.C) != len(r.c) {
		return fmt.Errorf("nn: state has %d layers, model %s has %d",
			len(st.H), r.Plan.Cfg.Name, len(r.h))
	}
	// Every layer is checked before any is copied, so a rejected state
	// leaves the slot as it was.
	for l := range st.H {
		if len(st.H[l]) != len(r.h[l][s]) || len(st.C[l]) != len(r.c[l][s]) {
			return fmt.Errorf("nn: state layer %d width %d, model %s wants %d",
				l, len(st.H[l]), r.Plan.Cfg.Name, len(r.h[l][s]))
		}
	}
	for l := range st.H {
		copy(r.h[l][s], st.H[l])
		copy(r.c[l][s], st.C[l])
	}
	return nil
}

// StepSlots advances one timestep for every occupied slot: xs is indexed
// by slot (nil = idle) and the returned logits align with it. All state
// updates are staged and committed only after the entire step — every
// layer's GEMVs and the output projection — succeeds, so a caller that
// sees an error (say, an uncorrectable fault three layers in) can retry
// or migrate the step from pristine state without double-applying the
// recurrence.
//
// The math mirrors the tensor graph's primitive semantics op for op
// (pairwise fp16 adds, float64 activations, fp16 multiplies, PIM-order
// GEMV accumulation), which is what keeps StepSlots bit-identical to
// Plan.HostOracle.
func (r *Resident) StepSlots(rt *runtime.Runtime, xs []fp16.Vector) ([]fp16.Vector, blas.KernelStats, error) {
	if r.unloaded {
		return nil, blas.KernelStats{}, fmt.Errorf("nn: StepSlots on an unloaded model")
	}
	if len(xs) > r.slots {
		return nil, blas.KernelStats{}, fmt.Errorf("nn: %d slots, model loaded with %d", len(xs), r.slots)
	}
	occupied := 0
	for s, x := range xs {
		if x == nil {
			continue
		}
		occupied++
		if err := checkFrame(r.Plan.Cfg, s, x); err != nil {
			return nil, blas.KernelStats{}, err
		}
	}
	if occupied == 0 {
		return nil, blas.KernelStats{}, fmt.Errorf("nn: step with no occupied slots")
	}

	var total blas.KernelStats
	add := func(ks blas.KernelStats) {
		total.Cycles += ks.Cycles // sequential kernels: latencies add
		total.Triggers += ks.Triggers
		total.Fences += ks.Fences
	}

	L := len(r.Plan.W.Layers)
	newH := make([][]fp16.Vector, L)
	newC := make([][]fp16.Vector, L)
	cur := make([]fp16.Vector, len(xs))
	copy(cur, xs)

	xh := make([]fp16.Vector, len(xs))
	for l, lw := range r.Plan.W.Layers {
		// The layer's GEMV input is [x;h]: the layer below's output (the
		// frame for layer 0) and this layer's previous hidden state, for
		// the occupied slots only.
		for s := range xs {
			if xs[s] != nil {
				xh[s] = fp16.NewVector(lw.X + lw.H)
				copy(xh[s][copy(xh[s], cur[s]):], r.h[l][s])
			}
		}
		zs, ks, err := r.gemv[l].RunSlots(rt, xh)
		if err != nil {
			return nil, total, fmt.Errorf("nn: %s layer %d: %w", r.Plan.Cfg.Name, l, err)
		}
		add(ks)

		H := lw.H
		newH[l] = make([]fp16.Vector, len(xs))
		newC[l] = make([]fp16.Vector, len(xs))
		for s := range xs {
			if xs[s] == nil {
				continue
			}
			// z += b, as one burst: AddVecBursts runs the whole blocks on
			// the SIMD kernel and the tail of fewer than 16 lanes portably.
			z := zs[s]
			r.z[0] = r.zbuf[:2*len(z)]
			z.PutBytes(r.z[0])
			fp16.AddVecBursts(r.z[:], r.z[:], r.bias[l:l+1], &r.resume)
			z.DecodeBytes(r.z[0])
			hN := fp16.NewVector(H)
			cN := fp16.NewVector(H)
			for j := 0; j < H; j++ {
				i := sigmoid(z[j])
				f := sigmoid(z[H+j])
				g := tanhF(z[2*H+j])
				o := sigmoid(z[3*H+j])
				cN[j] = fp16.Add(fp16.Mul(f, r.c[l][s][j]), fp16.Mul(i, g))
				hN[j] = fp16.Mul(o, tanhF(cN[j]))
			}
			newH[l][s] = hN
			newC[l][s] = cN
			cur[s] = hN
		}
	}

	logits, ks, err := r.gemv[L].RunSlots(rt, cur)
	if err != nil {
		return nil, total, fmt.Errorf("nn: %s output projection: %w", r.Plan.Cfg.Name, err)
	}
	add(ks)

	// The whole step succeeded: commit the staged recurrence.
	for l := 0; l < L; l++ {
		for s := range xs {
			if xs[s] == nil {
				continue
			}
			r.h[l][s] = newH[l][s]
			r.c[l][s] = newC[l][s]
		}
	}
	return logits, total, nil
}

// Unload releases every weight layout and the state rows. The Resident
// is dead afterwards; the first error wins but all spans are freed.
func (r *Resident) Unload(rt *runtime.Runtime) error {
	if r.unloaded {
		return fmt.Errorf("nn: Resident already unloaded")
	}
	r.unloaded = true
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, g := range r.gemv {
		keep(g.Unload(rt))
	}
	if r.stateRows > 0 {
		keep(rt.Drv.FreePIMRows(r.stateBase))
	}
	return first
}

func (r *Resident) checkSlot(s int) error {
	if s < 0 || s >= r.slots {
		return fmt.Errorf("nn: slot %d out of range [0,%d)", s, r.slots)
	}
	return nil
}

// sigmoid and tanhF match tensor.OpSigmoid/OpTanh exactly: per-element
// float64 math rounded once back to fp16.
func sigmoid(v fp16.F16) fp16.F16 { return fp16.FromFloat64(1 / (1 + math.Exp(-v.Float64()))) }
func tanhF(v fp16.F16) fp16.F16   { return fp16.FromFloat64(math.Tanh(v.Float64())) }

func ceilDiv(a, b int) int { return (a + b - 1) / b }
