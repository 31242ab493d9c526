package blas

import (
	"fmt"

	"pimsim/internal/fp16"
	"pimsim/internal/runtime"
)

// Resident GEMV: the serving-side variant of PimGemv (resident weights +
// channel-sharded batching).
//
// PimGemv lays its weights out per call and deals output blocks across
// channels, so one request occupies the whole device and the layout cost
// is paid every time. An online inference server has the opposite shape:
// the model is fixed for hours and requests arrive one small input vector
// at a time. LoadGemv therefore writes the weight matrix once, and
// *replicates* it into every pseudo channel: each channel's units hold
// every output block. A batch of B <= C independent input vectors then
// maps one request per channel — channel c streams request c's inputs and
// computes the complete y for it — and because pseudo channels progress on
// independent clocks, the whole batch finishes in roughly the latency of
// one request. That is the dynamic-batching win, and it is bounded by the
// kernel's shape: the input splats ride the per-channel write datapath,
// which all units of a channel share, so requests on the same channel
// cannot overlap and the maximum batch is the channel count.
//
// The price of replication is macro passes: a channel folds its blocks
// over U units instead of C*U, so models with more than U*16 outputs pay
// ceil(blocks/U) sequential macros per request where the distributed
// layout pays ceil(blocks/(C*U)). Exactly the paper's batching trade-off
// (Section VII-B): batching restores utilization for small GEMVs but
// erodes the latency edge as the per-request work grows.

// ResidentGemv is a GEMV weight matrix loaded once into the PIM banks
// (replicated layout) and served repeatedly. It holds driver rows until
// Unload. Methods must not run concurrently on the same Runtime — the
// serving layer guarantees that by leasing a shard to one worker at a
// time.
type ResidentGemv struct {
	M, K int

	plan     *gemvPlan
	unloaded bool
}

// LoadGemv lays W (row-major M x K, FP16) out across every channel's
// banks and returns a handle for repeated batched execution. Requires a
// functional device: serving returns real outputs.
func LoadGemv(rt *runtime.Runtime, W fp16.Vector, M, K int) (*ResidentGemv, error) {
	if !rt.Cfg.Functional {
		return nil, fmt.Errorf("blas: LoadGemv requires a functional device")
	}
	if W == nil {
		return nil, fmt.Errorf("blas: LoadGemv requires weights")
	}
	if err := checkLen("W", W, M*K); err != nil {
		return nil, err
	}
	plan, err := planGemvLayout(rt, M, K, true)
	if err != nil {
		return nil, err
	}
	if err := plan.layoutWeights(rt, W); err != nil {
		_ = rt.Drv.FreePIMRows(plan.baseRow)
		return nil, err
	}
	return &ResidentGemv{M: M, K: K, plan: plan}, nil
}

// Rows returns the number of PIM rows the resident layout occupies (per
// bank, in every channel).
func (g *ResidentGemv) Rows() int { return g.plan.macros * g.plan.rowsPerMacro }

// RowRange returns the driver row span [base, base+n) holding the
// resident weights. nn.Resident.OwnsRow uses it to map an
// hbm.UncorrectableError's row back to the model whose weights sit on
// it, so the serving layer can quarantine the row and relocate the model.
func (g *ResidentGemv) RowRange() (base uint32, n int) {
	return g.plan.baseRow, g.Rows()
}

// Unload releases the weight rows. The handle is dead afterwards.
func (g *ResidentGemv) Unload(rt *runtime.Runtime) error {
	if g.unloaded {
		return fmt.Errorf("blas: ResidentGemv already unloaded")
	}
	g.unloaded = true
	return rt.Drv.FreePIMRows(g.plan.baseRow)
}

// RunBatch executes y_i = W*x_i for each input in xs (len(xs) <= the
// channel count) in a single kernel launch, one request per channel.
// Outputs are bit-exact against RefGemvPIMOrder per request. KernelStats
// covers the whole batch: Cycles is the slowest participating channel.
func (g *ResidentGemv) RunBatch(rt *runtime.Runtime, xs []fp16.Vector) ([]fp16.Vector, KernelStats, error) {
	B := len(xs)
	if B == 0 {
		return nil, KernelStats{}, fmt.Errorf("blas: empty batch")
	}
	for i, x := range xs {
		if x == nil {
			return nil, KernelStats{}, fmt.Errorf("blas: batch input %d has %d elements, want %d", i, len(x), g.K)
		}
	}
	return g.RunSlots(rt, xs)
}

// RunSlots is RunBatch with a sparse slot map: xs is indexed by pseudo
// channel and nil entries leave their channel idle (no commands, clock
// untouched). The continuous-batching stepper in internal/nn uses it to
// keep a sequence bound to one channel for its whole lifetime while
// other slots join and retire around it. ys is aligned with xs (nil for
// idle slots). At least one slot must be occupied.
func (g *ResidentGemv) RunSlots(rt *runtime.Runtime, xs []fp16.Vector) ([]fp16.Vector, KernelStats, error) {
	if g.unloaded {
		return nil, KernelStats{}, fmt.Errorf("blas: RunSlots on an unloaded model")
	}
	if len(xs) > rt.NumChannels() {
		return nil, KernelStats{}, fmt.Errorf("blas: batch %d exceeds %d channels (one request per channel)",
			len(xs), rt.NumChannels())
	}
	occupied := 0
	for i, x := range xs {
		if x == nil {
			continue
		}
		occupied++
		if len(x) != g.K {
			return nil, KernelStats{}, fmt.Errorf("blas: batch input %d has %d elements, want %d", i, len(x), g.K)
		}
	}
	if occupied == 0 {
		return nil, KernelStats{}, fmt.Errorf("blas: empty batch")
	}
	plan := g.plan
	ys := make([]fp16.Vector, len(xs))

	rt.BeginRegion()
	chErr := rt.ForEachChannel(func(ch int) error {
		if ch >= len(xs) || xs[ch] == nil {
			return nil // idle channel: no commands, clock untouched
		}
		ys[ch] = fp16.NewVector(g.M)
		return plan.runChannel(rt, ch, splats(rt.Payloads(ch, plan.Kp), xs[ch]), ys[ch])
	})
	if chErr != nil {
		// %w keeps typed device errors (hbm.UncorrectableError) visible
		// to errors.As in the serving layer's retry classification.
		return nil, KernelStats{}, fmt.Errorf("blas: resident gemv batch: %w", chErr)
	}
	ks := regionStats(rt)
	for _, y := range ys {
		if y != nil {
			ks.Triggers += plan.triggers()
		}
	}
	return ys, ks, nil
}
