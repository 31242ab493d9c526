// Package nn is the model-serving subsystem: it compiles a
// models.Config (the serving-scale DS2 / RNN-T / GNMT stacks) into a
// resident execution plan on a simulated PIM shard and steps whole
// sequences through it. Every model internal/serve serves is a Plan: a
// GEMV is a plan with no LSTM layer, whose step is the projection alone.
//
// The pipeline has three pieces:
//
//   - Compile builds the single-timestep tensor graph (tensor.BuildLSTMStep
//     per layer plus the output projection), topologically schedules it,
//     and assigns the paper's placement split: GEMV-shaped ops on PIM,
//     eltwise/activation gate math on the host. A layer is one fused GEMV,
//     [Wx|Wh]*[x;h]: the compiler chooses the launch granularity, L+1
//     PIM launches a timestep for an L-layer stack (L = 0 for a GEMV).
//   - Load lays every MatVec layer's weights out once per shard through
//     the driver free-list (blas.LoadGemv, replicated across channels)
//     and reserves device rows for any recurrent state, which stays
//     resident across timesteps — between steps, h/c never round-trip
//     through the serving tier.
//   - StepSlots advances one timestep for a sparse slot map (slot =
//     pseudo channel, the continuous-batching unit): each layer runs its
//     GEMV over [x;h] as one batched PIM kernel across every occupied slot,
//     then the host gate math — composed from exactly the tensor graph's
//     primitive semantics, so a host session over the same graph (with
//     Session.MatVecGRF set) reproduces served outputs bit for bit.
//
// That bit-exactness is the correctness contract: Plan.HostOracle is the
// pure-host reference the serving layer and load generator verify full
// multi-step sequences against.
//
// Concurrency contract: a Plan and its loaded per-shard state are owned
// by one stepper goroutine at a time — Load and StepSlots are not safe
// for concurrent use on the same shard, mirroring how a leased shard
// owns its channels. Distinct shards (distinct runtimes) step freely in
// parallel; HostOracle is pure and safe from any goroutine.
package nn

import (
	"fmt"
	"math/rand"

	"pimsim/internal/fp16"
	"pimsim/internal/models"
)

// Layer is one LSTM layer's parameters. W is the fused gate matrix, 4H
// rows of X+H, row r = [Wx row r | Wh row r], so the layer's
// pre-activations are one GEMV over [x;h]; it is the only copy, shared by
// the graph, the device layout and the oracle.
type Layer struct {
	X, H int
	W    fp16.Vector // 4H x (X+H), row-major
	B    fp16.Vector // 4H
}

// Weights holds a config's deterministically generated parameters: one
// Layer per LSTM layer and the output projection matrix. The repo has no
// trained checkpoints; serving exercises the system, and the generator is
// shared by server and verifier so outputs stay checkable.
type Weights struct {
	Cfg    models.Config
	Layers []Layer
	WOut   fp16.Vector // Cfg.Output x lastHidden(), row-major
}

// GenWeights generates cfg's weights from its seed. Magnitudes are kept
// small (N(0, 0.25) weights, N(0, 0.1) biases) so FP16 accumulations
// over the widest layer stay far from overflow.
func GenWeights(cfg models.Config) (*Weights, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	fill := func(v fp16.Vector, scale float64) fp16.Vector {
		for i := range v {
			v[i] = fp16.FromFloat32(float32(rng.NormFloat64() * scale))
		}
		return v
	}
	w := &Weights{Cfg: cfg}
	in := cfg.Input
	for _, h := range cfg.Hidden {
		// The seed's draws go to all of Wx, then all of Wh, then the bias:
		// the order the two matrices had apart, so a seed means the same
		// parameters and fusing moved only where each one is stored.
		k := in + h
		fused := fp16.NewVector(4 * h * k)
		for _, band := range [][2]int{{0, in}, {in, k}} {
			for r := 0; r < 4*h; r++ {
				fill(fused[r*k+band[0]:r*k+band[1]], 0.25)
			}
		}
		w.Layers = append(w.Layers, Layer{X: in, H: h, W: fused, B: fill(fp16.NewVector(4*h), 0.1)})
		in = h
	}
	w.WOut = fill(fp16.NewVector(cfg.Output*in), 0.25)
	return w, nil
}

// WeightBytes is the FP16 footprint of every generated parameter.
func (w *Weights) WeightBytes() int64 { return w.Cfg.WeightBytes() }

// lastHidden is the width feeding the output projection: the input
// itself when there is no hidden layer.
func (w *Weights) lastHidden() int {
	if len(w.Cfg.Hidden) == 0 {
		return w.Cfg.Input
	}
	return w.Cfg.Hidden[len(w.Cfg.Hidden)-1]
}

// Argmax returns the index of the largest logit (first on ties) — the
// EOS-retirement decision shared by the serving stepper and the oracle,
// so both retire a sequence at the identical step.
func Argmax(v fp16.Vector) int {
	if len(v) == 0 {
		return -1
	}
	best, bestV := 0, v[0].Float32()
	for i := 1; i < len(v); i++ {
		if f := v[i].Float32(); f > bestV {
			best, bestV = i, f
		}
	}
	return best
}

// checkFrame validates one input frame against the config.
func checkFrame(cfg models.Config, t int, x fp16.Vector) error {
	if len(x) != cfg.Input {
		return fmt.Errorf("nn: frame %d has %d elements, model %s takes %d",
			t, len(x), cfg.Name, cfg.Input)
	}
	return nil
}
