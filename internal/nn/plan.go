package nn

import (
	"fmt"

	"pimsim/internal/models"
	"pimsim/internal/tensor"
)

// Op is one scheduled graph operation with its placement.
type Op struct {
	Name  string
	Kind  string // tensor.OpKind string form
	Where string // "pim" or "host"
}

// Plan is a compiled model: the single-timestep tensor graph built once,
// topologically scheduled, with every op assigned a device. The same
// Plan backs both the device executor (Load → StepSlots) and the
// pure-host oracle (HostOracle) — one graph, two interpreters, which is
// what makes bit-exact verification meaningful.
type Plan struct {
	Cfg models.Config
	W   *Weights

	// Schedule is the topological op order with placement: MatVec nodes
	// (the memory-bound GEMVs) on PIM, eltwise/activation gate math on
	// the host — the paper's Fig. 6 split applied to the whole model.
	Schedule []Op
	PIMOps   int
	HostOps  int

	// StateBytesPerSlot is the FP16 footprint of one sequence's
	// recurrent state (h and c for every layer).
	StateBytesPerSlot int

	graph  *tensor.Graph
	x      *tensor.Node   // frame input
	hIn    []*tensor.Node // per-layer state inputs
	cIn    []*tensor.Node
	hOut   []*tensor.Node // per-layer state outputs
	cOut   []*tensor.Node
	logits *tensor.Node
}

// Compile builds w's single-timestep graph: one BuildLSTMStep per hidden
// layer chained input-to-output, then the output projection MatVec. With
// no layers the plan is the projection alone, y = WOut*x: a served GEMV.
// The returned Plan is immutable and safe to share across shards.
func Compile(w *Weights) (*Plan, error) {
	if w == nil || w.WOut == nil {
		return nil, fmt.Errorf("nn: compile without weights")
	}
	p := &Plan{Cfg: w.Cfg, W: w, graph: &tensor.Graph{}}
	g := p.graph
	p.x = g.Input("x")
	cur := p.x
	state := 0
	for l, lw := range w.Layers {
		h := g.Input(fmt.Sprintf("h%d", l))
		c := g.Input(fmt.Sprintf("c%d", l))
		p.hIn = append(p.hIn, h)
		p.cIn = append(p.cIn, c)
		hOut, cOut, err := tensor.BuildLSTMStep(g, fmt.Sprintf("l%d", l),
			&tensor.Tensor{Shape: []int{4 * lw.H, lw.X + lw.H}, Data: lw.W},
			&tensor.Tensor{Shape: []int{4 * lw.H}, Data: lw.B},
			cur, h, c)
		if err != nil {
			return nil, fmt.Errorf("nn: compile %s layer %d: %w", w.Cfg.Name, l, err)
		}
		p.hOut = append(p.hOut, hOut)
		p.cOut = append(p.cOut, cOut)
		cur = hOut
		state += 2 * lw.H
	}
	p.logits = g.MatVec("out",
		&tensor.Tensor{Shape: []int{w.Cfg.Output, w.lastHidden()}, Data: w.WOut}, cur)
	p.StateBytesPerSlot = 2 * state

	p.schedule()
	return p, nil
}

// schedule computes the topological order (DFS postorder from every
// output — logits plus both state vectors per layer, so nothing the
// executor must produce is missed) and the host/PIM placement split.
func (p *Plan) schedule() {
	outs := []*tensor.Node{p.logits}
	for l := range p.hOut {
		outs = append(outs, p.hOut[l], p.cOut[l])
	}
	seen := map[*tensor.Node]bool{}
	var visit func(n *tensor.Node)
	visit = func(n *tensor.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, in := range n.Inputs {
			visit(in)
		}
		where := "host"
		if n.Kind == tensor.OpMatVec {
			where = "pim"
			p.PIMOps++
		} else if n.Kind != tensor.OpInput && n.Kind != tensor.OpConst {
			p.HostOps++
		}
		p.Schedule = append(p.Schedule, Op{Name: n.Name, Kind: n.Kind.String(), Where: where})
	}
	for _, n := range outs {
		visit(n)
	}
}

// Layers returns the number of LSTM layers.
func (p *Plan) Layers() int { return len(p.W.Layers) }

// ResidentBytes is the footprint /v1/models reports for the plan loaded
// with the given slot count: one weight replica plus every slot's state.
func (p *Plan) ResidentBytes(slots int) int64 {
	return p.WeightBytes() + int64(slots*p.StateBytesPerSlot)
}

// WeightBytes is the FP16 parameter footprint (per replica; the device
// layout replicates it into every pseudo channel).
func (p *Plan) WeightBytes() int64 { return p.W.WeightBytes() }
