package tensor

import (
	"fmt"
	"math"

	"pimsim/internal/blas"
	"pimsim/internal/fp16"
	"pimsim/internal/runtime"
)

// OpKind enumerates the supported graph operations. MatVec, Add, Mul and
// ReLU have PIM implementations (the custom ops of Section V-A an LSTM
// step is composed from); the activations are host-only, and Slice and
// Concat are host-side views.
type OpKind int

const (
	OpInput OpKind = iota
	OpConst
	OpMatVec // y = W*x
	OpAdd
	OpMul
	OpReLU
	OpSigmoid
	OpTanh
	OpSlice
	OpConcat
)

var opNames = [...]string{"Input", "Const", "MatVec", "Add", "Mul", "ReLU", "Sigmoid", "Tanh", "Slice", "Concat"}

func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("Op(%d)", int(k))
}

// Node is one graph vertex.
type Node struct {
	Kind   OpKind
	Name   string
	Inputs []*Node

	// Parameters.
	W     *Tensor // MatVec weights (M x K)
	Value *Tensor // Const value

	// Slice bounds.
	Off, Len int

	// ForcePIM marks a PIM custom op (the explicit path of Fig. 7).
	ForcePIM bool
}

// Graph is a DAG of nodes built by the application once.
type Graph struct {
	nodes []*Node
}

// add registers a node.
func (g *Graph) add(n *Node) *Node {
	g.nodes = append(g.nodes, n)
	return n
}

// Input declares a fed tensor.
func (g *Graph) Input(name string) *Node {
	return g.add(&Node{Kind: OpInput, Name: name})
}

// Const embeds a fixed tensor.
func (g *Graph) Const(name string, t *Tensor) *Node {
	return g.add(&Node{Kind: OpConst, Name: name, Value: t})
}

// MatVec multiplies a weight matrix (M x K) by the input vector.
func (g *Graph) MatVec(name string, w *Tensor, x *Node) *Node {
	return g.add(&Node{Kind: OpMatVec, Name: name, W: w, Inputs: []*Node{x}})
}

// Add is elementwise a + b.
func (g *Graph) Add(name string, a, b *Node) *Node {
	return g.add(&Node{Kind: OpAdd, Name: name, Inputs: []*Node{a, b}})
}

// Mul is elementwise a * b.
func (g *Graph) Mul(name string, a, b *Node) *Node {
	return g.add(&Node{Kind: OpMul, Name: name, Inputs: []*Node{a, b}})
}

// ReLU is elementwise max(x, 0).
func (g *Graph) ReLU(name string, x *Node) *Node {
	return g.add(&Node{Kind: OpReLU, Name: name, Inputs: []*Node{x}})
}

// Sigmoid is elementwise 1/(1+e^-x) (host only).
func (g *Graph) Sigmoid(name string, x *Node) *Node {
	return g.add(&Node{Kind: OpSigmoid, Name: name, Inputs: []*Node{x}})
}

// Tanh is elementwise tanh (host only).
func (g *Graph) Tanh(name string, x *Node) *Node {
	return g.add(&Node{Kind: OpTanh, Name: name, Inputs: []*Node{x}})
}

// PIM marks a node as a PIM custom op: it must run on the PIM units and
// Session.Run fails on a host-only session (the explicit path).
func (n *Node) PIM() *Node {
	n.ForcePIM = true
	return n
}

// Session executes a graph. A nil Runtime is a host-only session; with a
// Runtime attached, the preprocessor routes eligible ops to PIM without
// any change to the graph (the native path of Fig. 6).
type Session struct {
	RT *runtime.Runtime

	// OffloadThreshold is the minimum operand footprint in bytes before
	// the preprocessor considers an op memory-bound enough for PIM.
	OffloadThreshold int

	// MatVecGRF, when positive, makes host-placed MatVec nodes accumulate
	// in the device's exact order (blas.RefGemvPIMOrder at that GRF
	// depth) instead of float32. A host session with MatVecGRF set is a
	// bit-exact oracle for graphs whose GEMVs run on resident PIM
	// weights — what internal/nn verifies served sequences against.
	MatVecGRF int

	// Placement records where each node executed on the last Run.
	Placement map[*Node]string
}

// NewHostSession runs everything on the host.
func NewHostSession() *Session {
	return &Session{Placement: map[*Node]string{}}
}

// NewPIMSession runs eligible ops on the PIM units.
func NewPIMSession(rt *runtime.Runtime) *Session {
	return &Session{RT: rt, OffloadThreshold: 1 << 16, Placement: map[*Node]string{}}
}

// eligible implements the runtime preprocessor's offload analysis: only
// ops with a PIM kernel, with a large enough footprint to be memory
// bound.
func (s *Session) eligible(n *Node) bool {
	if s.RT == nil {
		return false
	}
	if n.ForcePIM {
		return true
	}
	var bytes int
	switch n.Kind {
	case OpMatVec:
		bytes = 2 * n.W.Numel()
	case OpAdd, OpMul, OpReLU:
		bytes = 0 // sized at run time from the input tensor
		return true
	default:
		return false
	}
	return bytes >= s.OffloadThreshold
}

// Run evaluates the requested outputs with the given feeds.
func (s *Session) Run(feeds map[string]*Tensor, outputs ...*Node) ([]*Tensor, error) {
	memo := map[*Node]*Tensor{}
	var eval func(n *Node) (*Tensor, error)
	eval = func(n *Node) (*Tensor, error) {
		if t, ok := memo[n]; ok {
			return t, nil
		}
		ins := make([]*Tensor, len(n.Inputs))
		for i, in := range n.Inputs {
			t, err := eval(in)
			if err != nil {
				return nil, err
			}
			ins[i] = t
		}
		out, err := s.execute(n, ins)
		if err != nil {
			return nil, fmt.Errorf("tensor: %s(%s): %w", n.Kind, n.Name, err)
		}
		memo[n] = out
		return out, nil
	}

	for name, t := range feeds {
		for _, n := range allInputs(outputs) {
			if n.Kind == OpInput && n.Name == name {
				memo[n] = t
			}
		}
	}

	results := make([]*Tensor, len(outputs))
	for i, n := range outputs {
		t, err := eval(n)
		if err != nil {
			return nil, err
		}
		results[i] = t
	}
	return results, nil
}

// allInputs collects the transitive closure of the outputs' ancestors.
func allInputs(outputs []*Node) []*Node {
	seen := map[*Node]bool{}
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		out = append(out, n)
		for _, in := range n.Inputs {
			walk(in)
		}
	}
	for _, n := range outputs {
		walk(n)
	}
	return out
}

// execute runs one node on the placed device.
func (s *Session) execute(n *Node, ins []*Tensor) (*Tensor, error) {
	onPIM := s.eligible(n)
	// Runtime sizing for elementwise ops.
	if onPIM && !n.ForcePIM && n.Kind != OpMatVec && len(ins) > 0 {
		onPIM = 2*ins[0].Numel() >= s.OffloadThreshold
	}
	if n.ForcePIM && s.RT == nil {
		return nil, fmt.Errorf("PIM custom op on a host-only session")
	}
	where := "host"
	if onPIM {
		where = "pim"
	}
	s.Placement[n] = where

	switch n.Kind {
	case OpInput:
		return nil, fmt.Errorf("input %q was not fed", n.Name)
	case OpConst:
		return n.Value, nil
	case OpMatVec:
		m := n.W.Shape[0]
		k := n.W.Shape[1]
		if len(ins) != 1 || ins[0].Numel() != k {
			return nil, fmt.Errorf("input length %d, want %d", ins[0].Numel(), k)
		}
		if onPIM {
			y, _, err := blas.PimGemv(s.RT, n.W.Data, m, k, ins[0].Data)
			if err != nil {
				return nil, err
			}
			return &Tensor{Shape: []int{m}, Data: y}, nil
		}
		if s.MatVecGRF > 0 {
			return &Tensor{Shape: []int{m}, Data: blas.RefGemvPIMOrder(n.W.Data, m, k, ins[0].Data, s.MatVecGRF)}, nil
		}
		return &Tensor{Shape: []int{m}, Data: blas.HostGemvF32(n.W.Data, m, k, ins[0].Data)}, nil
	case OpAdd, OpMul:
		if len(ins) != 2 || !ins[0].SameShape(ins[1]) {
			return nil, fmt.Errorf("shape mismatch")
		}
		nElem := ins[0].Numel()
		if onPIM {
			var out fp16.Vector
			var err error
			if n.Kind == OpAdd {
				out, _, err = blas.PimAdd(s.RT, ins[0].Data, ins[1].Data, nElem)
			} else {
				out, _, err = blas.PimMul(s.RT, ins[0].Data, ins[1].Data, nElem)
			}
			if err != nil {
				return nil, err
			}
			return &Tensor{Shape: ins[0].Shape, Data: out}, nil
		}
		if n.Kind == OpAdd {
			return &Tensor{Shape: ins[0].Shape, Data: blas.RefAdd(ins[0].Data, ins[1].Data)}, nil
		}
		return &Tensor{Shape: ins[0].Shape, Data: blas.RefMul(ins[0].Data, ins[1].Data)}, nil
	case OpReLU:
		if onPIM {
			out, _, err := blas.PimReLU(s.RT, ins[0].Data, ins[0].Numel())
			if err != nil {
				return nil, err
			}
			return &Tensor{Shape: ins[0].Shape, Data: out}, nil
		}
		return &Tensor{Shape: ins[0].Shape, Data: blas.RefReLU(ins[0].Data)}, nil
	case OpSlice:
		return executeSlice(n, ins[0])
	case OpConcat:
		out := fp16.NewVector(ins[0].Numel() + ins[1].Numel())
		copy(out[copy(out, ins[0].Data):], ins[1].Data)
		return &Tensor{Shape: []int{len(out)}, Data: out}, nil
	case OpSigmoid, OpTanh:
		out := fp16.NewVector(ins[0].Numel())
		for i, v := range ins[0].Data {
			x := v.Float64()
			if n.Kind == OpSigmoid {
				out[i] = fp16.FromFloat64(1 / (1 + math.Exp(-x)))
			} else {
				out[i] = fp16.FromFloat64(math.Tanh(x))
			}
		}
		return &Tensor{Shape: ins[0].Shape, Data: out}, nil
	}
	return nil, fmt.Errorf("unhandled op kind %s", n.Kind)
}
