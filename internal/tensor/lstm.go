package tensor

import (
	"fmt"

	"pimsim/internal/fp16"
)

// Slice and Concat support and the LSTM composition. The paper ships six
// PIM custom ops — ADD, MUL, ReLU, LSTM, GEMV, BN (Section V-A); here LSTM
// is composed from the primitive graph ops, with its one fused GEMV
// eligible for PIM placement and the gate math on host-only activation
// ops, and BN is a blas kernel (blas.PimBN) no graph op lowers to.

// Slice extracts elements [off, off+n) of a vector (a host-side view; it
// moves no DRAM data).
func (g *Graph) Slice(name string, x *Node, off, n int) *Node {
	return g.add(&Node{Kind: OpSlice, Name: name, Inputs: []*Node{x}, Off: off, Len: n})
}

// Concat joins two vectors end to end (a host-side view like Slice; it
// moves no DRAM data).
func (g *Graph) Concat(name string, a, b *Node) *Node {
	return g.add(&Node{Kind: OpConcat, Name: name, Inputs: []*Node{a, b}})
}

// BuildLSTMStep wires one LSTM cell step from primitives:
//
//	z  = W*[x;h] + b
//	i,f,g,o = sigmoid/tanh of the four H-wide bands of z
//	c' = f*c + i*g ;  h' = o * tanh(c')
//
// w is the fused 4H x (X+H) gate matrix, row r = [Wx row r | Wh row r],
// so Wx*x + Wh*h is one GEMV and its sum forms in the accumulators, not
// in an fp16 add between two results. Gate order matches
// blas.LSTMWeights: [input, forget, cell, output]. The MatVec is the
// memory-bound part the PIM session offloads.
func BuildLSTMStep(g *Graph, name string, w, bias *Tensor, x, h, c *Node) (hOut, cOut *Node, err error) {
	if len(w.Shape) != 2 || w.Shape[0]%4 != 0 || w.Shape[1] <= w.Shape[0]/4 {
		return nil, nil, fmt.Errorf("tensor: LSTM weights %v are not a 4H x (X+H) matrix", w.Shape)
	}
	H := w.Shape[0] / 4

	z := g.MatVec(name+"/w", w, g.Concat(name+"/xh", x, h))
	if bias != nil {
		z = g.Add(name+"/bias", z, g.Const(name+"/b", bias))
	}

	gate := func(idx int, act func(string, *Node) *Node, label string) *Node {
		return act(name+"/"+label, g.Slice(name+"/"+label+"_pre", z, idx*H, H))
	}
	i := gate(0, g.Sigmoid, "i")
	f := gate(1, g.Sigmoid, "f")
	gg := gate(2, g.Tanh, "g")
	o := gate(3, g.Sigmoid, "o")

	cOut = g.Add(name+"/c", g.Mul(name+"/fc", f, c), g.Mul(name+"/ig", i, gg))
	hOut = g.Mul(name+"/h", o, g.Tanh(name+"/tc", cOut))
	return hOut, cOut, nil
}

// executeSlice implements OpSlice (called from Session.execute).
func executeSlice(n *Node, in *Tensor) (*Tensor, error) {
	if n.Off < 0 || n.Len <= 0 || n.Off+n.Len > in.Numel() {
		return nil, fmt.Errorf("slice [%d,%d) of %d elements", n.Off, n.Off+n.Len, in.Numel())
	}
	out := fp16.NewVector(n.Len)
	copy(out, in.Data[n.Off:n.Off+n.Len])
	return &Tensor{Shape: []int{n.Len}, Data: out}, nil
}
