package tensor

import (
	"math/rand"
	"testing"

	"pimsim/internal/blas"
	"pimsim/internal/fp16"
)

// fuseGates lays a 4H x X input matrix and a 4H x H recurrent matrix out
// as the one 4H x (X+H) matrix BuildLSTMStep takes: row r = [wx row r |
// wh row r].
func fuseGates(wx, wh fp16.Vector, X, H int) *Tensor {
	w := New(4*H, X+H)
	for r := 0; r < 4*H; r++ {
		row := w.Data[r*(X+H) : (r+1)*(X+H)]
		copy(row[copy(row, wx[r*X:(r+1)*X]):], wh[r*H:(r+1)*H])
	}
	return w
}

func TestBuildLSTMStepMatchesBLAS(t *testing.T) {
	const H, X = 24, 32
	rng := rand.New(rand.NewSource(41))
	wx := randTensor(rng, 4*H, X)
	wh := randTensor(rng, 4*H, H)
	bias := randTensor(rng, 4*H)
	x := randTensor(rng, X)
	h0 := randTensor(rng, H)
	c0 := randTensor(rng, H)

	var g Graph
	xn := g.Input("x")
	hn := g.Input("h")
	cn := g.Input("c")
	hOut, cOut, err := BuildLSTMStep(&g, "cell", fuseGates(wx.Data, wh.Data, X, H), bias, xn, hn, cn)
	if err != nil {
		t.Fatal(err)
	}
	feeds := map[string]*Tensor{"x": x, "h": h0, "c": c0}

	// Host session vs the blas reference cell.
	got, err := NewHostSession().Run(feeds, hOut, cOut)
	if err != nil {
		t.Fatal(err)
	}
	w := blas.LSTMWeights{Wx: wx.Data, Wh: wh.Data, B: bias.Data, X: X, H: H}
	wantH, wantC, err := blas.HostLSTMCell(w, x.Data, h0.Data, c0.Data)
	if err != nil {
		t.Fatal(err)
	}
	// Rounding orders differ (the graph accumulates [Wx|Wh]*[x;h] as one
	// GEMV and adds the bias in fp16, blas runs two GEMVs and sums the
	// pre-activations in float64); gates saturate so drift stays small.
	if d := fp16.MaxAbsDiff(got[0].Data, wantH); d > 0.03 {
		t.Errorf("h diverged by %v", d)
	}
	if d := fp16.MaxAbsDiff(got[1].Data, wantC); d > 0.06 {
		t.Errorf("c diverged by %v", d)
	}

	// The same graph on a PIM session: the fused MatVec offloads.
	sess := NewPIMSession(pimRT(t))
	sess.OffloadThreshold = 1
	pimOut, err := sess.Run(feeds, hOut, cOut)
	if err != nil {
		t.Fatal(err)
	}
	if d := fp16.MaxAbsDiff(pimOut[0].Data, got[0].Data); d > 0.05 {
		t.Errorf("PIM h diverged by %v", d)
	}
	offloadedMatVecs := 0
	for n, where := range sess.Placement {
		if n.Kind == OpMatVec && where == "pim" {
			offloadedMatVecs++
		}
		if (n.Kind == OpSigmoid || n.Kind == OpTanh || n.Kind == OpSlice || n.Kind == OpConcat) && where == "pim" {
			t.Errorf("host-only op %s placed on PIM", n.Kind)
		}
	}
	if offloadedMatVecs != 1 {
		t.Errorf("%d MatVecs offloaded, want 1 ([Wx|Wh] over [x;h])", offloadedMatVecs)
	}
}

func TestBuildLSTMStepValidation(t *testing.T) {
	var g Graph
	x := g.Input("x")
	h := g.Input("h")
	c := g.Input("c")
	if _, _, err := BuildLSTMStep(&g, "bad", New(10), nil, x, h, c); err == nil {
		t.Error("vector weights accepted")
	}
	if _, _, err := BuildLSTMStep(&g, "bad2", New(10, 8), nil, x, h, c); err == nil {
		t.Error("row count that is not 4H accepted")
	}
	if _, _, err := BuildLSTMStep(&g, "bad3", New(12, 3), nil, x, h, c); err == nil {
		t.Error("12x3 accepted: H = 3 leaves no input columns (want more than H)")
	}
}

func TestConcatOp(t *testing.T) {
	a := &Tensor{Shape: []int{3}, Data: fp16.FromFloat32s([]float32{1, 2, 3})}
	b := &Tensor{Shape: []int{2}, Data: fp16.FromFloat32s([]float32{4, 5})}
	var g Graph
	out, err := NewHostSession().Run(nil, g.Concat("ab", g.Const("a", a), g.Const("b", b)))
	if err != nil {
		t.Fatal(err)
	}
	got := out[0].Data.Float32s()
	if len(got) != 5 || out[0].Shape[0] != 5 || got[0] != 1 || got[2] != 3 || got[3] != 4 || got[4] != 5 {
		t.Fatalf("concat = %v shape %v, want [1 2 3 4 5]", got, out[0].Shape)
	}
	if a.Data[0].Float32() != 1 || len(a.Data) != 3 {
		t.Error("concat wrote into its first operand")
	}
}

func TestSliceOp(t *testing.T) {
	v := &Tensor{Shape: []int{5}, Data: fp16.FromFloat32s([]float32{1, 2, 3, 4, 5})}
	var g Graph
	s := g.Slice("mid", g.Const("v", v), 1, 3)
	out, err := NewHostSession().Run(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	got := out[0].Data.Float32s()
	if len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("slice = %v", got)
	}
	for _, bad := range []*Node{
		g.Slice("oob", g.Const("v2", v), 3, 3),
		g.Slice("neg", g.Const("v3", v), -1, 2),
	} {
		if _, err := NewHostSession().Run(nil, bad); err == nil {
			t.Errorf("bad slice %q accepted", bad.Name)
		}
	}
}
