package tensor

import (
	"math/rand"
	"testing"

	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/runtime"
)

func pimRT(t *testing.T) *runtime.Runtime {
	t.Helper()
	cfg := hbm.PIMHBMConfig(1000)
	cfg.PseudoChannels = 2
	dev, err := hbm.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := runtime.New([]*hbm.Device{dev})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = fp16.FromFloat32(float32(rng.NormFloat64() * 0.2))
	}
	return t
}

// buildMLP constructs W2*relu(W1*x + b) + skip — one graph used by both
// sessions, unchanged (the paper's "no source code modification" claim).
func buildMLP(g *Graph, w1, w2, b, skip *Tensor) (*Node, *Node) {
	x := g.Input("x")
	h := g.MatVec("fc1", w1, x)
	h = g.Add("bias", h, g.Const("b", b))
	h = g.ReLU("act", h)
	y := g.MatVec("fc2", w2, h)
	y = g.Add("skip", y, g.Const("res", skip))
	return x, y
}

func TestSameGraphHostAndPIM(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const in, hid, out = 64, 48, 32
	w1 := randTensor(rng, hid, in)
	w2 := randTensor(rng, out, hid)
	b := randTensor(rng, hid)
	skip := randTensor(rng, out)
	x := randTensor(rng, in)

	var g Graph
	xn, yn := buildMLP(&g, w1, w2, b, skip)
	_ = xn

	hostOut, err := NewHostSession().Run(map[string]*Tensor{"x": x}, yn)
	if err != nil {
		t.Fatal(err)
	}
	pimSess := NewPIMSession(pimRT(t))
	pimSess.OffloadThreshold = 1 // offload everything eligible
	pimOut, err := pimSess.Run(map[string]*Tensor{"x": x}, yn)
	if err != nil {
		t.Fatal(err)
	}

	// Host accumulates MatVec in f32, PIM in fp16: small divergence only.
	if d := fp16.MaxAbsDiff(hostOut[0].Data, pimOut[0].Data); d > 0.05 {
		t.Errorf("host/PIM diverged by %v", d)
	}
	// The preprocessor must actually have placed work on PIM.
	pimOps := 0
	for n, where := range pimSess.Placement {
		if where == "pim" {
			pimOps++
			switch n.Kind {
			case OpMatVec, OpAdd, OpMul, OpReLU:
			default:
				t.Errorf("op %s placed on PIM without a kernel", n.Kind)
			}
		}
	}
	if pimOps < 3 {
		t.Errorf("only %d ops offloaded", pimOps)
	}
}

func TestEltwisePIMExactlyMatchesHost(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randTensor(rng, 600)
	b := randTensor(rng, 600)

	var g Graph
	an := g.Const("a", a)
	bn := g.Const("b", b)
	sum := g.Add("sum", an, bn)
	prod := g.Mul("prod", an, bn)
	act := g.ReLU("relu", sum)

	host, err := NewHostSession().Run(nil, sum, prod, act)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewPIMSession(pimRT(t))
	sess.OffloadThreshold = 1
	pim, err := sess.Run(nil, sum, prod, act)
	if err != nil {
		t.Fatal(err)
	}
	for i := range host {
		for j := range host[i].Data {
			h, p := host[i].Data[j], pim[i].Data[j]
			if h != p && !(h.IsNaN() && p.IsNaN()) {
				t.Fatalf("output %d element %d: host %v pim %v", i, j, h, p)
			}
		}
	}
}

func TestOffloadThresholdKeepsSmallOpsOnHost(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	small := randTensor(rng, 16)
	var g Graph
	y := g.ReLU("tiny", g.Const("c", small))
	sess := NewPIMSession(pimRT(t))
	sess.OffloadThreshold = 1 << 20
	if _, err := sess.Run(nil, y); err != nil {
		t.Fatal(err)
	}
	if sess.Placement[y] != "host" {
		t.Error("tiny op offloaded despite threshold")
	}
}

func TestPIMCustomOpForcesPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := randTensor(rng, 64)
	b := randTensor(rng, 64)
	var g Graph
	y := g.Add("custom", g.Const("a", a), g.Const("b", b)).PIM()

	// Host-only session must refuse the explicit PIM op.
	if _, err := NewHostSession().Run(nil, y); err == nil {
		t.Error("host session executed a PIM custom op")
	}
	sess := NewPIMSession(pimRT(t))
	sess.OffloadThreshold = 1 << 30 // would normally keep it on host
	if _, err := sess.Run(nil, y); err != nil {
		t.Fatal(err)
	}
	if sess.Placement[y] != "pim" {
		t.Error("custom op not placed on PIM")
	}
}

func TestGraphErrors(t *testing.T) {
	var g Graph
	x := g.Input("x")
	y := g.ReLU("r", x)
	if _, err := NewHostSession().Run(nil, y); err == nil {
		t.Error("unfed input accepted")
	}
	w := New(3, 4)
	mv := g.MatVec("m", w, g.Const("c", New(5)))
	if _, err := NewHostSession().Run(nil, mv); err == nil {
		t.Error("dimension mismatch accepted")
	}
	a := g.Const("a", New(4))
	b := g.Const("b", New(5))
	if _, err := NewHostSession().Run(nil, g.Add("bad", a, b)); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestTensorBasics(t *testing.T) {
	tt := &Tensor{Shape: []int{2, 2}, Data: fp16.FromFloat32s([]float32{1, 2, 3, 4})}
	if tt.Numel() != 4 {
		t.Error("numel")
	}
	got := tt.Data.Float32s()
	if got[3] != 4 {
		t.Error("round trip")
	}
	if !tt.SameShape(New(2, 2)) || tt.SameShape(New(4)) {
		t.Error("SameShape")
	}
}
