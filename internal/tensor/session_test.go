package tensor

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pimsim/internal/blas"
	"pimsim/internal/fp16"
)

// Session error-path coverage: the three ways a graph run fails before
// any kernel could launch. Each error must name the offending node so a
// multi-hundred-node model graph stays debuggable.

func TestSessionErrorUnfedInput(t *testing.T) {
	var g Graph
	x := g.Input("frame")
	y := g.ReLU("act", x)
	_, err := NewHostSession().Run(map[string]*Tensor{"wrong-name": New(4)}, y)
	if err == nil {
		t.Fatal("run with a missing feed succeeded")
	}
	if want := `input "frame" was not fed`; !contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}

func TestSessionErrorShapeMismatchMidGraph(t *testing.T) {
	// The mismatch sits two ops deep: both inputs are fed correctly, the
	// Add of a 4-vector and a MatVec output of 3 rows is what breaks.
	var g Graph
	w := New(3, 4)
	x := g.Input("x")
	mv := g.MatVec("proj", w, x)
	bad := g.Add("residual", mv, x) // 3 + 4 elements
	_, err := NewHostSession().Run(map[string]*Tensor{"x": New(4)}, bad)
	if err == nil {
		t.Fatal("mid-graph shape mismatch accepted")
	}
	if !contains(err.Error(), "residual") || !contains(err.Error(), "shape mismatch") {
		t.Errorf("error %q does not name node and cause", err)
	}
}

func TestSessionErrorForcedPIMWithoutRuntime(t *testing.T) {
	var g Graph
	a := g.Input("a")
	y := g.ReLU("pim-relu", a).PIM()
	_, err := NewHostSession().Run(map[string]*Tensor{"a": New(4)}, y)
	if err == nil {
		t.Fatal("forced-PIM op ran on a host-only session")
	}
	if want := "PIM custom op on a host-only session"; !contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}

// TestSessionMatVecGRFMatchesDeviceOrder: a host session with MatVecGRF
// set must reproduce the device's interleaved-accumulator GEMV exactly.
func TestSessionMatVecGRFMatchesDeviceOrder(t *testing.T) {
	const M, K, G = 48, 40, 8
	rng := rand.New(rand.NewSource(11))
	wdata := fp16.NewVector(M * K)
	for i := range wdata {
		wdata[i] = fp16.FromFloat32(float32(rng.NormFloat64()))
	}
	x16 := fp16.NewVector(K)
	for i := range x16 {
		x16[i] = fp16.FromFloat32(float32(rng.NormFloat64()))
	}

	var g Graph
	xn := g.Input("x")
	y := g.MatVec("mv", &Tensor{Shape: []int{M, K}, Data: wdata}, xn)

	sess := NewHostSession()
	sess.MatVecGRF = G
	out, err := sess.Run(map[string]*Tensor{"x": {Shape: []int{K}, Data: x16}}, y)
	if err != nil {
		t.Fatal(err)
	}
	want := blas.RefGemvPIMOrder(wdata, M, K, x16, G)
	for i := range want {
		if out[0].Data[i] != want[i] {
			t.Fatalf("output %d: %v != device-order %v", i, out[0].Data[i], want[i])
		}
	}
}

// lstmHostStep is an independent pure-host reference for one LSTM cell
// step, mirroring the tensor graph's primitive semantics op by op: one
// float32 accumulation per gate row over x's columns and then h's (the
// fused GEMV [Wx|Wh]*[x;h], computed here from the two matrices apart, so
// the fused layout and the concat order are what is under test), an fp16
// bias add, per-element float64 activations, fp16 multiplies. It shares
// no code with BuildLSTMStep.
func lstmHostStep(wx, wh, b fp16.Vector, X, H int, x, h, c fp16.Vector) (hOut, cOut fp16.Vector) {
	fourH := 4 * H
	z := fp16.NewVector(fourH)
	for i := 0; i < fourH; i++ {
		var acc float32
		for k := 0; k < X; k++ {
			acc += wx[i*X+k].Float32() * x[k].Float32()
		}
		for k := 0; k < H; k++ {
			acc += wh[i*H+k].Float32() * h[k].Float32()
		}
		z[i] = fp16.Add(fp16.FromFloat32(acc), b[i])
	}
	sig := func(v fp16.F16) fp16.F16 { return fp16.FromFloat64(1 / (1 + math.Exp(-v.Float64()))) }
	tanh := func(v fp16.F16) fp16.F16 { return fp16.FromFloat64(math.Tanh(v.Float64())) }
	hOut = fp16.NewVector(H)
	cOut = fp16.NewVector(H)
	for j := 0; j < H; j++ {
		i := sig(z[j])
		f := sig(z[H+j])
		gg := tanh(z[2*H+j])
		o := sig(z[3*H+j])
		cOut[j] = fp16.Add(fp16.Mul(f, c[j]), fp16.Mul(i, gg))
		hOut[j] = fp16.Mul(o, tanh(cOut[j]))
	}
	return hOut, cOut
}

// TestBuildLSTMStepMultiStepGolden runs a BuildLSTMStep graph for eight
// timesteps with the state fed back, checks every step bit-for-bit
// against the independent host reference, and pins the final state to a
// golden hash so a silent semantic change in any primitive op (rounding,
// gate order, accumulation) fails loudly.
func TestBuildLSTMStepMultiStepGolden(t *testing.T) {
	const X, H, T = 12, 8, 8
	rng := rand.New(rand.NewSource(77))
	gen := func(n int) fp16.Vector {
		v := fp16.NewVector(n)
		for i := range v {
			v[i] = fp16.FromFloat32(float32(rng.NormFloat64() * 0.5))
		}
		return v
	}
	wx, wh, bias := gen(4*H*X), gen(4*H*H), gen(4*H)

	var g Graph
	xn, hn, cn := g.Input("x"), g.Input("h"), g.Input("c")
	hOut, cOut, err := BuildLSTMStep(&g, "cell",
		fuseGates(wx, wh, X, H),
		&Tensor{Shape: []int{4 * H}, Data: bias},
		xn, hn, cn)
	if err != nil {
		t.Fatal(err)
	}

	sess := NewHostSession()
	h := fp16.NewVector(H)
	c := fp16.NewVector(H)
	refH := fp16.NewVector(H)
	refC := fp16.NewVector(H)
	hash := fnv.New64a()
	for step := 0; step < T; step++ {
		x := gen(X)
		outs, err := sess.Run(map[string]*Tensor{
			"x": {Shape: []int{X}, Data: x},
			"h": {Shape: []int{H}, Data: h},
			"c": {Shape: []int{H}, Data: c},
		}, hOut, cOut)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		refH, refC = lstmHostStep(wx, wh, bias, X, H, x, refH, refC)
		for j := 0; j < H; j++ {
			if outs[0].Data[j] != refH[j] || outs[1].Data[j] != refC[j] {
				t.Fatalf("step %d element %d: graph (h=%v c=%v) != reference (h=%v c=%v)",
					step, j, outs[0].Data[j], outs[1].Data[j], refH[j], refC[j])
			}
		}
		h, c = outs[0].Data, outs[1].Data
	}
	hash.Write(h.Bytes())
	hash.Write(c.Bytes())
	const golden = "e6bcc9c01713095a"
	if got := fmt.Sprintf("%016x", hash.Sum64()); got != golden {
		t.Errorf("multi-step LSTM state hash %s, want golden %s", got, golden)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
