// Graph framework: the paper's headline software claim is that existing
// applications run on PIM without source changes (Fig. 6). This example
// builds one model graph — a two-layer MLP with a residual connection —
// and runs the *same graph object* on a host session and a PIM session.
// The PIM session's preprocessor offloads the memory-bound ops on its
// own; one op is additionally forced onto PIM as an explicit custom op
// (the Fig. 7 path).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/runtime"
	"pimsim/internal/tensor"
)

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = fp16.FromFloat32(float32(rng.NormFloat64() * 0.2))
	}
	return t
}

func main() {
	rng := rand.New(rand.NewSource(9))
	const in, hid, out = 256, 192, 128

	// The application builds its graph once.
	var g tensor.Graph
	x := g.Input("x")
	h := g.MatVec("fc1", randTensor(rng, hid, in), x)
	h = g.Add("bias1", h, g.Const("b1", randTensor(rng, hid)))
	h = g.ReLU("act1", h)
	y := g.MatVec("fc2", randTensor(rng, out, hid), h)
	y = g.Add("residual", y, g.Const("skip", randTensor(rng, out))).PIM() // explicit custom op

	feeds := map[string]*tensor.Tensor{"x": randTensor(rng, in)}

	// Session 1: host only. The custom op would fail here, so fetch the
	// pre-residual node for the host run and add on the host side...
	// no — the point is the SAME graph: build the PIM system first.
	cfg := hbm.PIMHBMConfig(1200)
	cfg.PseudoChannels = 4
	cfg.Functional = true
	rt, _, err := runtime.NewStack(cfg, 1)
	if err != nil {
		log.Fatal(err)
	}

	pimSess := tensor.NewPIMSession(rt)
	pimOut, err := pimSess.Run(feeds, y)
	if err != nil {
		log.Fatal(err)
	}

	// For the numeric comparison, run the graph minus the forced flag on
	// the host (a host session cannot execute an explicit PIM op — that is
	// the contract).
	y.ForcePIM = false
	hostOut, err := tensor.NewHostSession().Run(feeds, y)
	if err != nil {
		log.Fatal(err)
	}
	y.ForcePIM = true

	fmt.Println("same graph, two devices:")
	onPIM := 0
	for n, where := range pimSess.Placement {
		if where == "pim" {
			onPIM++
			fmt.Printf("  offloaded to PIM: %-8s %s\n", n.Kind, n.Name)
		}
	}
	fmt.Printf("%d of %d ops ran on the PIM units\n", onPIM, len(pimSess.Placement))

	d := fp16.MaxAbsDiff(pimOut[0].Data, hostOut[0].Data)
	fmt.Printf("host vs PIM output max divergence: %.4f (fp16 vs f32 accumulation)\n", d)
	if d > 0.1 {
		log.Fatal("outputs diverged beyond fp16 accumulation noise")
	}
	fmt.Printf("y[0..4] = %v\n", pimOut[0].Data[:5])
}
