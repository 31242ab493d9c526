// Quickstart: build a PIM-HBM system, run y = W*x on the in-memory
// execution units, and check the result against the host — in about forty
// lines of API.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"pimsim/internal/blas"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/runtime"
)

func main() {
	// A functional PIM-HBM stack (trimmed to 4 pseudo channels so the
	// example runs instantly).
	cfg := hbm.PIMHBMConfig(1200)
	cfg.PseudoChannels = 4
	cfg.Functional = true
	rt, _, err := runtime.NewStack(cfg, 1)
	if err != nil {
		log.Fatal(err)
	}

	// A 512 x 1024 FP16 matrix and an input vector.
	const M, K = 512, 1024
	rng := rand.New(rand.NewSource(7))
	W := fp16.NewVector(M * K)
	x := fp16.NewVector(K)
	for i := range W {
		W[i] = fp16.FromFloat32(float32(rng.NormFloat64()))
	}
	for i := range x {
		x[i] = fp16.FromFloat32(float32(rng.NormFloat64()))
	}

	// One call: the PIM BLAS lays W out across the banks, programs the
	// microkernel, streams the DRAM commands, and reads the result back.
	y, stats, err := blas.PimGemv(rt, W, M, K, x)
	if err != nil {
		log.Fatal(err)
	}

	want := blas.RefGemvPIMOrder(W, M, K, x, cfg.GRFDepth())
	for i := range want {
		if y[i] != want[i] {
			log.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}

	fmt.Printf("GEMV %dx%d on %d PIM units across %d channels\n",
		M, K, cfg.PIMUnits*cfg.PseudoChannels, cfg.PseudoChannels)
	fmt.Printf("  %d column-command triggers, %d fences\n", stats.Triggers, stats.Fences)
	fmt.Printf("  kernel time: %.2f us\n", stats.Ns(rt)/1000)
	fmt.Printf("  result: bit-exact against the host reference (%d outputs)\n", M)
	fmt.Printf("  y[0..4] = %v\n", y[:5])
	fmt.Println("\nnext: examples/serving runs an HTTP inference service with")
	fmt.Println("dynamic batching over a pool of these simulated devices")
}
