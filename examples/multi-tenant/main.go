// Multi-tenancy: Section VIII observes that because the host controls the
// PIM operations of each memory channel independently, disjoint channel
// partitions can serve different tenants. Two tenants share one PIM-HBM
// system here — one runs GEMV, the other elementwise ADD — and each gets
// exactly the latency it would see running alone.
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

func randVec(rng *rand.Rand, n int) fp16.Vector {
	v := fp16.NewVector(n)
	for i := range v {
		v[i] = fp16.FromFloat32(float32(rng.NormFloat64()))
	}
	return v
}

func main() {
	cfg := hbm.PIMHBMConfig(1200)
	cfg.PseudoChannels = 8
	cfg.Functional = true
	rt, _, err := runtime.NewStack(cfg, 1)
	if err != nil {
		log.Fatal(err)
	}

	tenants, err := rt.PartitionEven(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("system: %d channels split into 2 tenants of %d channels each\n\n",
		rt.NumChannels(), tenants[0].NumChannels())

	rng := rand.New(rand.NewSource(5))
	const M, K = 256, 512
	W := randVec(rng, M*K)
	x := randVec(rng, K)
	const N = 100_000
	a := randVec(rng, N)
	b := randVec(rng, N)

	y, ksA, err := blas.PimGemv(tenants[0], W, M, K, x)
	if err != nil {
		log.Fatal(err)
	}
	c, ksB, err := blas.PimAdd(tenants[1], a, b, N)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("tenant A: GEMV %dx%d   -> %.2f us (%d triggers)\n",
		M, K, ksA.Ns(tenants[0])/1000, ksA.Triggers)
	fmt.Printf("tenant B: ADD  %d elems -> %.2f us (%d triggers)\n",
		N, ksB.Ns(tenants[1])/1000, ksB.Triggers)

	// Verify both against host references.
	wantY := blas.RefGemvPIMOrder(W, M, K, x, cfg.GRFDepth())
	wantC := blas.RefAdd(a, b)
	for i := range wantY {
		if y[i] != wantY[i] {
			log.Fatalf("tenant A corrupted: y[%d]", i)
		}
	}
	for i := range wantC {
		if c[i] != wantC[i] {
			log.Fatalf("tenant B corrupted: c[%d]", i)
		}
	}
	fmt.Println("\nboth tenants verified bit-exact; channel isolation held")
}
