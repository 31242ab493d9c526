package blas

import (
	"math/rand"
	"sync"
	"testing"

	"pimsim/internal/engine"
	"pimsim/internal/fp16"
	"pimsim/internal/runtime"
)

// Concurrency audit for the serving layer (run under -race in CI).
//
// The server holds a pool of independent shards — one Runtime, Driver and
// Device each — and drives them from concurrent worker goroutines. The
// layers a shard touches keep all mutable state per-instance (channel
// clocks, bank storage, driver allocator, per-slot decode caches,
// per-pCH scratch buffers); the only cross-shard state is package-level
// lookup tables (fp16 conversion LUTs, ecc parity masks, isa name/combo
// tables), all built in package init() and read-only afterwards — Go
// guarantees init() completes before main or any test runs, so no
// sync.Once is needed. This test runs full GEMVs on two shards at once,
// with a parallel engine adding intra-shard goroutines, and checks both
// results bit-exactly: any hidden shared mutable state shows up as a
// race report or a wrong lane.
func TestConcurrentShardsGemv(t *testing.T) {
	const (
		shards = 2
		M, K   = 64, 256
		iters  = 4
	)
	rts := make([]*testShard, shards)
	for i := range rts {
		rt := testRuntime(t, 2, true)
		rt.UseEngine(engine.NewParallel(2))
		defer rt.CloseEngine()
		rng := rand.New(rand.NewSource(int64(100 + i)))
		W := randVec(rng, M*K)
		g, err := LoadGemv(rt, W, M, K)
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = &testShard{rt: rt, W: W, g: g, rng: rng}
	}

	var wg sync.WaitGroup
	errs := make([]error, shards)
	for i, sh := range rts {
		wg.Add(1)
		go func(i int, sh *testShard) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				// Alternate the resident batched path and the ad-hoc
				// PimGemv path: the server mixes both (model serving plus
				// load/unload traffic).
				xs := []fp16.Vector{randVec(sh.rng, K), randVec(sh.rng, K)}
				ys, _, err := sh.g.RunBatch(sh.rt, xs)
				if err != nil {
					errs[i] = err
					return
				}
				for bi, x := range xs {
					want := RefGemvPIMOrder(sh.W, M, K, x, GRFDepth(sh.rt))
					for o := range want {
						if ys[bi][o] != want[o] {
							t.Errorf("shard %d iter %d: lane %d output %d mismatch", i, it, bi, o)
							return
						}
					}
				}
				x := randVec(sh.rng, K)
				y, _, err := PimGemv(sh.rt, sh.W, M, K, x)
				if err != nil {
					errs[i] = err
					return
				}
				want := RefGemvPIMOrder(sh.W, M, K, x, GRFDepth(sh.rt))
				for o := range want {
					if y[o] != want[o] {
						t.Errorf("shard %d iter %d: ad-hoc output %d mismatch", i, it, o)
						return
					}
				}
			}
		}(i, sh)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
}

type testShard struct {
	rt  *runtime.Runtime
	W   fp16.Vector
	g   *ResidentGemv
	rng *rand.Rand
}
