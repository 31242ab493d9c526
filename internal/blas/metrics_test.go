package blas

import (
	"math/rand"
	"testing"

	"pimsim/internal/engine"
)

// TestParallelKernelMetricsShards: under a parallel engine every channel
// goroutine writes its own registry shard, so counters must survive the
// race detector and the merged totals must agree with the kernel's own
// bookkeeping — and with a sequential run of the same kernel.
func TestParallelKernelMetricsShards(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 1 << 15
	a, b := randVec(rng, n), randVec(rng, n)

	rt := testRuntime(t, 4, true)
	rt.UseEngine(engine.NewParallel(4))
	defer rt.CloseEngine()
	c, ks, err := PimAdd(rt, a, b, n)
	if err != nil {
		t.Fatal(err)
	}
	want := RefAdd(a, b)
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("c[%d] wrong under parallel metrics run", i)
		}
	}

	snap := rt.Metrics.Snapshot()
	if got := snap.Counter("runtime_triggers_total"); got != ks.Triggers {
		t.Errorf("runtime_triggers_total = %d, kernel counted %d", got, ks.Triggers)
	}
	if got := snap.Counter("memctrl_fences_total"); got < ks.Fences || got == 0 {
		t.Errorf("memctrl_fences_total = %d, kernel counted %d", got, ks.Fences)
	}
	// Every channel ran part of the kernel, so every channel's shard must
	// hold a private nonzero slice of the trigger count.
	trig := rt.Metrics.Counter("runtime_triggers_total")
	var shardSum int64
	for ch := 0; ch < rt.NumChannels(); ch++ {
		v := trig.ShardValue(rt.Chans[ch].MetricsShard())
		if v == 0 {
			t.Errorf("channel %d recorded no triggers in its shard", ch)
		}
		shardSum += v
	}
	if shardSum != ks.Triggers {
		t.Errorf("shard sum %d != kernel triggers %d", shardSum, ks.Triggers)
	}
	// Device-side collector counters came along in the same snapshot.
	if snap.Counter("pim_instr_total{op=\"ADD\"}") == 0 {
		t.Error("collector did not surface per-op PIM retire counts")
	}
	if snap.Counter("hbm_mode_cycles_total{mode=\"AB-PIM\"}") == 0 {
		t.Error("collector did not surface mode residency")
	}

	// A sequential run of the same kernel must produce identical counter
	// totals — parallelism only changes which shard is written, not what.
	seqRT := testRuntime(t, 4, true)
	if _, _, err := PimAdd(seqRT, a, b, n); err != nil {
		t.Fatal(err)
	}
	seqSnap := seqRT.Metrics.Snapshot()
	for name, v := range snap.Counters {
		if got := seqSnap.Counters[name]; got != v {
			t.Errorf("%s: parallel %d vs sequential %d", name, v, got)
		}
	}
}
