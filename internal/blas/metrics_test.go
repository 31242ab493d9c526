package blas

import (
	"math/rand"
	"testing"

	"pimsim/internal/engine"
	"pimsim/internal/runtime"
)

// TestParallelKernelMetricsShards: under a parallel engine every channel
// goroutine books into its own channel's counters, so they must survive
// the race detector and the collected totals must agree with the kernel's
// own bookkeeping — and with a sequential run of the same kernel.
func TestParallelKernelMetricsShards(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 1 << 15
	a, b := randVec(rng, n), randVec(rng, n)

	rt := testRuntime(t, 4, true)
	rt.UseEngine(engine.NewParallel(4))
	defer rt.CloseEngine()
	// A one-channel view shares its channel's phase ledger, so its phase
	// observation reads that channel's ledger alone.
	views := make([]*runtime.Runtime, rt.NumChannels())
	for ch := range views {
		v, err := rt.Restrict([]int{ch})
		if err != nil {
			t.Fatal(err)
		}
		v.BeginPhaseObs()
		views[ch] = v
	}
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
	// Every channel ran part of the kernel, so every channel's ledger must
	// hold a private nonzero slice of the trigger count.
	var ledgerSum int64
	for ch, v := range views {
		n := v.TakePhaseObs().Count[runtime.PhaseTrigger]
		if n == 0 {
			t.Errorf("channel %d recorded no triggers in its ledger", ch)
		}
		ledgerSum += n
	}
	if ledgerSum != ks.Triggers {
		t.Errorf("ledger sum %d != kernel triggers %d", ledgerSum, ks.Triggers)
	}
	// Device-side collector counters came along in the same snapshot.
	if snap.Counter("pim_instr_total{op=\"ADD\"}") == 0 {
		t.Error("collector did not surface per-op PIM retire counts")
	}
	if snap.Counter("hbm_mode_cycles_total{mode=\"AB-PIM\"}") == 0 {
		t.Error("collector did not surface mode residency")
	}

	// A sequential run of the same kernel must produce identical counter
	// totals — parallelism only changes which goroutine books a channel,
	// not what.
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
