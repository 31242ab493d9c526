package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"time"

	"pimsim/internal/fault"
	"pimsim/internal/loadgen"
	"pimsim/internal/metrics"
	"pimsim/internal/obs"
	"pimsim/internal/serve"
)

// chaosOpts parameterizes the three-phase chaos drill.
type chaosOpts struct {
	profile     string
	seed        int64
	reqs        int     // requests per phase, for the phase banners
	recoverFrac float64 // recovery throughput floor, fraction of baseline
	maxErrFrac  float64 // tolerated non-OK fraction during the chaos phase
}

// runChaos is the acceptance drill behind `make chaos` and the CI smoke
// step (docs/FAULTS.md "Verifying the fault story"). Three phases, all
// with oracle verification on:
//
//  1. Baseline: a fault-free server with the ECC engine enabled, to price
//     the ECC overhead into the reference throughput.
//  2. Chaos: an identical server with the named fault profile injected.
//     The contract under fire: zero wrong answers ever, and the error
//     rate (all non-200s) stays under maxErrFrac.
//  3. Recovery: the same faulted server again, after waiting for every
//     shard to revive. Throughput must be back to recoverFrac of the
//     baseline — eviction is a transient, not a ratchet.
func runChaos(o chaosOpts, base serve.Config, drive driver) error {
	base.ECC = true
	// Both servers run with the flight recorder armed — the recovery
	// verdict compares throughput against the baseline, so the baseline
	// must pay the same tracing cost.
	base.Tracer = obs.NewTracer(1 << 14)

	log.Printf("pimload: chaos phase 1/3: fault-free ECC-on baseline (%d requests)", o.reqs)
	baseline, err := runAgainst(base, drive)
	if err != nil {
		return fmt.Errorf("baseline run: %w", err)
	}
	fmt.Printf("baseline (ECC on, no faults):\n%s", baseline)

	fc, err := fault.Profile(o.profile, o.seed)
	if err != nil {
		return err
	}
	cfg := base
	cfg.Fault = &fc
	// The faulted server gets its own recorder: part of the verdict below
	// is that re-dispatches show up as spans attached to the affected
	// request IDs.
	tracer := obs.NewTracer(1 << 14)
	cfg.Tracer = tracer

	url, stop, err := serveInProcess(cfg)
	if err != nil {
		return err
	}
	defer stop()

	log.Printf("pimload: chaos phase 2/3: profile %s, seed %d (%d requests)", o.profile, o.seed, o.reqs)
	chaos, err := drive(url)
	if err != nil {
		return fmt.Errorf("chaos run: %w", err)
	}
	fmt.Printf("under %s:\n%s", o.profile, chaos)

	if err := waitHealthy(url, cfg.Shards, 15*time.Second); err != nil {
		return err
	}
	snap, err := fetchMetrics(url)
	if err != nil {
		return err
	}

	log.Printf("pimload: chaos phase 3/3: post-recovery (%d requests)", o.reqs)
	recovered, err := drive(url)
	if err != nil {
		return fmt.Errorf("recovery run: %w", err)
	}
	fmt.Printf("after recovery:\n%s", recovered)

	// The verdicts. Wrong data is a hard zero across every phase.
	var fails []string
	for phase, r := range map[string]*loadgen.Report{"baseline": baseline, "chaos": chaos, "recovery": recovered} {
		if r.BadOutputs != 0 {
			fails = append(fails, fmt.Sprintf("%s: %d responses carried wrong data", phase, r.BadOutputs))
		}
	}
	if errFrac := float64(chaos.Sent-chaos.OK) / float64(chaos.Sent); errFrac > o.maxErrFrac {
		fails = append(fails, fmt.Sprintf("chaos error rate %.1f%% exceeds the %.0f%% budget",
			100*errFrac, 100*o.maxErrFrac))
	}
	if fc.DieAfterBatches > 0 {
		if ev := snap.Counter("serve_shard_evictions_total"); ev < 1 {
			fails = append(fails, "the injected outage never evicted a shard")
		}
		if rv := snap.Counter("serve_shard_revivals_total"); rv < 1 {
			fails = append(fails, "no shard revived before the recovery phase")
		}
	}
	if fc.CorruptsData() {
		if bf := snap.Counter("fault_bit_flips_total"); bf < 1 {
			fails = append(fails, "the injector reported zero bit flips — nothing was actually injected")
		}
	}
	// Recovery is judged on wall throughput: the profile keeps injecting
	// latency spikes and bit flips after the outage revives (they are the
	// environment, not the incident), so simulated-device throughput stays
	// depressed by design — what must recover is the service's ability to
	// answer requests at its fault-free pace.
	floor := o.recoverFrac * baseline.ThroughputRPS
	if recovered.ThroughputRPS < floor {
		fails = append(fails, fmt.Sprintf("recovery throughput %.1f req/s below %.0f%% of the %.1f req/s baseline",
			recovered.ThroughputRPS, 100*o.recoverFrac, baseline.ThroughputRPS))
	}
	// Tracing verdict: every re-dispatch the metrics counted must be
	// reconstructible from the flight recorder — a "redispatch" event
	// naming the request it hit (and, for each, a root span sharing that
	// ID, unless the ring has since evicted it).
	spans := tracer.Snapshot()
	var redispatch, linked int
	for _, sp := range spans {
		if sp.Name != "redispatch" || sp.Req == "" {
			continue
		}
		redispatch++
		for _, other := range spans {
			if other.Req == sp.Req && other.Name == "request" {
				linked++
				break
			}
		}
	}
	if retries := snap.Counter("serve_retries_total"); retries > 0 && redispatch == 0 {
		fails = append(fails, fmt.Sprintf("metrics counted %d retries but the flight recorder holds no redispatch spans", retries))
	}
	fmt.Printf("flight recorder: %d spans (%d total recorded), %d redispatch events, %d linked to request roots\n",
		len(spans), tracer.Total(), redispatch, linked)

	fmt.Printf("chaos verdict: %d ok / %d sent under fire, %d wrong answers, recovery at %.0f%% of baseline\n",
		chaos.OK, chaos.Sent, chaos.BadOutputs, 100*recovered.ThroughputRPS/baseline.ThroughputRPS)
	if len(fails) > 0 {
		for _, f := range fails {
			log.Printf("pimload: chaos FAIL: %s", f)
		}
		return fmt.Errorf("chaos drill failed %d check(s)", len(fails))
	}
	return nil
}

// waitHealthy polls /healthz until every shard reports healthy.
func waitHealthy(base string, shards int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			var h struct {
				Healthy int `json:"shards_healthy"`
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && h.Healthy >= shards {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shards did not all revive within %v", timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fetchMetrics(base string) (*metrics.Snapshot, error) {
	resp, err := http.Get(base + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
