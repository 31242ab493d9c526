package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"time"

	"pimsim/internal/blas"
	"pimsim/internal/fault"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/nn"
)

// Shard health.
//
// Every shard moves through a three-state machine driven by batch
// outcomes and probation probes:
//
//	healthy ──slow kernel / 1 failure──▶ suspect
//	suspect ──okProbation clean batches──▶ healthy
//	suspect ──EvictAfter consecutive failures──▶ evicted
//	evicted ──clean probation probe──▶ healthy  (back into the pool)
//
// Healthy and suspect shards stay in the pool and keep serving (a
// suspect shard is slow or flaky, not wrong — ECC guarantees that).
// An evicted shard is handed to the prober goroutine, which owns it
// exclusively: every ProbeInterval it steps a known-answer frame on every
// slot of every resident model, GEMV and sequence alike, and compares
// bit-for-bit against the plan's host oracle. A probe that fails with an
// uncorrectable ECC error triggers the recovery path: unload the model
// whose rows include the poisoned one, quarantine that row in the driver
// (permanently — first-fit skips the hole, even across resets), and
// reload the model onto clean rows. Only a fully clean probe revives the
// shard.
//
// State transitions are guarded by Server.hmu; the pool channel is the
// exclusion mechanism for the device itself (a shard is touched only by
// the worker holding its lease, or by the prober after eviction).

type healthState int32

const (
	shardHealthy healthState = iota
	shardSuspect             // serving, but slow or recently failed
	shardEvicted             // out of the pool, owned by the prober
)

func (h healthState) String() string {
	switch h {
	case shardHealthy:
		return "healthy"
	case shardSuspect:
		return "suspect"
	case shardEvicted:
		return "evicted"
	}
	return fmt.Sprintf("healthState(%d)", int32(h))
}

// okProbation is how many consecutive clean, fast batches a suspect
// shard needs to be promoted back to healthy.
const okProbation = 3

// setShardState moves a shard's health state and mirrors it into the
// shard's serve_shard_state gauge (value = healthState). Callers hold
// s.hmu.
func (s *Server) setShardState(sh *shard, st healthState) {
	sh.state = st
	s.stateG[sh.id].Set(int64(st))
}

// retryable classifies a batch error: device faults that a different
// (or recovered) shard can absorb. Everything else — a programming
// error, an invalid batch — would fail identically anywhere.
func retryable(err error) bool {
	var ue *hbm.UncorrectableError
	var de *fault.ShardDeadError
	return errors.As(err, &ue) || errors.As(err, &de)
}

// statusFor maps a terminal batch error to its HTTP status: retryable
// device faults that exhausted every retry are a capacity problem
// (503, the client should back off and return), anything else is 500.
func statusFor(err error) int {
	if retryable(err) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// noteSuccess records a clean launch (a batch or a sequence timestep):
// resets the failure streak, updates the model's best-case latency
// baseline, and moves the shard along the suspect/healthy axis. cycles is
// the kernel's slowest channel — one request per channel, so it is also
// the per-request latency.
func (s *Server) noteSuccess(m *model, sh *shard, cycles int64) {
	base := m.minCycles.Load()
	for base == 0 || cycles < base {
		if m.minCycles.CompareAndSwap(base, cycles) {
			break
		}
		base = m.minCycles.Load()
	}
	slow := base > 0 && float64(cycles) > s.cfg.SuspectCycleFactor*float64(base)

	s.hmu.Lock()
	defer s.hmu.Unlock()
	sh.consecFails = 0
	switch sh.state {
	case shardHealthy:
		if slow {
			s.setShardState(sh, shardSuspect)
			sh.okStreak = 0
			s.suspects.Inc()
		}
	case shardSuspect:
		if slow {
			sh.okStreak = 0
			return
		}
		sh.okStreak++
		if sh.okStreak >= okProbation {
			s.setShardState(sh, shardHealthy)
			sh.okStreak = 0
		}
	}
}

// noteFailure records a failed batch attempt and decides the shard's
// fate: eviction (handed to the prober) once EvictAfter consecutive
// failures accumulate, demotion to suspect otherwise. Either way the
// shard leaves the caller's hands — do not touch it after this returns.
func (s *Server) noteFailure(sh *shard, err error) {
	s.hmu.Lock()
	sh.consecFails++
	sh.okStreak = 0
	sh.lastErr = err
	evict := sh.consecFails >= s.cfg.EvictAfter
	if evict {
		s.setShardState(sh, shardEvicted)
		s.healthyG.Set(s.healthy.Add(-1))
	} else if sh.state == shardHealthy {
		s.setShardState(sh, shardSuspect)
		s.suspects.Inc()
	}
	s.hmu.Unlock()

	if evict {
		s.evictions.Inc()
		// Buffered to Shards and a shard is in at most one place, so
		// this never blocks even after the prober has exited.
		s.probeq <- sh
	} else {
		s.pool <- sh
	}
}

// backoff returns the sleep before retry `attempt` (0-based):
// exponential from RetryBackoff, capped, with ±50% jitter so competing
// retries don't stampede the pool in lockstep.
func (s *Server) backoff(attempt int) time.Duration {
	d := s.cfg.RetryBackoff << uint(attempt)
	if max := 50 * time.Millisecond; d > max {
		d = max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// leaseRetry acquires a replacement shard for a retry, bounded by
// RetryLeaseWait: with every shard evicted there is nothing to wait
// for, and the batch fails 503 rather than stalling its clients.
func (s *Server) leaseRetry() *shard {
	t := time.NewTimer(s.cfg.RetryLeaseWait)
	defer t.Stop()
	select {
	case sh := <-s.pool:
		return sh
	case <-t.C:
		return nil
	}
}

// prober owns every evicted shard until it revives. It wakes every
// ProbeInterval and re-probes its flock; shards that pass a full
// known-answer check re-enter the pool.
func (s *Server) prober() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.ProbeInterval)
	defer ticker.Stop()
	var flock []*shard
	for {
		select {
		case <-s.quit:
			return
		case sh := <-s.probeq:
			flock = append(flock, sh)
		case <-ticker.C:
			keep := flock[:0]
			for _, sh := range flock {
				if !s.probeShard(sh) {
					keep = append(keep, sh)
				}
			}
			flock = keep
		}
	}
}

// probeShard runs one probation probe and revives the shard on success.
// Reports whether the shard left probation.
func (s *Server) probeShard(sh *shard) bool {
	s.probes.Inc()
	err := s.runProbe(sh)
	if err == nil {
		sh.ueSeen = false
		s.hmu.Lock()
		s.setShardState(sh, shardHealthy)
		sh.consecFails, sh.okStreak = 0, 0
		sh.lastErr = nil
		s.healthyG.Set(s.healthy.Add(1))
		s.hmu.Unlock()
		s.revivals.Inc()
		s.pool <- sh
		return true
	}
	s.hmu.Lock()
	sh.lastErr = err
	s.hmu.Unlock()
	s.recoverShard(sh)
	// An uncorrectable ECC fault names the poisoned row — but only
	// quarantine it once a second consecutive probe blames the same row.
	// A transient multi-bit upset names a random row exactly once and
	// costs nothing to ride out; a stuck cell names its row every probe,
	// and that persistence is what spends a quarantine slot.
	var ue *hbm.UncorrectableError
	if errors.As(err, &ue) {
		if sh.ueSeen && sh.ueRow == ue.Row {
			s.relocate(sh, ue)
			sh.ueSeen = false
		} else {
			sh.ueRow, sh.ueSeen = ue.Row, true
		}
	} else {
		sh.ueSeen = false
	}
	return false
}

// runProbe checks every resident model, GEMV and sequence alike: it
// resets every slot, steps the model's known-answer frame on all of them
// (one slot per channel, so every channel's copy of every weight matrix
// is exercised), compares the logits bit-for-bit with the host oracle,
// and resets the slots again, so no probe state outlives the probe.
func (s *Server) runProbe(sh *shard) error {
	if sh.inj != nil {
		if err := sh.inj.ProbeErr(); err != nil {
			return err
		}
	}
	for name, r := range sh.models {
		x, want, err := s.mods[name].knownAnswer(blas.GRFDepth(sh.rt))
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		xs := make([]fp16.Vector, r.Slots())
		for i := range xs {
			_ = r.ResetSlot(i)
			xs[i] = x
		}
		ys, _, err := r.StepSlots(sh.rt, xs)
		for i := range xs {
			_ = r.ResetSlot(i)
		}
		s.collectShardECC(sh)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		for ch, y := range ys {
			if !slices.Equal(y, want) {
				return fmt.Errorf("probe %s: output mismatch on shard %d channel %d", name, sh.id, ch)
			}
		}
	}
	return nil
}

// knownAnswer returns the model's probe frame and its host-oracle logits
// (the device's exact accumulation order at GRF depth grf). They are
// computed on the model's first probe and cached: a ds2-small oracle step
// costs milliseconds, which New does not pay for a probe that may never
// run. Only the prober calls it, so the cache needs no lock.
func (m *model) knownAnswer(grf int) (fp16.Vector, fp16.Vector, error) {
	if m.probeY == nil {
		rng := rand.New(rand.NewSource(m.plan.Cfg.Seed ^ 0x70726f6265)) // "probe"
		x := fp16.NewVector(m.plan.Cfg.Input)
		for i := range x {
			x[i] = fp16.FromFloat32(float32(rng.NormFloat64()))
		}
		ys, err := m.plan.HostOracle([]fp16.Vector{x}, grf)
		if err != nil {
			return nil, nil, err
		}
		m.probeX, m.probeY = x, ys[0]
	}
	return m.probeX, m.probeY, nil
}

// relocate recovers from a permanently poisoned row: unload the model
// resident on it, retire the row in the driver's allocator, and load the
// model again — first-fit lands it past the hole. The shard stays
// evicted; the next probe decides whether it is clean now.
func (s *Server) relocate(sh *shard, ue *hbm.UncorrectableError) {
	for name, r := range sh.models {
		if !r.OwnsRow(ue.Row) {
			continue
		}
		if err := r.Unload(sh.rt); err != nil {
			return
		}
		if err := sh.rt.Drv.QuarantinePIMRows(ue.Row, 1); err == nil {
			s.quarantinedG.Add(1)
		}
		r2, err := nn.Load(sh.rt, r.Plan)
		if err != nil {
			// Out of rows: the stale handle keeps probes failing and the
			// shard stays out of service, which is the honest outcome.
			return
		}
		sh.models[name] = r2
		return
	}
}

// recoverShard unwinds an aborted kernel on every channel of a shard
// (precharge all, exit PIM/AB modes) so the next launch starts from
// clean single-bank state. Best effort: a channel that cannot even
// recover keeps failing its probes and the shard stays out of service,
// which is the honest outcome. Only the lease holder may call it.
func (s *Server) recoverShard(sh *shard) {
	for ch := range sh.rt.Chans {
		_ = sh.rt.Recover(ch)
	}
}

// collectShardECC folds the shard's cumulative device ECC counters into
// the serving registry as deltas. Only the lease holder (worker or
// prober) may call it: device stats are unsynchronized.
func (s *Server) collectShardECC(sh *shard) {
	var corr, unc int64
	for _, c := range sh.rt.Chans {
		st := c.PCH().Stats()
		corr += st.ECCCorrected
		unc += st.ECCUncorrectable
	}
	s.eccCorrC.Add(corr - sh.eccCorr)
	s.eccUncorrC.Add(unc - sh.eccUncorr)
	sh.eccCorr, sh.eccUncorr = corr, unc
}

// ShardStates snapshots each shard's health (indexed by shard id), for
// /healthz and tests.
func (s *Server) ShardStates() []string {
	out := make([]string, len(s.shards))
	s.hmu.Lock()
	defer s.hmu.Unlock()
	for i, sh := range s.shards {
		out[i] = sh.state.String()
	}
	return out
}

// HealthyShards returns how many shards are currently not evicted.
func (s *Server) HealthyShards() int { return int(s.healthy.Load()) }
