package serve

import (
	"fmt"
	"net/http"
	"time"

	"pimsim/internal/blas"
	"pimsim/internal/fp16"
	"pimsim/internal/obs"
)

// batcher is a GEMV model's pipeline stage between admission and the
// shard pool. It blocks on the model's fair queue (WFQ across tenant
// lanes, EDF within a lane — see qos.go), then collects followers until
// the batch is full (maxBatch, itself clamped to the channel count — the
// PIM kernel carries one request per pseudo channel) or BatchWait
// elapses, whichever first. It then leases a shard — blocking here is
// what turns a busy pool into queue growth and, at QueueDepth, into 429s
// — and hands the batch to a worker goroutine so the next batch can form
// while the kernel runs. Exits when the queue is closed AND drained,
// which is how Close guarantees zero dropped accepted requests.
//
// Concurrency contract: this goroutine is the queue's only consumer; the
// fairQueue notify protocol (qos.go) depends on that.
func (s *Server) batcher(m *model) {
	defer s.wg.Done()
	// One straggler timer serves every batch this goroutine forms;
	// allocating a fresh time.Timer per flush cycle churned the heap and
	// leaned on GC to collect still-armed timers.
	var ft flushTimer
	for {
		first, ok := s.take(m, true)
		if !ok {
			return
		}
		batch := s.collect(m, first, &ft)
		sh := s.lease()
		if sh == nil {
			s.failBatch(batch, http.StatusServiceUnavailable, errDrainNoShards)
			continue
		}
		s.wg.Add(1)
		go s.runBatch(m, sh, batch)
	}
}

// lease blocks until a shard is free. During a drain an empty pool may
// never refill (its shards are evicted and the prober has stopped), so
// after Close the wait is bounded and nil means "fail the batch 503" —
// the zero-drop contract still holds, just with an honest error.
func (s *Server) lease() *shard {
	select {
	case sh := <-s.pool:
		return sh
	case <-s.quit:
	}
	t := time.NewTimer(s.cfg.RetryLeaseWait)
	defer t.Stop()
	select {
	case sh := <-s.pool:
		return sh
	case <-t.C:
		return nil
	}
}

// tryLease grabs a shard only if one is idle right now — the hedge path
// must never steal capacity a queued batch is already waiting for.
func (s *Server) tryLease() *shard {
	select {
	case sh := <-s.pool:
		return sh
	default:
		return nil
	}
}

var errDrainNoShards = errTxt("draining with no shard available")

type errTxt string

func (e errTxt) Error() string { return string(e) }

// failBatch answers every request in the batch with one terminal error.
func (s *Server) failBatch(batch []*request, status int, err error) {
	for _, r := range batch {
		r.resp <- response{status: status, err: err}
	}
}

// batchTimer is the minimal timer surface the batcher needs. The
// indirection (Server.newTimer) lets tests drive flushes with a
// deterministic clock instead of sleeping through real BatchWait
// windows.
type batchTimer interface {
	C() <-chan time.Time
	Reset(d time.Duration)
	Stop() bool
}

type realTimer struct{ t *time.Timer }

func newRealTimer(d time.Duration) batchTimer { return realTimer{time.NewTimer(d)} }

func (r realTimer) C() <-chan time.Time   { return r.t.C }
func (r realTimer) Reset(d time.Duration) { r.t.Reset(d) }
func (r realTimer) Stop() bool            { return r.t.Stop() }

// flushTimer reuses one batchTimer across batches with the Stop-and-drain
// discipline timer reuse requires: a Reset is only safe once the previous
// arming is stopped and any tick it parked in the channel is consumed.
// Without the drain, a tick that fired between the last queue receive and
// disarm would survive into the next batch and flush it instantly —
// collapsing every subsequent batch to size one under light load.
type flushTimer struct {
	timer batchTimer
	fired bool // the current arming's tick was received from C
}

func (f *flushTimer) arm(newTimer func(time.Duration) batchTimer, d time.Duration) <-chan time.Time {
	if f.timer == nil {
		f.timer = newTimer(d)
	} else {
		f.timer.Reset(d)
	}
	f.fired = false
	return f.timer.C()
}

// expired records that the current arming's tick was consumed, so disarm
// knows there is nothing left to drain.
func (f *flushTimer) expired() { f.fired = true }

// disarm stops the timer after a batch completes. Stop reporting false
// with no tick consumed means the tick is parked in the channel (old
// asynchronous-timer semantics) — drain it non-blockingly, which is also
// correct under Go 1.23+ synchronous timers where Stop discards the tick.
func (f *flushTimer) disarm() {
	if f.timer == nil {
		return
	}
	if !f.timer.Stop() && !f.fired {
		select {
		case <-f.timer.C():
		default:
		}
	}
}

// collect gathers up to maxBatch-1 followers behind first, waiting at
// most the model's straggler deadline (ModelSpec.BatchWait, falling back
// to Config.BatchWait). Followers pop in WFQ/EDF order, so the batch is
// deadline-sorted across tenants. A closed queue flushes immediately.
func (s *Server) collect(m *model, first *request, ft *flushTimer) []*request {
	batch := []*request{first}
	if m.maxBatch <= 1 {
		return batch
	}
	tick := ft.arm(s.newTimer, m.wait)
	defer ft.disarm()
	for len(batch) < m.maxBatch {
		if r, ok := s.take(m, false); ok {
			batch = append(batch, r)
			continue
		}
		if m.q.drained() {
			return batch
		}
		select {
		case <-m.q.notify:
			// State changed: new work, or the queue closed. Re-check.
		case <-tick:
			ft.expired()
			return batch
		}
	}
	return batch
}

// runBatch is the worker: it owns a leased shard for one kernel launch,
// and on a retryable device fault (uncorrectable ECC error, shard
// outage) re-dispatches the surviving requests to another shard — up to
// MaxRetries times with exponential, jittered backoff. Requests whose
// context expired are answered 504 (reason deadline-expired) and never
// touch a device; every other request gets exactly one terminal response
// here. With HedgeDelay set, a straggling attempt is duplicated onto an
// idle shard and the first result wins (see dispatch).
func (s *Server) runBatch(m *model, sh *shard, batch []*request) {
	defer s.wg.Done()

	live := batch
	for attempt := 0; ; attempt++ {
		// Re-filter per attempt: a deadline can expire during backoff.
		now := time.Now()
		kept := live[:0]
		for _, r := range live {
			if r.ctx.Err() != nil {
				s.expire(r)
				continue
			}
			kept = append(kept, r)
		}
		live = kept
		if len(live) == 0 {
			s.pool <- sh
			return
		}

		primary := sh.id
		ys, ks, winner, err := s.dispatch(m, sh, live, attempt)
		if err == nil {
			kernelNs := winner.rt.Cfg.Timing.CyclesToNs(ks.Cycles)
			s.pool <- winner
			s.reply(winner.id, live, ys, ks, kernelNs, now)
			return
		}

		// dispatch already ran the failed shard(s) through the health
		// machine; this loop only decides whether the batch retries.
		canRetry := retryable(err) && attempt < s.cfg.MaxRetries
		if !canRetry {
			s.failBatch(live, statusFor(err), err)
			return
		}
		s.retries.Inc(0)
		s.redispatched.Add(0, int64(len(live)))
		if s.tracer != nil {
			for _, r := range live {
				s.tracer.Event(r.id, "redispatch",
					fmt.Sprintf("attempt=%d shard=%d err=%v", attempt, primary, err))
			}
		}
		time.Sleep(s.backoff(attempt))
		if sh = s.leaseRetry(); sh == nil {
			s.failBatch(live, http.StatusServiceUnavailable, err)
			return
		}
	}
}

// dispatchResult is one attempt's outcome inside dispatch.
type dispatchResult struct {
	ys  []fp16.Vector
	ks  blas.KernelStats
	err error
	sh  *shard
}

// dispatch runs one batch attempt, hedging it onto an idle shard when
// the primary straggles past Config.HedgeDelay. The first success wins
// (the simulated kernels are deterministic, so primary and hedge results
// are bit-identical — hedging can only cut tail latency, never change
// answers); a still-running loser is reaped in the background. Contract:
// on success the returned shard is the winner and still ours to return
// to the pool; on error every shard this call leased has already been
// handed to the health machine (recoverShard + noteFailure).
func (s *Server) dispatch(m *model, sh *shard, live []*request, attempt int) ([]fp16.Vector, blas.KernelStats, *shard, error) {
	// The hedge delay is per-model and live: seeded from Config.HedgeDelay
	// and retargeted each evaluation by the SLO engine's controller when
	// one is armed (sloTick), so a model whose windowed p99 degrades hedges
	// sooner without a restart.
	hedgeDelay := time.Duration(m.hedgeNs.Load())
	if hedgeDelay <= 0 {
		ys, ks, err := s.attemptTraced(m, sh, live, attempt, true)
		if err != nil {
			s.recoverShard(sh)
			s.noteFailure(sh, err)
			return nil, blas.KernelStats{}, nil, err
		}
		return ys, ks, sh, nil
	}

	results := make(chan dispatchResult, 2)
	run := func(sh *shard, spans bool) {
		ys, ks, err := s.attemptTraced(m, sh, live, attempt, spans)
		results <- dispatchResult{ys: ys, ks: ks, err: err, sh: sh}
	}
	launched := 1
	go run(sh, true)

	ht := s.newHedgeTimer(hedgeDelay)
	defer ht.Stop()
	hedgeTick := ht.C()

	var firstFail *dispatchResult
	for launched > 0 {
		select {
		case r := <-results:
			launched--
			if r.err == nil {
				if r.sh != sh {
					s.hedgeWins.Inc(0)
				}
				if launched > 0 {
					s.reapLoser(results)
				}
				if firstFail != nil {
					// The other attempt already failed; its shard goes
					// through the health machine like any failed batch.
					s.recoverShard(firstFail.sh)
					s.noteFailure(firstFail.sh, firstFail.err)
				}
				return r.ys, r.ks, r.sh, nil
			}
			if firstFail == nil {
				cp := r
				firstFail = &cp
			} else {
				s.recoverShard(r.sh)
				s.noteFailure(r.sh, r.err)
			}
		case <-hedgeTick:
			hedgeTick = nil // one hedge per attempt
			if firstFail != nil {
				continue // primary already failed; a duplicate won't help
			}
			if spare := s.tryLease(); spare != nil {
				s.hedges.Inc(0)
				launched++
				go run(spare, false)
			}
		}
	}
	// Every launched attempt failed; account the first failure here and
	// report it (later failures were accounted as they arrived).
	s.recoverShard(firstFail.sh)
	s.noteFailure(firstFail.sh, firstFail.err)
	return nil, blas.KernelStats{}, nil, firstFail.err
}

// reapLoser waits (in the background, tracked by the drain WaitGroup)
// for the losing hedge attempt and routes its shard home: to the pool on
// success, through the health machine on failure.
func (s *Server) reapLoser(results chan dispatchResult) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		r := <-results
		if r.err == nil {
			s.pool <- r.sh
			return
		}
		s.recoverShard(r.sh)
		s.noteFailure(r.sh, r.err)
	}()
}

// attemptTraced wraps attempt with the per-request exec spans. Hedge
// attempts pass spans=false: only the primary records spans, so a
// request never carries two concurrent exec children.
func (s *Server) attemptTraced(m *model, sh *shard, live []*request, attempt int, spans bool) ([]fp16.Vector, blas.KernelStats, error) {
	var execs []obs.SpanHandle
	traced := spans && s.tracer != nil
	if traced {
		execs = make([]obs.SpanHandle, len(live))
		for i, r := range live {
			execs[i] = r.root.Child("exec").WithShard(sh.id)
		}
		sh.rt.BeginPhaseObs()
	}
	ys, ks, err := s.attempt(m, sh, live)
	if traced {
		pb := sh.rt.TakePhaseObs()
		attrs := fmt.Sprintf("attempt=%d batch=%d %s", attempt, len(live), pb.Summary())
		for _, h := range execs {
			h.EndWith(ks.Cycles, attrs, err)
		}
	}
	return ys, ks, err
}

// attempt runs one kernel launch for the batch on one shard.
func (s *Server) attempt(m *model, sh *shard, live []*request) ([]fp16.Vector, blas.KernelStats, error) {
	xs := make([]fp16.Vector, len(live))
	for i, r := range live {
		xs[i] = r.xs[0]
	}
	return s.launch(m, sh, xs)
}

// launch is the one call a lease holder makes into its shard's device:
// one StepSlots of the model's resident plan, for a GEMV batch (a dense
// slot map through a zero-layer plan, one request per channel) and a
// sequence timestep alike. It arms the fault injector, runs the step,
// folds the shard's ECC counter movement into the serving metrics either
// way, and reports a clean launch to the health machine. A failed launch
// is reported by the caller (recoverShard + noteFailure) once it has
// taken what it needs from the shard: noteFailure hands the shard away.
func (s *Server) launch(m *model, sh *shard, xs []fp16.Vector) ([]fp16.Vector, blas.KernelStats, error) {
	if sh.inj != nil {
		if err := sh.inj.BatchErr(); err != nil {
			return nil, blas.KernelStats{}, err
		}
	}
	ys, ks, err := sh.models[m.name].StepSlots(sh.rt, xs)
	s.collectShardECC(sh)
	if err == nil {
		s.noteSuccess(m, sh, ks.Cycles)
	}
	return ys, ks, err
}

// reply delivers the batch's success responses and accounts metrics.
func (s *Server) reply(shardID int, live []*request, ys []fp16.Vector, ks blas.KernelStats, kernelNs float64, now time.Time) {
	s.batches.Inc(0)
	s.deviceCycles.Add(0, ks.Cycles)
	s.served.Add(0, int64(len(live)))
	s.batchSize.Observe(0, int64(len(live)))
	s.winBatch.Observe(int64(len(live)))
	s.kernelCyc.Observe(0, ks.Cycles)
	for i, r := range live {
		waitUs := now.Sub(r.enq).Microseconds()
		s.queueWait.Observe(0, waitUs)
		r.ten.served.Inc(0)
		r.ten.queueWait.Observe(0, waitUs)
		r.resp <- response{
			ys:      ys[i : i+1],
			status:  http.StatusOK,
			batch:   len(live),
			shard:   shardID,
			cycles:  ks.Cycles,
			ns:      kernelNs,
			queueUs: waitUs,
		}
	}
}
