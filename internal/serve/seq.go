package serve

import (
	"fmt"
	"net/http"
	"time"

	"pimsim/internal/blas"
	"pimsim/internal/fp16"
	"pimsim/internal/nn"
	"pimsim/internal/obs"
)

// The scheduler: one step loop for every model.
//
// A request is a sequence of frames — a GEMV input is a sequence of one
// frame through a plan with no recurrent state — and every model's one
// queue consumer runs the same continuous-batching loop. Each request
// gets a slot (= pseudo channel; a sequence's recurrent state lives in
// that channel's nn.Resident), and between timesteps the loop admits new
// requests into free slots and retires finished ones (frames exhausted or
// EOS argmax), so device occupancy tracks offered load step by step and a
// long sequence never holds a short one hostage. Three rules serve GEMV
// traffic, decided from values the loop already has, never from the
// model's kind: fill, then lease, waiting up to the model's wait for
// company (runSeq); a step no slot outlives runs on a worker so steps
// pipeline across shards (runSeq); hedging only for a plan with no
// recurrent state (dispatch).
//
// Fault handling preserves the serving contract (no accepted request
// lost, no wrong data): StepSlots stages its state commit, so a step that
// dies mid-layer leaves every slot's recurrence pristine. On a retryable
// fault migrateSeq exports every live slot's state, hands the shard to
// the health machine, leases a replacement, imports the states into the
// same slot indices, and the step re-executes — a migration the client
// sees only as latency (and, for a sequence, a migrations count).

// seqSlot is one occupied slot of a step loop.
type seqSlot struct {
	req        *request
	started    time.Time // first launch of the request's first step (queue wait ends)
	pos        int       // frames consumed
	out        []fp16.Vector
	cycles     int64 // the request's share of every step it rode
	migrations int
}

// slotTable is one step loop's slots, indexed like the resident's.
type slotTable struct {
	slots  []*seqSlot
	active int
}

func (t *slotTable) admit(req *request) {
	for i, sl := range t.slots {
		if sl == nil {
			t.slots[i] = &seqSlot{req: req}
			t.active++
			return
		}
	}
}

// lastStep reports whether no live slot continues past the next step.
func (t *slotTable) lastStep() bool {
	for _, sl := range t.slots {
		if sl != nil && sl.pos+1 < len(sl.req.xs) {
			return false
		}
	}
	return true
}

// answer delivers slot i's terminal response, completed from the slot's
// progress, and frees the slot.
func (t *slotTable) answer(i, shardID int, resp response) {
	sl := t.slots[i]
	resp.ys, resp.shard, resp.cycles, resp.migrations = sl.out, shardID, sl.cycles, sl.migrations
	if !sl.started.IsZero() {
		resp.queueUs = sl.started.Sub(sl.req.enq).Microseconds()
	}
	sl.req.resp <- resp
	t.slots[i] = nil
	t.active--
}

// failAll answers every live slot with one terminal error.
func (t *slotTable) failAll(shardID, status int, err error) {
	for i, sl := range t.slots {
		if sl != nil {
			t.answer(i, shardID, response{status: status, err: err})
		}
	}
}

// consumer is a model's pipeline stage between admission and the shard
// pool, and its fair queue's only consumer (the notify protocol in qos.go
// depends on that): each blocking receive starts one step loop. Exits when
// the queue is closed and drained, which is how Close guarantees zero
// dropped accepted requests.
func (s *Server) consumer(m *model) {
	defer s.wg.Done()
	// One straggler timer serves every window this goroutine opens;
	// allocating a fresh time.Timer per window churned the heap and leaned
	// on GC to collect still-armed timers.
	var ft flushTimer
	for {
		first, ok := s.take(m, true)
		if !ok {
			return
		}
		s.runSeq(m, first, &ft)
	}
}

// runSeq drives one step loop from its first request until no slot is
// live, leasing a shard only once the first step is formed — blocking at
// the lease is what turns a busy pool into queue growth and, at
// QueueDepth, into 429s.
func (s *Server) runSeq(m *model, first *request, ft *flushTimer) {
	t := &slotTable{slots: make([]*seqSlot, s.cfg.Channels)}
	var sh *shard
	pending := first
	for {
		// Admission window: fill free slots (bounded by MaxBatch) in WFQ/EDF
		// order, so slots go to the tenant whose turn it is and, within a
		// tenant, to the tightest deadline. With a wait set, the window the
		// step's first take opens blocks until the step is full or the
		// wait expires; a closed queue flushes at once.
		var tick <-chan time.Time
		for t.active < m.maxBatch {
			req, ok := pending, pending != nil
			pending = nil
			if !ok {
				req, ok = s.take(m, false)
			}
			if ok {
				t.admit(req)
				if tick == nil && m.wait > 0 && t.active < m.maxBatch {
					tick = ft.arm(s.newTimer, m.wait)
				}
				continue
			}
			if tick == nil || m.q.drained() {
				break
			}
			select {
			case <-m.q.notify:
				continue // new work, or the queue closed: re-check
			case <-tick:
				ft.expired()
			}
			break
		}
		if tick != nil {
			ft.disarm()
		}
		if t.active == 0 {
			s.pool <- sh // only mid-loop: the first window holds first
			return
		}
		if sh == nil {
			if sh = s.lease(); sh == nil {
				t.failAll(0, http.StatusServiceUnavailable, errDrainNoShards)
				return
			}
		}
		if t.lastStep() {
			// The consumer forms the next step on a fresh lease meanwhile.
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				if sh := s.step(m, sh, t, true); sh != nil {
					s.pool <- sh
				}
			}()
			return
		}
		if sh = s.step(m, sh, t, false); sh == nil {
			return // every slot was answered by migrateSeq
		}
	}
}

// step runs one timestep for every live slot on sh and answers the slots
// it finishes. A request whose deadline passed is answered first and
// never touches the device: 504 with a deadline-expired shed before its
// first step, a plain 504 mid-flight. A failed launch goes through
// migrateSeq and re-executes, up to MaxRetries. Returns the shard that
// holds the live slots' state, or nil once the shard has been handed
// away: by migrateSeq after answering every slot, or, when last is set
// (no slot continues past this step), back to the pool after a launch —
// before the replies go out, so the next step can lease it meanwhile.
func (s *Server) step(m *model, sh *shard, t *slotTable, last bool) *shard {
	for attempt := 0; ; attempt++ {
		now := time.Now()
		for i, sl := range t.slots {
			switch {
			case sl == nil || sl.req.ctx.Err() == nil:
			case sl.pos == 0:
				s.expire(sl.req)
				t.slots[i] = nil
				t.active--
			default:
				t.answer(i, sh.id, response{status: http.StatusGatewayTimeout, err: sl.req.ctx.Err()})
			}
		}
		if t.active == 0 {
			return sh
		}
		r := sh.models[m.name]
		xs := make([]fp16.Vector, len(t.slots))
		// live is never mutated after dispatch: a hedge loser's exec
		// spans may still be reading it after the step has answered.
		live := make([]*request, 0, t.active)
		for i, sl := range t.slots {
			if sl == nil {
				continue
			}
			if sl.pos == 0 {
				_ = r.ResetSlot(i)
				if sl.started.IsZero() {
					sl.started = now
					waitUs := now.Sub(sl.req.enq).Microseconds()
					s.queueWait.Observe(waitUs)
					sl.req.ten.queueWait.Observe(waitUs)
				}
			}
			xs[i] = sl.req.xs[sl.pos]
			live = append(live, sl.req)
		}
		ys, ks, got, err := s.dispatch(m, sh, live, xs, attempt)
		if err != nil {
			if sh = s.migrateSeq(m, got, t, err, attempt); sh == nil {
				return nil
			}
			continue // the staged commit kept every slot's state pristine
		}
		sh = got
		id := sh.id
		if last {
			s.pool <- sh
			sh = nil
		}

		st, n := m.series, t.active
		st.steps.Inc()
		st.slots.Observe(int64(n))
		st.cycles.Observe(ks.Cycles)
		s.winBatch.Observe(int64(n))
		s.deviceCycles.Add(ks.Cycles)
		share := ks.Cycles / int64(n)
		for i, sl := range t.slots {
			if sl == nil {
				continue
			}
			sl.out = append(sl.out, ys[i])
			sl.cycles += share
			sl.pos++
			eosHit := sl.req.eos >= 0 && nn.Argmax(ys[i]) == sl.req.eos
			if !eosHit && sl.pos < len(sl.req.xs) {
				continue
			}
			eosAt := -1
			if eosHit {
				eosAt = sl.pos - 1
				s.seqEOS.Inc()
			}
			if st.done != nil {
				st.done.Inc()
			}
			s.served.Inc()
			sl.req.ten.served.Inc()
			t.answer(i, id, response{status: http.StatusOK, eosAt: eosAt, batch: n, launch: ks.Cycles})
		}
		return sh
	}
}

// migrateSeq handles a failed step: dispose of the faulted shard via the
// health machine, and — if the error is retryable and the retry budget
// holds — move every live slot's state to a replacement shard so the step
// can re-execute there (a zero-layer plan's state is empty, so a GEMV
// step simply re-runs). Returns the new shard, or nil after answering
// every live slot with a terminal error. Either way the old shard has
// been handed away.
func (s *Server) migrateSeq(m *model, sh *shard, t *slotTable, stepErr error, attempt int) *shard {
	canRetry := retryable(stepErr) && attempt < s.cfg.MaxRetries
	var states map[int]*nn.SlotState
	if canRetry {
		// Export before the shard leaves our hands: after noteFailure the
		// prober may own it.
		r := sh.models[m.name]
		states = make(map[int]*nn.SlotState, t.active)
		for i, sl := range t.slots {
			if sl == nil {
				continue
			}
			st, err := r.ExportState(i)
			if err != nil {
				canRetry = false
				break
			}
			states[i] = st
		}
	}
	failedShard := sh.id
	s.recoverShard(sh)
	s.noteFailure(sh, stepErr)
	if !canRetry {
		t.failAll(failedShard, statusFor(stepErr), stepErr)
		return nil
	}
	s.retries.Inc()
	if s.tracer != nil {
		for _, sl := range t.slots {
			if sl != nil {
				s.tracer.Event(sl.req.id, m.series.retry,
					fmt.Sprintf("attempt=%d shard=%d err=%v", attempt, failedShard, stepErr))
			}
		}
	}
	time.Sleep(s.backoff(attempt))
	next := s.leaseRetry()
	if next == nil {
		t.failAll(failedShard, http.StatusServiceUnavailable, stepErr)
		return nil
	}
	r := next.models[m.name]
	for i, sl := range t.slots {
		if sl == nil {
			continue
		}
		_ = r.ResetSlot(i)
		if err := r.ImportState(i, states[i]); err != nil {
			// Cannot happen for same-plan residents; fail honestly if it does.
			s.recoverShard(next)
			s.noteFailure(next, err)
			t.failAll(failedShard, http.StatusInternalServerError, err)
			return nil
		}
		sl.migrations++
	}
	m.series.moved.Add(int64(t.active))
	return next
}

// lease blocks until a shard is free. During a drain an empty pool may
// never refill (its shards are evicted and the prober has stopped), so
// after Close the wait is bounded and nil means "fail the step 503" —
// the zero-drop contract still holds, just with an honest error.
func (s *Server) lease() *shard {
	select {
	case sh := <-s.pool:
		return sh
	case <-s.quit:
	}
	return s.leaseRetry()
}

// tryLease grabs a shard only if one is idle right now — the hedge path
// must never steal capacity a queued step is already waiting for.
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

// batchTimer is the minimal timer surface the admission window and the
// hedge need. The indirection (Server.newTimer, Server.newHedgeTimer)
// lets tests drive flushes with a deterministic clock instead of
// sleeping through real BatchWait windows.
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

// flushTimer reuses one batchTimer across windows with the Stop-and-drain
// discipline timer reuse requires: a Reset is only safe once the previous
// arming is stopped and any tick it parked in the channel is consumed.
// Without the drain, a tick that fired between the last queue receive and
// disarm would survive into the next window and flush it instantly —
// collapsing every subsequent step to size one under light load.
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

// disarm stops the timer after a window closes. Stop reporting false
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

// dispatchResult is one attempt's outcome inside dispatch.
type dispatchResult struct {
	ys  []fp16.Vector
	ks  blas.KernelStats
	err error
	sh  *shard
}

// dispatch runs one step attempt. For a plan with no recurrent state it
// hedges the attempt onto an idle shard when the primary straggles past
// the model's hedge delay; the first success wins (the simulated kernels
// are deterministic, so primary and hedge results are bit-identical —
// hedging can only cut tail latency, never change answers) and a
// still-running loser is reaped in the background. A stateful step is
// never hedged: the spare holds none of the slots' state. Contract: the
// returned shard is still ours — the winner on success, on error a failed
// shard for migrateSeq to dispose of; every other shard this call leased
// has been returned to the pool or handed to the health machine.
func (s *Server) dispatch(m *model, sh *shard, live []*request, xs []fp16.Vector, attempt int) ([]fp16.Vector, blas.KernelStats, *shard, error) {
	// The hedge delay is per-model and live: seeded from Config.HedgeDelay
	// and retargeted each evaluation by the SLO engine's controller when
	// one is armed (sloTick), so a model whose windowed p99 degrades hedges
	// sooner without a restart.
	hedgeDelay := time.Duration(m.hedgeNs.Load())
	if hedgeDelay <= 0 || m.plan.Layers() > 0 {
		ys, ks, err := s.attemptTraced(m, sh, live, xs, attempt, true)
		return ys, ks, sh, err
	}

	results := make(chan dispatchResult, 2)
	run := func(sh *shard, spans bool) {
		ys, ks, err := s.attemptTraced(m, sh, live, xs, attempt, spans)
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
					s.hedgeWins.Inc()
				}
				if launched > 0 {
					s.reapLoser(results)
				}
				if firstFail != nil {
					// The other attempt already failed; its shard goes
					// through the health machine like any failed step.
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
				s.hedges.Inc()
				launched++
				go run(spare, false)
			}
		}
	}
	// Every launched attempt failed: the first failure goes back to the
	// caller (later failures were disposed of as they arrived).
	return nil, blas.KernelStats{}, firstFail.sh, firstFail.err
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

// attemptTraced wraps launch with one exec span per live request. Hedge
// attempts pass spans=false: only the primary records spans, so a
// request never carries two concurrent exec children.
func (s *Server) attemptTraced(m *model, sh *shard, live []*request, xs []fp16.Vector, attempt int, spans bool) ([]fp16.Vector, blas.KernelStats, error) {
	if !spans || s.tracer == nil {
		return s.launch(m, sh, xs)
	}
	execs := make([]obs.SpanHandle, len(live))
	for i, r := range live {
		execs[i] = r.root.Child("exec").WithShard(sh.id)
	}
	sh.rt.BeginPhaseObs()
	ys, ks, err := s.launch(m, sh, xs)
	pb := sh.rt.TakePhaseObs()
	attrs := fmt.Sprintf("attempt=%d batch=%d %s", attempt, len(live), pb.Summary())
	for _, h := range execs {
		h.EndWith(ks.Cycles, attrs, err)
	}
	return ys, ks, err
}

// launch is the one call a lease holder makes into its shard's device:
// one StepSlots of the model's resident plan over the slot-indexed inputs
// (nil = idle slot). It arms the fault injector, runs the step, folds the
// shard's ECC counter movement into the serving metrics either way, and
// reports a clean launch to the health machine. A failed launch is
// reported by migrateSeq (recoverShard + noteFailure) once it has taken
// what it needs from the shard: noteFailure hands the shard away.
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
