package serve

import (
	"fmt"
	"net/http"
	"time"

	"pimsim/internal/fp16"
	"pimsim/internal/nn"
)

// Continuous batching for sequence models.
//
// The flush-on-size batcher (batcher.go) is the wrong shape for
// recurrent models: a sequence is not one kernel launch but T dependent
// timesteps, and forming fixed batches would force every member to enter
// and leave together — a long sequence would hold short ones hostage
// (head-of-line blocking) and a short one would strand its channel idle
// for the rest of the batch. The stepper instead runs a *step loop*: it
// leases a shard while at least one sequence is in flight, assigns each
// sequence a slot (= pseudo channel; its recurrent state lives in that
// channel's nn.Resident), and between timesteps admits newly arrived
// sequences into free slots and retires finished ones (frames exhausted
// or EOS argmax). Device occupancy tracks offered load step by step
// instead of batch boundary by batch boundary.
//
// Fault handling preserves the serving contract (no accepted request
// lost, no wrong data): StepSlots stages its state commit, so a step
// that dies mid-layer leaves every slot's recurrence pristine. On a
// retryable fault the stepper exports all live slot states, hands the
// shard to the health machine, leases a replacement, imports the states
// into the same slot indices, and re-executes the step — a mid-sequence
// migration the client only sees as latency (and a migrations count in
// the response).

// seqSlot is one occupied slot of the running step loop.
type seqSlot struct {
	req        *request
	admitted   time.Time // when the sequence entered a slot (queue wait ends)
	pos        int       // frames consumed
	out        []fp16.Vector
	cycles     int64
	migrations int
}

// stepper is the per-sequence-model pipeline stage: each blocking
// receive starts one continuous-batching episode (runSeq), which owns a
// shard until every admitted sequence has retired. Exits when the queue
// is closed and drained — the zero-drop contract, same as batcher. Like
// the batcher, the stepper is its fair queue's only consumer.
func (s *Server) stepper(m *model) {
	defer s.wg.Done()
	for {
		first, ok := s.take(m, true)
		if !ok {
			return
		}
		s.runSeq(m, first)
	}
}

// runSeq drives the step loop for one episode.
func (s *Server) runSeq(m *model, first *request) {
	sh := s.lease()
	if sh == nil {
		first.resp <- response{status: http.StatusServiceUnavailable, err: errDrainNoShards}
		return
	}
	r := sh.models[m.name]
	slots := make([]*seqSlot, r.Slots())
	active := 0

	reply := func(i int, resp response) {
		sl := slots[i]
		resp.ys = sl.out
		resp.shard = sh.id
		resp.cycles = sl.cycles
		resp.ns = sh.rt.Cfg.Timing.CyclesToNs(sl.cycles)
		resp.migrations = sl.migrations
		resp.queueUs = sl.admitted.Sub(sl.req.enq).Microseconds()
		sl.req.resp <- resp
		slots[i] = nil
		active--
	}

	admitOne := func(req *request) {
		if req.ctx.Err() != nil {
			// Shed before the sequence ever touches a slot: the deadline
			// expired while queued.
			s.expire(req)
			return
		}
		for i := range slots {
			if slots[i] != nil {
				continue
			}
			_ = r.ResetSlot(i)
			slots[i] = &seqSlot{req: req, admitted: time.Now()}
			active++
			waitUs := time.Since(req.enq).Microseconds()
			s.queueWait.Observe(0, waitUs)
			req.ten.queueWait.Observe(0, waitUs)
			return
		}
	}

	pending := first
	stepRetries := 0
	for {
		// Admission window: between timesteps, fill free slots (bounded by
		// MaxBatch) from the fair queue without blocking the running loop.
		// Pops arrive in WFQ/EDF order, so slots go to the tenant whose
		// turn it is and, within a tenant, to the tightest deadline.
		for active < m.maxBatch {
			req := pending
			pending = nil
			if req == nil {
				var ok bool
				if req, ok = s.take(m, false); !ok {
					break // empty (or closed and drained): run what's here
				}
			}
			admitOne(req)
		}
		// Per-step deadline: a sequence whose context expired mid-flight is
		// answered 504 now; its remaining steps never touch the device.
		for i, sl := range slots {
			if sl != nil && sl.req.ctx.Err() != nil {
				reply(i, response{status: http.StatusGatewayTimeout, err: sl.req.ctx.Err()})
			}
		}
		if active == 0 {
			break
		}

		xs := make([]fp16.Vector, len(slots))
		for i, sl := range slots {
			if sl != nil {
				xs[i] = sl.req.xs[sl.pos]
			}
		}
		logits, ks, err := s.launch(m, sh, xs)
		if err != nil {
			sh, r = s.migrateSeq(m, sh, slots, &active, err, stepRetries)
			if sh == nil {
				return // every slot was answered by migrateSeq
			}
			stepRetries++
			continue // re-execute the step: the staged commit kept state pristine
		}
		stepRetries = 0

		s.seqSteps.Inc(0)
		s.deviceCycles.Add(0, ks.Cycles)
		s.seqStepCyc.Observe(0, ks.Cycles)
		s.seqOccupancy.Observe(0, int64(active))
		share := ks.Cycles / int64(active)
		for i, sl := range slots {
			if sl == nil {
				continue
			}
			sl.out = append(sl.out, logits[i])
			sl.cycles += share
			sl.pos++
			eosHit := sl.req.eos >= 0 && nn.Argmax(logits[i]) == sl.req.eos
			if eosHit || sl.pos == len(sl.req.xs) {
				eosAt := -1
				if eosHit {
					eosAt = sl.pos - 1
					s.seqEOS.Inc(0)
				}
				s.seqCompleted.Inc(0)
				s.served.Inc(0)
				sl.req.ten.served.Inc(0)
				reply(i, response{status: http.StatusOK, eosAt: eosAt})
			}
		}
	}
	s.pool <- sh
}

// migrateSeq handles a failed step: dispose of the faulted shard via the
// health machine, and — if the error is retryable and the retry budget
// holds — move every live sequence's recurrent state to a replacement
// shard so the step can re-execute there. Returns the new shard and
// resident, or (nil, nil) after answering every live slot with a
// terminal error. Either way the old shard has been handed away.
func (s *Server) migrateSeq(m *model, sh *shard, slots []*seqSlot, active *int, stepErr error, attempt int) (*shard, *nn.Resident) {
	fail := func(status int, err error) {
		for i, sl := range slots {
			if sl == nil {
				continue
			}
			sl.req.resp <- response{status: status, err: err,
				shard: sh.id, cycles: sl.cycles, migrations: sl.migrations}
			slots[i] = nil
			*active -= 1
		}
	}
	canRetry := retryable(stepErr) && attempt < s.cfg.MaxRetries
	var states map[int]*nn.SlotState
	if canRetry {
		// Export before the shard leaves our hands: after noteFailure the
		// prober may own it.
		r := sh.models[m.name]
		states = make(map[int]*nn.SlotState, *active)
		for i, sl := range slots {
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
		fail(statusFor(stepErr), stepErr)
		return nil, nil
	}
	s.retries.Inc(0)
	if s.tracer != nil {
		for _, sl := range slots {
			if sl != nil {
				s.tracer.Event(sl.req.id, "migrate",
					fmt.Sprintf("attempt=%d shard=%d err=%v", attempt, failedShard, stepErr))
			}
		}
	}
	time.Sleep(s.backoff(attempt))
	next := s.leaseRetry()
	if next == nil {
		fail(http.StatusServiceUnavailable, stepErr)
		return nil, nil
	}
	r := next.models[m.name]
	migrated := int64(0)
	for i, sl := range slots {
		if sl == nil {
			continue
		}
		_ = r.ResetSlot(i)
		if err := r.ImportState(i, states[i]); err != nil {
			// Cannot happen for same-plan residents; fail honestly if it does.
			s.recoverShard(next)
			s.noteFailure(next, err)
			fail(http.StatusInternalServerError, err)
			return nil, nil
		}
		sl.migrations++
		migrated++
	}
	s.seqMigrations.Add(0, migrated)
	return next, r
}
