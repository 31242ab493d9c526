package runtime

import (
	"fmt"

	"pimsim/internal/hbm"
	"pimsim/internal/isa"
	"pimsim/internal/metrics"
	"pimsim/internal/obs"
)

// KernelPhase classifies what a kernel's command stream is spent on. The
// runtime accounts every phase twice: into the metrics registry (process
// lifetime totals) and, when armed via BeginPhaseObs, into a per-kernel
// aggregate that tracing attaches to the request's exec span.
type KernelPhase int

const (
	PhaseMode    KernelPhase = iota // ABMR/SBMR handshakes, PIM_OP_MODE writes
	PhaseCRF                        // microkernel programming
	PhaseSRF                        // scalar register programming
	PhaseGRF                        // accumulator zeroing
	PhaseTrigger                    // PIM-triggering column streams
	NumPhases
)

func (p KernelPhase) String() string {
	switch p {
	case PhaseMode:
		return "mode"
	case PhaseCRF:
		return "crf"
	case PhaseSRF:
		return "srf"
	case PhaseGRF:
		return "grf"
	case PhaseTrigger:
		return "trigger"
	}
	return "unknown"
}

// phaseMetrics are the runtime's kernel-phase counters: per phase, its op
// count and its cycle cost, so Snapshot.Diff around a kernel yields its
// phase breakdown. Indexed by KernelPhase; the registered names are part
// of the metrics surface and must not change.
type phaseMetrics struct {
	counts [NumPhases]*metrics.Counter
	cycles [NumPhases]*metrics.Counter
}

func newPhaseMetrics(reg *metrics.Registry) *phaseMetrics {
	pm := &phaseMetrics{}
	pm.counts[PhaseMode] = reg.Counter("runtime_mode_transitions_total")
	pm.cycles[PhaseMode] = reg.Counter("runtime_mode_transition_cycles_total")
	pm.counts[PhaseCRF] = reg.Counter("runtime_crf_programs_total")
	pm.cycles[PhaseCRF] = reg.Counter("runtime_crf_program_cycles_total")
	pm.counts[PhaseSRF] = reg.Counter("runtime_srf_programs_total")
	pm.cycles[PhaseSRF] = reg.Counter("runtime_srf_program_cycles_total")
	pm.counts[PhaseGRF] = reg.Counter("runtime_grf_zeros_total")
	pm.cycles[PhaseGRF] = reg.Counter("runtime_grf_zero_cycles_total")
	pm.counts[PhaseTrigger] = reg.Counter("runtime_triggers_total")
	pm.cycles[PhaseTrigger] = reg.Counter("runtime_trigger_cycles_total")
	return pm
}

// phaseCell is one channel's running per-kernel phase aggregate.
type phaseCell struct {
	n      int64
	cycles int64
}

// notePhase records one phase operation and the cycles the channel clock
// advanced during it. The shard is the channel's own (parent numbering),
// so restricted multi-tenant views stay race free under a parallel engine —
// and the per-kernel aggregate is likewise indexed by channel.
func (r *Runtime) notePhase(ch int, ph KernelPhase, start int64) {
	shard := r.Chans[ch].MetricsShard()
	d := r.Chans[ch].Now() - start
	r.pm.counts[ph].Inc(shard)
	r.pm.cycles[ph].Add(shard, d)
	if r.obsAgg != nil {
		cell := &r.obsAgg[ch][ph]
		cell.n++
		cell.cycles += d
	}
}

// notePhaseN records n operations of one phase spanning start..now as a
// single metrics update. Back-to-back operations telescope (each starts
// at the cycle its predecessor ended), so the totals are identical to n
// individual notePhase calls — this is the batched form the trigger-run
// paths use to keep the sharded-counter atomics off the per-command path.
func (r *Runtime) notePhaseN(ch int, ph KernelPhase, n int, start int64) {
	shard := r.Chans[ch].MetricsShard()
	d := r.Chans[ch].Now() - start
	r.pm.counts[ph].Add(shard, int64(n))
	r.pm.cycles[ph].Add(shard, d)
	if r.obsAgg != nil {
		cell := &r.obsAgg[ch][ph]
		cell.n += int64(n)
		cell.cycles += d
	}
}

// PhaseBreakdown is one kernel's cost split by phase, summed over
// channels. Cycles are simulated cycles (sum across channels, so on a
// multi-channel kernel they exceed the kernel's critical-path latency).
type PhaseBreakdown struct {
	Count  [NumPhases]int64
	Cycles [NumPhases]int64
}

// Summary renders the breakdown as "k=v" attrs for a span (phases with
// zero activity are omitted).
func (b PhaseBreakdown) Summary() string {
	s := ""
	for p := KernelPhase(0); p < NumPhases; p++ {
		if b.Count[p] == 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%d/%dcy", p, b.Count[p], b.Cycles[p])
	}
	return s
}

// BeginPhaseObs arms per-kernel phase aggregation: from this call until
// TakePhaseObs, every phase operation is also accumulated into a
// per-channel table (one cache-line-independent row per channel, safe
// under a parallel engine). Call only while kernels are quiescent. The
// unarmed cost in notePhase is one nil check.
func (r *Runtime) BeginPhaseObs() {
	if r.obsAgg == nil {
		r.obsAgg = make([][NumPhases]phaseCell, len(r.Chans))
		return
	}
	for i := range r.obsAgg {
		r.obsAgg[i] = [NumPhases]phaseCell{}
	}
}

// TakePhaseObs returns the phase activity since BeginPhaseObs, summed
// over channels, and resets the aggregate. Zero valued when never armed.
func (r *Runtime) TakePhaseObs() PhaseBreakdown {
	var b PhaseBreakdown
	for i := range r.obsAgg {
		for p := KernelPhase(0); p < NumPhases; p++ {
			b.Count[p] += r.obsAgg[i][p].n
			b.Cycles[p] += r.obsAgg[i][p].cycles
			r.obsAgg[i][p] = phaseCell{}
		}
	}
	return b
}

// AttachTimeline connects an obs.Timeline to the whole stack: each
// memctrl channel records its issued commands and mode windows, and each
// PIM executor its per-trigger instruction counts, into the timeline's
// per-channel buffers. Channel i writes tl.Channel(i); a timeline sized
// smaller than the system leaves the excess channels unhooked (the hooks
// are nil-safe). Call before driving traffic.
func (r *Runtime) AttachTimeline(tl *obs.Timeline) {
	for i, c := range r.Chans {
		c.ChannelID = i
		c.TL = tl.Channel(i)
		r.Execs[i].TL = tl.Channel(i)
	}
}

// collectDeviceMetrics bridges the hbm device counters and the PIM
// executors into a snapshot. It reads foreign state without
// synchronization, so it is only accurate while kernels are quiescent
// (after ForEachChannel returns, which is a happens-before edge).
func (r *Runtime) collectDeviceMetrics(emit func(name string, value int64)) {
	for i, c := range r.Chans {
		p := c.PCH()
		st := p.Stats()
		emit("hbm_act_total", st.ACT+st.ABACT)
		emit("hbm_pre_total", st.PRE+st.ABPRE)
		emit("hbm_rd_total", st.RD+st.ABRD)
		emit("hbm_wr_total", st.WR+st.ABWR)
		emit("hbm_ref_total", st.REF)
		emit("hbm_mode_switches_total", st.ModeSwitches)
		emit("hbm_offchip_bytes_total", st.OffChipBytes)
		emit("hbm_bank_reads_total", st.BankReads)
		emit("hbm_bank_writes_total", st.BankWrites)

		for bank, ops := range p.BankOps() {
			emit(fmt.Sprintf(`hbm_bank_act_total{bank="%d"}`, bank), ops.ACT)
			emit(fmt.Sprintf(`hbm_bank_rd_total{bank="%d"}`, bank), ops.RD)
			emit(fmt.Sprintf(`hbm_bank_wr_total{bank="%d"}`, bank), ops.WR)
		}
		res := p.ModeResidency(c.Now())
		for mode, cycles := range res {
			emit(fmt.Sprintf("hbm_mode_cycles_total{mode=%q}", hbm.Mode(mode)), cycles)
		}

		e := r.Execs[i]
		emit("pim_triggers_total", e.Triggers())
		emit("pim_aam_instr_total", e.AAMInstructions())
		for op, n := range e.OpCountsArray() {
			if n > 0 {
				emit(fmt.Sprintf("pim_instr_total{op=%q}", isa.Opcode(op).String()), n)
			}
		}
	}
}
