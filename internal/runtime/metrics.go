package runtime

import (
	"fmt"

	"pimsim/internal/hbm"
	"pimsim/internal/isa"
	"pimsim/internal/obs"
)

// KernelPhase classifies what a kernel's command stream is spent on. Each
// channel keeps one ledger of its phases, a PhaseBreakdown of plain
// fields: the collector reports it as the runtime_* series, and
// BeginPhaseObs/TakePhaseObs read a kernel's share of it for tracing.
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

// phaseSeries names each phase's count and cycle series in snapshots.
// The names are part of the metrics surface and must not change.
var phaseSeries = [NumPhases]struct{ count, cycles string }{
	PhaseMode:    {"runtime_mode_transitions_total", "runtime_mode_transition_cycles_total"},
	PhaseCRF:     {"runtime_crf_programs_total", "runtime_crf_program_cycles_total"},
	PhaseSRF:     {"runtime_srf_programs_total", "runtime_srf_program_cycles_total"},
	PhaseGRF:     {"runtime_grf_zeros_total", "runtime_grf_zero_cycles_total"},
	PhaseTrigger: {"runtime_triggers_total", "runtime_trigger_cycles_total"},
}

// notePhase books n operations of one phase, spanning start to the
// channel's clock now, into the channel's ledger. Back-to-back operations
// telescope (each starts at the cycle its predecessor ended), so a run of
// n is booked once.
func (r *Runtime) notePhase(ch int, ph KernelPhase, n int, start int64) {
	l := &r.chs[ch].phases
	l.Count[ph] += int64(n)
	l.Cycles[ph] += r.Chans[ch].Now() - start
}

// PhaseBreakdown is a cost split by phase: a channel's ledger, or one
// kernel's share of the ledgers summed over channels. Cycles are
// simulated cycles (summed across channels, so on a multi-channel kernel
// they exceed the kernel's critical-path latency).
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

// BeginPhaseObs marks every channel's ledger: TakePhaseObs reports the
// phase activity since the mark. Call only while kernels are quiescent.
func (r *Runtime) BeginPhaseObs() {
	for _, cs := range r.chs {
		cs.obs, cs.obsArmed = cs.phases, true
	}
}

// TakePhaseObs returns the phase activity since the last BeginPhaseObs or
// TakePhaseObs, summed over channels, and moves the mark to now. Zero
// valued when never armed.
func (r *Runtime) TakePhaseObs() PhaseBreakdown {
	var b PhaseBreakdown
	for _, cs := range r.chs {
		if !cs.obsArmed {
			continue
		}
		for p := range b.Count {
			b.Count[p] += cs.phases.Count[p] - cs.obs.Count[p]
			b.Cycles[p] += cs.phases.Cycles[p] - cs.obs.Cycles[p]
		}
		cs.obs = cs.phases
	}
	return b
}

// AttachTimeline connects an obs.Timeline to the whole stack: each
// memctrl channel logs its issued commands, and each PIM executor its
// retired triggers, into the timeline's per-channel log. Channel i writes
// tl.Channel(i); a timeline sized smaller than the system leaves the
// excess channels unhooked (the hooks are nil-checked). Call before
// driving traffic.
func (r *Runtime) AttachTimeline(tl *obs.Timeline) {
	for i, c := range r.Chans {
		c.Log = tl.Channel(i)
		r.Execs[i].Log = c.Log
	}
}

// collectDeviceMetrics bridges every channel's counters into a snapshot:
// the hbm device's, the PIM executor's, the controller's and the
// runtime's phase ledger. It reads them without synchronization, so it is
// only accurate while kernels are quiescent (after ForEachChannel
// returns, which is a happens-before edge).
func (r *Runtime) collectDeviceMetrics(emit func(name string, value int64)) {
	for i, c := range r.Chans {
		m := c.Stats()
		emit("memctrl_fences_total", m.Fences)
		emit("memctrl_fence_stall_cycles_total", m.FenceStallCycles)
		emit("memctrl_refresh_total", m.Refreshes)
		emit("memctrl_refresh_postponed_total", m.RefreshPostponed)
		emit("memctrl_row_hits_total", m.RowHits)
		emit("memctrl_row_misses_total", m.RowMisses)
		emit("memctrl_row_opens_total", m.RowOpens)
		emit("memctrl_reordered_total", m.Reordered)
		emit("memctrl_completed_total", m.Completed)
		emit("memctrl_forwarded_total", m.Forwarded)
		emit("memctrl_ahead_opens_total", m.AheadOpens)
		emit("memctrl_ahead_closes_total", m.AheadCloses)
		emit("memctrl_wbuf_drains_total", m.WbufDrains)
		emit("memctrl_wbuf_drained_writes_total", m.WbufDrained)

		l := &r.chs[i].phases
		for p, names := range phaseSeries {
			emit(names.count, l.Count[p])
			emit(names.cycles, l.Cycles[p])
		}

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
