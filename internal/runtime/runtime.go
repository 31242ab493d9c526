// Package runtime is the user-level PIM runtime of Section V-A: the
// executor that turns PIM microkernels into ordered DRAM command streams
// (mode transitions, CRF/SRF programming, triggers, fences), the memory
// manager that lays operands out across banks in a PIM-friendly way, and
// the preprocessor that decides which operations are worth offloading.
package runtime

import (
	"fmt"

	"pimsim/internal/driver"
	"pimsim/internal/engine"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/isa"
	"pimsim/internal/memctrl"
	"pimsim/internal/metrics"
	"pimsim/internal/pim"
)

// Runtime drives the PIM execution units of a whole memory system. Each
// pseudo channel is owned by one host thread group (Fig. 8), so channels
// progress independently; a kernel's latency is the slowest channel's.
type Runtime struct {
	Cfg   hbm.Config
	Chans []*memctrl.Channel
	Execs []*pim.Executor
	Drv   *driver.Driver

	// Metrics is the system-wide registry: one shard per channel, shared
	// by the memctrl layer, the runtime's phase counters, and snapshot-time
	// collectors bridging the hbm device and PIM executor counters.
	// Restricted views (multi-tenancy) share the parent's registry.
	Metrics *metrics.Registry
	pm      *phaseMetrics

	// obsAgg, when armed by BeginPhaseObs, accumulates per-kernel phase
	// activity per channel (tracing's span attributes). Nil when tracing
	// is off: notePhase pays one nil check.
	obsAgg [][NumPhases]phaseCell

	// SimChannels, when positive and the device is timing-only, limits
	// kernel command-stream generation to the first n channels. Channel 0
	// always carries the maximum per-channel load (blocks are dealt round
	// robin starting there), so its cycle count is the kernel latency;
	// simulating the remaining symmetric channels would only repeat it.
	SimChannels int

	// ParallelKernels, when set with no engine installed, auto-installs
	// a parallel engine on first use. Channels are fully independent
	// (own clock, banks, execution units), so results and cycle counts
	// are identical to the sequential order; only host wall-clock
	// changes. New code should call UseEngine directly.
	ParallelKernels bool

	// wr is one AccessBytes payload buffer per channel (parent numbering)
	// for the register-space writes the runtime builds itself: PIM_OP_MODE,
	// accumulator zeros, CRF words. hbm has consumed a WR payload by the
	// time Issue returns, so a channel's writes can share one buffer.
	wr [][]byte

	// eng dispatches per-channel kernel work. Nil runs channels
	// sequentially on the caller's goroutine (engine.Serial semantics
	// without the indirection).
	eng engine.Engine
}

// UseEngine installs the execution engine that ForEachChannel dispatches
// kernel channel work through, closing any previously installed engine.
// Call while kernels are quiescent.
func (r *Runtime) UseEngine(e engine.Engine) {
	if r.eng != nil {
		r.eng.Close()
	}
	r.eng = e
}

// CloseEngine releases the installed engine's workers (idempotent).
func (r *Runtime) CloseEngine() {
	if r.eng != nil {
		r.eng.Close()
		r.eng = nil
	}
}

// ForEachChannel runs fn(ch) for the kernel's effective channels through
// the installed engine and returns after every channel quiesced (the
// result-join barrier). The lowest-channel error wins.
func (r *Runtime) ForEachChannel(fn func(ch int) error) error {
	n := r.EffectiveChannels()
	if r.eng == nil {
		if !r.ParallelKernels || n == 1 {
			for ch := 0; ch < n; ch++ {
				if err := fn(ch); err != nil {
					return err
				}
			}
			return nil
		}
		r.eng = engine.NewParallel(len(r.Chans))
	}
	return r.eng.Run(n, fn)
}

// EffectiveChannels returns how many channels kernels should drive.
// Functional runs always drive every channel (results live everywhere).
func (r *Runtime) EffectiveChannels() int {
	if r.Cfg.Functional || r.SimChannels <= 0 || r.SimChannels > len(r.Chans) {
		return len(r.Chans)
	}
	return r.SimChannels
}

// New builds a runtime over a set of devices (4 PIM-HBM stacks in the
// paper's system). All devices must share one configuration.
func New(devs []*hbm.Device) (*Runtime, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("runtime: no devices")
	}
	cfg := devs[0].Config()
	r := &Runtime{Cfg: cfg}
	for _, dev := range devs {
		if dev.Config() != cfg {
			return nil, fmt.Errorf("runtime: heterogeneous device configurations")
		}
		execs, err := pim.Attach(dev)
		if err != nil {
			return nil, err
		}
		for i := 0; i < dev.NumPCH(); i++ {
			r.Chans = append(r.Chans, memctrl.NewChannel(dev.PCH(i), cfg))
			r.Execs = append(r.Execs, execs[i])
		}
	}
	drv, err := driver.New(cfg, len(r.Chans))
	if err != nil {
		return nil, err
	}
	r.Drv = drv
	wr := make([]byte, len(r.Chans)*cfg.AccessBytes)
	for i := range r.Chans {
		r.wr = append(r.wr, wr[i*cfg.AccessBytes:(i+1)*cfg.AccessBytes])
	}

	// One registry shard per channel: kernels under ParallelKernels write
	// contention free, and per-channel deltas stay separable.
	r.Metrics = metrics.New(len(r.Chans))
	for i, c := range r.Chans {
		c.UseMetrics(r.Metrics, i)
	}
	r.pm = newPhaseMetrics(r.Metrics)
	r.Metrics.RegisterCollector(r.collectDeviceMetrics)
	return r, nil
}

// NewStack builds a whole PIM stack from one device description: n
// devices of cfg, a PIM executor on every pseudo channel, and the runtime
// (channels, driver, metrics) over them. Channels are symmetric and
// channel 0 carries the maximum load, so the stack simulates that one
// channel; EffectiveChannels applies this to timing-only devices only.
func NewStack(cfg hbm.Config, n int) (*Runtime, []*hbm.Device, error) {
	devs := make([]*hbm.Device, n)
	for i := range devs {
		d, err := hbm.NewDevice(cfg)
		if err != nil {
			return nil, nil, err
		}
		devs[i] = d
	}
	rt, err := New(devs)
	if err != nil {
		return nil, nil, err
	}
	rt.SimChannels = 1
	return rt, devs, nil
}

// NumChannels returns the number of pseudo channels.
func (r *Runtime) NumChannels() int { return len(r.Chans) }

// issue sends one command on a channel.
func (r *Runtime) issue(ch int, cmd hbm.Command) (hbm.IssueResult, error) {
	res, err := r.Chans[ch].Issue(cmd)
	if err != nil {
		return res, fmt.Errorf("runtime: ch%d %s: %w", ch, cmd, err)
	}
	return res, nil
}

// EnterAB performs the ABMR handshake on a channel.
func (r *Runtime) EnterAB(ch int) error {
	start := r.Chans[ch].Now()
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdACT, BG: 0, Bank: hbm.ABMRBank, Row: r.Cfg.ModeRow()}); err != nil {
		return err
	}
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPRE, BG: 0, Bank: hbm.ABMRBank}); err != nil {
		return err
	}
	r.notePhase(ch, PhaseMode, start)
	return nil
}

// ExitToSB performs the SBMR handshake (all banks must be precharged).
func (r *Runtime) ExitToSB(ch int) error {
	start := r.Chans[ch].Now()
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdACT, BG: 0, Bank: hbm.SBMRBank, Row: r.Cfg.ModeRow()}); err != nil {
		return err
	}
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPRE, BG: 0, Bank: hbm.SBMRBank}); err != nil {
		return err
	}
	r.notePhase(ch, PhaseMode, start)
	return nil
}

// SetPIMMode writes PIM_OP_MODE through the mode row.
func (r *Runtime) SetPIMMode(ch int, on bool) error {
	start := r.Chans[ch].Now()
	data := r.wr[ch]
	clear(data)
	if on {
		data[0] = 1
	}
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdACT, BG: 0, Bank: hbm.ABMRBank, Row: r.Cfg.ModeRow()}); err != nil {
		return err
	}
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdWR, BG: 0, Bank: hbm.ABMRBank, Col: hbm.ColPIMOpMode, Data: data}); err != nil {
		return err
	}
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPRE, BG: 0, Bank: hbm.ABMRBank}); err != nil {
		return err
	}
	r.notePhase(ch, PhaseMode, start)
	return nil
}

// ProgramCRF broadcasts a microkernel into every unit of a channel. The
// channel must be in AB mode with all banks precharged. Programs longer
// than the CRF are rejected up front (by the encoder).
func (r *Runtime) ProgramCRF(ch int, prog []isa.Instruction) error {
	words, err := isa.EncodeProgram(prog)
	if err != nil {
		return err
	}
	return r.ProgramCRFWords(ch, words)
}

// ProgramCRFWords is ProgramCRF for a microkernel encoded ahead of time
// (isa.EncodeProgram): a kernel that launches the same program on every
// tile of every channel encodes it once.
func (r *Runtime) ProgramCRFWords(ch int, words []uint32) error {
	if len(words) > isa.CRFEntries {
		return fmt.Errorf("runtime: program of %d words overflows the %d-entry CRF",
			len(words), isa.CRFEntries)
	}
	start := r.Chans[ch].Now()
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdACT, Row: r.Cfg.CRFRow()}); err != nil {
		return err
	}
	buf := r.wr[ch]
	for col := 0; col*8 < len(words); col++ {
		clear(buf)
		for i := 0; i < 8 && col*8+i < len(words); i++ {
			w := words[col*8+i]
			buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
		}
		if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdWR, Col: uint32(col), Data: buf}); err != nil {
			return err
		}
	}
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPREA}); err != nil {
		return err
	}
	r.notePhase(ch, PhaseCRF, start)
	return nil
}

// ProgramSRF broadcasts the scalar registers: m fills SRF_M[0..7], a fills
// SRF_A[0..7]. AB mode, banks precharged. Slices longer than the register
// file are rejected — the old behaviour of silently truncating them hid
// kernels computing with scalars that never arrived.
func (r *Runtime) ProgramSRF(ch int, m, a []fp16.F16) error {
	if len(m) > isa.SRFEntries || len(a) > isa.SRFEntries {
		return fmt.Errorf("runtime: SRF payload %d/%d scalars overflows the %d-entry halves",
			len(m), len(a), isa.SRFEntries)
	}
	start := r.Chans[ch].Now()
	v := fp16.NewVector(2 * isa.SRFEntries)
	copy(v[:isa.SRFEntries], m)
	copy(v[isa.SRFEntries:], a)
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdACT, Row: r.Cfg.SRFRow()}); err != nil {
		return err
	}
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdWR, Col: 0, Data: v.Bytes()}); err != nil {
		return err
	}
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPREA}); err != nil {
		return err
	}
	r.notePhase(ch, PhaseSRF, start)
	return nil
}

// ZeroGRF broadcasts zeros into all of GRF_B of every unit (accumulator
// reset between macro passes). AB mode, banks precharged. It always
// issues as many writes as the product's GRF has registers, to the
// register columns that end where GRF_B ends: both halves of the
// product's GRF, GRF_B alone when the halves are twice as deep.
func (r *Runtime) ZeroGRF(ch int) error {
	start := r.Chans[ch].Now()
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdACT, Row: r.Cfg.GRFRow()}); err != nil {
		return err
	}
	zero := r.wr[ch]
	clear(zero)
	end := 2 * r.Cfg.GRFDepth()
	for col := end - 2*isa.GRFEntries; col < end; col++ {
		if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdWR, Col: uint32(col), Data: zero}); err != nil {
			return err
		}
	}
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPREA}); err != nil {
		return err
	}
	r.notePhase(ch, PhaseGRF, start)
	return nil
}

// OpenRow broadcast-activates a row on a channel (AB/AB-PIM modes).
func (r *Runtime) OpenRow(ch int, row uint32) error {
	_, err := r.issue(ch, hbm.Command{Kind: hbm.CmdACT, Row: row})
	return err
}

// CloseRows precharges all banks of a channel.
func (r *Runtime) CloseRows(ch int) error {
	_, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPREA})
	return err
}

// Recover restores a channel to single-bank mode with every bank
// precharged. A kernel that fails mid-flight (an uncorrectable ECC word,
// an injected fault) aborts wherever the error caught it — typically
// AB-PIM mode with a weight row open — and the next launch's EnterAB
// handshake would be illegal against that state. Recover is idempotent
// and cheap on an already-clean channel: PREA, then unwind whatever mode
// the channel is still in.
func (r *Runtime) Recover(ch int) error {
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPREA}); err != nil {
		return err
	}
	if r.Chans[ch].PCH().Mode() == hbm.ModeABPIM {
		if err := r.SetPIMMode(ch, false); err != nil {
			return err
		}
	}
	if r.Chans[ch].PCH().Mode() == hbm.ModeAB {
		return r.ExitToSB(ch)
	}
	return nil
}

// TriggerRD issues a PIM-triggering column read. bankSel 0 drives the
// even banks, 1 the odd banks.
func (r *Runtime) TriggerRD(ch, bankSel int, col uint32) error {
	start := r.Chans[ch].Now()
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdRD, Bank: bankSel, Col: col}); err != nil {
		return err
	}
	r.notePhase(ch, PhaseTrigger, start)
	return nil
}

// TriggerWR issues a PIM-triggering column write carrying data on the
// write datapath.
func (r *Runtime) TriggerWR(ch, bankSel int, col uint32, data []byte) error {
	start := r.Chans[ch].Now()
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdWR, Bank: bankSel, Col: col, Data: data}); err != nil {
		return err
	}
	r.notePhase(ch, PhaseTrigger, start)
	return nil
}

// TriggerRDRun issues n PIM-triggering column reads at consecutive
// columns col0..col0+n-1 — one AAM batch — with the phase accounting
// folded into a single metrics update (see notePhaseN).
func (r *Runtime) TriggerRDRun(ch, bankSel int, col0 uint32, n int) error {
	c := r.Chans[ch]
	start := c.Now()
	for i := 0; i < n; i++ {
		cmd := hbm.Command{Kind: hbm.CmdRD, Bank: bankSel, Col: col0 + uint32(i)}
		if _, err := c.Issue(cmd); err != nil {
			return fmt.Errorf("runtime: ch%d %s: %w", ch, cmd, err)
		}
	}
	r.notePhaseN(ch, PhaseTrigger, n, start)
	return nil
}

// TriggerWRRun issues n PIM-triggering column writes at consecutive
// columns col0..col0+n-1. When data is non-nil, data[i] rides the i-th
// write datapath (functional operand loading); a nil data is the
// timing-only form.
func (r *Runtime) TriggerWRRun(ch, bankSel int, col0 uint32, n int, data [][]byte) error {
	c := r.Chans[ch]
	start := c.Now()
	for i := 0; i < n; i++ {
		cmd := hbm.Command{Kind: hbm.CmdWR, Bank: bankSel, Col: col0 + uint32(i)}
		if data != nil {
			cmd.Data = data[i]
		}
		if _, err := c.Issue(cmd); err != nil {
			return fmt.Errorf("runtime: ch%d %s: %w", ch, cmd, err)
		}
	}
	r.notePhaseN(ch, PhaseTrigger, n, start)
	return nil
}

// Fence orders the preceding commands (one AAM window boundary).
func (r *Runtime) Fence(ch int) { r.Chans[ch].Fence() }

// WriteBankSB writes one 32-byte block to a specific bank in SB mode.
func (r *Runtime) WriteBankSB(ch, flatBank int, row, col uint32, data []byte) error {
	bg, b := r.Cfg.BankOf(flatBank)
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: row}); err != nil {
		return err
	}
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdWR, BG: bg, Bank: b, Col: col, Data: data}); err != nil {
		return err
	}
	_, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b})
	return err
}

// WriteBankRowSB writes up to a full row of one bank with a single
// activate.
func (r *Runtime) WriteBankRowSB(ch, flatBank int, row uint32, cols []uint32, data [][]byte) error {
	if len(cols) != len(data) {
		return fmt.Errorf("runtime: cols/data length mismatch")
	}
	bg, b := r.Cfg.BankOf(flatBank)
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: row}); err != nil {
		return err
	}
	for i, col := range cols {
		if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdWR, BG: bg, Bank: b, Col: col, Data: data[i]}); err != nil {
			return err
		}
	}
	_, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b})
	return err
}

// WriteBankRunSB writes consecutive columns col0, col0+1, ... of one bank
// row with a single activate; data holds AccessBytes per column, end to
// end.
func (r *Runtime) WriteBankRunSB(ch, flatBank int, row, col0 uint32, data []byte) error {
	size := r.Cfg.AccessBytes
	if len(data)%size != 0 {
		return fmt.Errorf("runtime: %d payload bytes are not whole %d-byte columns", len(data), size)
	}
	bg, b := r.Cfg.BankOf(flatBank)
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: row}); err != nil {
		return err
	}
	for i := 0; i*size < len(data); i++ {
		if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdWR, BG: bg, Bank: b, Col: col0 + uint32(i), Data: data[i*size : (i+1)*size]}); err != nil {
			return err
		}
	}
	_, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b})
	return err
}

// ReadBankRowSB reads several columns of one bank row with a single
// activate, returning one 32-byte block per requested column.
func (r *Runtime) ReadBankRowSB(ch, flatBank int, row uint32, cols []uint32) ([][]byte, error) {
	bg, b := r.Cfg.BankOf(flatBank)
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: row}); err != nil {
		return nil, err
	}
	out := make([][]byte, len(cols))
	for i, col := range cols {
		res, err := r.issue(ch, hbm.Command{Kind: hbm.CmdRD, BG: bg, Bank: b, Col: col})
		if err != nil {
			return nil, err
		}
		// res.Data is pseudo-channel scratch, only valid until the next
		// Issue: copy it out.
		out[i] = append([]byte(nil), res.Data...)
	}
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b}); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadBankSB reads one 32-byte block from a specific bank in SB mode.
func (r *Runtime) ReadBankSB(ch, flatBank int, row, col uint32) ([]byte, error) {
	bg, b := r.Cfg.BankOf(flatBank)
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: row}); err != nil {
		return nil, err
	}
	res, err := r.issue(ch, hbm.Command{Kind: hbm.CmdRD, BG: bg, Bank: b, Col: col})
	if err != nil {
		return nil, err
	}
	data := append([]byte(nil), res.Data...) // copy out of pCH scratch
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b}); err != nil {
		return nil, err
	}
	return data, nil
}

// ReadGRFRowSB reads the first regs GRF registers of one half (0 = GRF_A,
// 1 = GRF_B) of every unit through the SB register space, with one row
// activation per unit, returning vectors indexed [unit][reg]. The
// vectors are cut from one backing array (a GEMV unloads its partial sums
// through here once per macro tile, on every channel of every launch).
func (r *Runtime) ReadGRFRowSB(ch, half int, regs int) ([][]fp16.Vector, error) {
	units := r.Cfg.PIMUnits
	out := make([][]fp16.Vector, units)
	vecs := make([]fp16.Vector, units*regs)
	lanes := fp16.NewVector(units * regs * fp16.Lanes)
	banksPerUnit := r.Cfg.BanksPerUnit()
	grfEntries := r.Cfg.GRFDepth()
	for u := 0; u < units; u++ {
		bg, b := r.Cfg.BankOf(u * banksPerUnit)
		if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: r.Cfg.GRFRow()}); err != nil {
			return nil, err
		}
		out[u] = vecs[u*regs : (u+1)*regs : (u+1)*regs]
		for i := 0; i < regs; i++ {
			res, err := r.issue(ch, hbm.Command{Kind: hbm.CmdRD, BG: bg, Bank: b, Col: uint32(half*grfEntries + i)})
			if err != nil {
				return nil, err
			}
			o := (u*regs + i) * fp16.Lanes
			// Timing-only devices return no data: the lanes stay zero.
			out[u][i] = lanes[o : o+fp16.Lanes : o+fp16.Lanes].DecodeBytes(res.Data)
		}
		if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Now returns a channel's clock.
func (r *Runtime) Now(ch int) int64 { return r.Chans[ch].Now() }

// MaxNow returns the latest clock across channels (kernel completion).
func (r *Runtime) MaxNow() int64 {
	var m int64
	for _, c := range r.Chans {
		if c.Now() > m {
			m = c.Now()
		}
	}
	return m
}

// SyncChannels advances every channel to the global maximum (a host-side
// join across thread groups). It runs at the engine's result-join
// barrier, so every clock is quiescent and at most MaxNow; a backwards
// advance here would mean a channel ticked during the join, which is a
// scheduler invariant violation worth crashing on.
func (r *Runtime) SyncChannels() {
	m := r.MaxNow()
	for i, c := range r.Chans {
		if err := c.AdvanceTo(m); err != nil {
			panic(fmt.Sprintf("runtime: SyncChannels ch%d: %v", i, err))
		}
	}
}

// SetGuaranteeOrder toggles the in-order PIM mode study (Section VII-B)
// on every channel.
func (r *Runtime) SetGuaranteeOrder(on bool) {
	for _, c := range r.Chans {
		c.GuaranteeOrder = on
	}
}
