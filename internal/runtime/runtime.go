// Package runtime is the user-level PIM runtime of Section V-A: the
// executor that turns PIM microkernels into ordered DRAM command streams
// (mode transitions, CRF/SRF programming, triggers, fences), the memory
// manager that lays operands out across banks in a PIM-friendly way, and
// the preprocessor that decides which operations are worth offloading.
// Every column sequence it issues (a trigger window, ZeroGRF, CRF and SRF
// programming, a unit's GRF unload, an SB bank-row access) is one
// memctrl.Channel.IssueRun, and each run's phase is noted once.
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

	// Metrics is the system-wide registry. The simulator's counters are
	// plain per-channel fields (hbm, PIM executor, memctrl, the phase
	// ledgers in chs); one snapshot-time collector bridges them in.
	// Restricted views (multi-tenancy) share the parent's registry.
	Metrics *metrics.Registry

	// SimChannels, when positive and the device is timing-only, limits
	// kernel command-stream generation to the first n channels. Channel 0
	// always carries the maximum per-channel load (blocks are dealt round
	// robin starting there), so its cycle count is the kernel latency;
	// simulating the remaining symmetric channels would only repeat it.
	SimChannels int

	// chs is what the runtime keeps per channel (parent numbering), one
	// pointer per channel shared with restricted views.
	chs []*chanState

	// zeros is ZeroGRF's payload list, as long as the GRF register space:
	// every entry the same zeroed burst, read-only and shared by every
	// channel.
	zeros [][]byte

	// eng dispatches per-channel kernel work. Nil runs channels
	// sequentially on the caller's goroutine (engine.Serial semantics
	// without the indirection).
	eng engine.Engine
}

// chanState is one channel's runtime state. Only the goroutine driving
// the channel touches it while a kernel runs.
type chanState struct {
	// phases is the channel's phase ledger since construction; obs is its
	// value at the last BeginPhaseObs or TakePhaseObs, once obsArmed.
	phases, obs PhaseBreakdown
	obsArmed    bool

	// region is the kernel-region snapshot: BeginRegion writes the
	// channel's clock and fence count there and EndRegion reads them back.
	// A launch owns its channels' regions from BeginRegion to EndRegion,
	// so launches on overlapping channel sets must not run concurrently,
	// which they cannot anyway: a channel's command stream is one
	// goroutine's.
	region regionMark

	// bufs are the column-run buffers: the register-space payloads the
	// runtime builds itself and the column views of a bank-row write. hbm
	// has consumed a WR payload by the time a run returns, so the
	// channel's runs can share them.
	bufs cmdBufs

	unload   grfUnload  // the ReadGRFRowSB result buffer
	payloads payloadRun // the Payloads buffer
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
	if r.eng != nil {
		return r.eng.Run(n, fn)
	}
	for ch := 0; ch < n; ch++ {
		if err := fn(ch); err != nil {
			return err
		}
	}
	return nil
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
	r := &Runtime{Cfg: cfg, Metrics: metrics.New()}
	for _, dev := range devs {
		if dev.Config() != cfg {
			return nil, fmt.Errorf("runtime: heterogeneous device configurations")
		}
		execs, err := pim.Attach(dev)
		if err != nil {
			return nil, err
		}
		for i := 0; i < dev.NumPCH(); i++ {
			r.Chans = append(r.Chans, memctrl.NewChannel(dev.PCH(i), cfg, len(r.Chans)))
			r.Execs = append(r.Execs, execs[i])
			r.chs = append(r.chs, new(chanState))
		}
	}
	drv, err := driver.New(cfg, len(r.Chans))
	if err != nil {
		return nil, err
	}
	r.Drv = drv
	zero := make([]byte, cfg.AccessBytes)
	for range 2 * cfg.GRFDepth() {
		r.zeros = append(r.zeros, zero)
	}
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

// run issues n column commands like cmd at consecutive columns cmd.Col,
// cmd.Col+1, ..., command i carrying data[i], as one memctrl run. It
// returns the bursts a RD run read, valid until the channel's next
// command; an error is worded as the failing command's.
func (r *Runtime) run(ch int, cmd hbm.Command, n int, data [][]byte) ([][]byte, error) {
	read, done, err := r.Chans[ch].IssueRun(cmd, n, data)
	if err != nil {
		cmd.Col += uint32(done)
		return nil, fmt.Errorf("runtime: ch%d %s: %w", ch, cmd, err)
	}
	return read, nil
}

// cmdBufs is one channel's buffers for the column runs the runtime builds
// itself: wr holds a burst per CRF column for the register-space writes
// (PIM_OP_MODE, SRF, CRF words), and cols the column views of a
// WriteBankRunSB payload, each cut on the channel's first need (a
// timing-only stack drives one channel of many).
type cmdBufs struct {
	wr   [][]byte
	cols [][]byte
}

// wrBufs returns channel ch's first n register-space payload bursts.
func (r *Runtime) wrBufs(ch, n int) [][]byte {
	b := &r.chs[ch].bufs
	if b.wr == nil {
		size := r.Cfg.AccessBytes
		b.wr = make([][]byte, isa.CRFEntries/8)
		buf := make([]byte, len(b.wr)*size)
		for i := range b.wr {
			b.wr[i] = buf[i*size : (i+1)*size : (i+1)*size]
		}
	}
	return b.wr[:n]
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
	r.notePhase(ch, PhaseMode, 1, start)
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
	r.notePhase(ch, PhaseMode, 1, start)
	return nil
}

// SetPIMMode writes PIM_OP_MODE through the mode row.
func (r *Runtime) SetPIMMode(ch int, on bool) error {
	start := r.Chans[ch].Now()
	data := r.wrBufs(ch, 1)[0]
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
	r.notePhase(ch, PhaseMode, 1, start)
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
	cols := (len(words) + 7) / 8
	bufs := r.wrBufs(ch, cols)
	for col, buf := range bufs {
		clear(buf)
		for i := 0; i < 8 && col*8+i < len(words); i++ {
			w := words[col*8+i]
			buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
		}
	}
	if _, err := r.run(ch, hbm.Command{Kind: hbm.CmdWR}, cols, bufs); err != nil {
		return err
	}
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPREA}); err != nil {
		return err
	}
	r.notePhase(ch, PhaseCRF, 1, start)
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
	srf := r.wrBufs(ch, 1)
	clear(srf[0])
	fp16.Vector(m).PutBytes(srf[0])
	fp16.Vector(a).PutBytes(srf[0][2*isa.SRFEntries:])
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdACT, Row: r.Cfg.SRFRow()}); err != nil {
		return err
	}
	if _, err := r.run(ch, hbm.Command{Kind: hbm.CmdWR}, 1, srf); err != nil {
		return err
	}
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPREA}); err != nil {
		return err
	}
	r.notePhase(ch, PhaseSRF, 1, start)
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
	end := 2 * r.Cfg.GRFDepth()
	col := end - 2*isa.GRFEntries
	if _, err := r.run(ch, hbm.Command{Kind: hbm.CmdWR, Col: uint32(col)}, end-col, r.zeros[:end-col]); err != nil {
		return err
	}
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPREA}); err != nil {
		return err
	}
	r.notePhase(ch, PhaseGRF, 1, start)
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
	return r.TriggerRDRun(ch, bankSel, col, 1)
}

// TriggerWR issues a PIM-triggering column write carrying data on the
// write datapath.
func (r *Runtime) TriggerWR(ch, bankSel int, col uint32, data []byte) error {
	if data == nil {
		return r.TriggerWRRun(ch, bankSel, col, 1, nil)
	}
	one := [1][]byte{data}
	return r.TriggerWRRun(ch, bankSel, col, 1, one[:])
}

// TriggerRDRun issues n PIM-triggering column reads at consecutive
// columns col0..col0+n-1 — one AAM batch — as one memctrl run, its phase
// booked once.
func (r *Runtime) TriggerRDRun(ch, bankSel int, col0 uint32, n int) error {
	return r.triggerRun(ch, hbm.CmdRD, bankSel, col0, n, nil)
}

// TriggerWRRun issues n PIM-triggering column writes at consecutive
// columns col0..col0+n-1 as one memctrl run. When data is non-nil,
// data[i] rides the i-th write datapath (functional operand loading); a
// nil data is the timing-only form.
func (r *Runtime) TriggerWRRun(ch, bankSel int, col0 uint32, n int, data [][]byte) error {
	return r.triggerRun(ch, hbm.CmdWR, bankSel, col0, n, data)
}

func (r *Runtime) triggerRun(ch int, kind hbm.CmdKind, bankSel int, col0 uint32, n int, data [][]byte) error {
	start := r.Chans[ch].Now()
	if _, err := r.run(ch, hbm.Command{Kind: kind, Bank: bankSel, Col: col0}, n, data); err != nil {
		return err
	}
	r.notePhase(ch, PhaseTrigger, n, start)
	return nil
}

// Fence orders the preceding commands (one AAM window boundary).
func (r *Runtime) Fence(ch int) { r.Chans[ch].Fence() }

// WriteBankSB writes one 32-byte block to a specific bank in SB mode.
func (r *Runtime) WriteBankSB(ch, flatBank int, row, col uint32, data []byte) error {
	one := [1][]byte{data}
	return r.writeBankRow(ch, flatBank, row, col, one[:])
}

// WriteBankRowSB writes up to a full row of one bank with a single
// activate, one column run per span of consecutive columns.
func (r *Runtime) WriteBankRowSB(ch, flatBank int, row uint32, cols []uint32, data [][]byte) error {
	if len(cols) != len(data) {
		return fmt.Errorf("runtime: cols/data length mismatch")
	}
	bg, b := r.Cfg.BankOf(flatBank)
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: row}); err != nil {
		return err
	}
	for i := 0; i < len(cols); {
		j := span(cols, i)
		if _, err := r.run(ch, hbm.Command{Kind: hbm.CmdWR, BG: bg, Bank: b, Col: cols[i]}, j-i, data[i:j]); err != nil {
			return err
		}
		i = j
	}
	_, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b})
	return err
}

// span returns the end of the span of consecutive columns cols[i:j].
func span(cols []uint32, i int) int {
	j := i + 1
	for j < len(cols) && cols[j] == cols[j-1]+1 {
		j++
	}
	return j
}

// WriteBankRunSB writes consecutive columns col0, col0+1, ... of one bank
// row with a single activate and one column run; data holds AccessBytes
// per column, end to end.
func (r *Runtime) WriteBankRunSB(ch, flatBank int, row, col0 uint32, data []byte) error {
	size := r.Cfg.AccessBytes
	if len(data)%size != 0 {
		return fmt.Errorf("runtime: %d payload bytes are not whole %d-byte columns", len(data), size)
	}
	cols := r.chs[ch].bufs.cols[:0]
	if n := len(data) / size; cap(cols) < n {
		cols = make([][]byte, 0, max(n, r.Cfg.ColumnsPerRow()))
	}
	for o := 0; o < len(data); o += size {
		cols = append(cols, data[o:o+size:o+size])
	}
	r.chs[ch].bufs.cols = cols
	err := r.writeBankRow(ch, flatBank, row, col0, cols)
	clear(cols) // the views must not keep the caller's payload alive
	return err
}

// writeBankRow writes data[i] to column col0+i of one bank row: ACT, one
// column run, PRE.
func (r *Runtime) writeBankRow(ch, flatBank int, row, col0 uint32, data [][]byte) error {
	bg, b := r.Cfg.BankOf(flatBank)
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: row}); err != nil {
		return err
	}
	if _, err := r.run(ch, hbm.Command{Kind: hbm.CmdWR, BG: bg, Bank: b, Col: col0}, len(data), data); err != nil {
		return err
	}
	_, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b})
	return err
}

// ReadBankRowSB reads several columns of one bank row with a single
// activate, one column run per span of consecutive columns, returning one
// 32-byte block per requested column.
func (r *Runtime) ReadBankRowSB(ch, flatBank int, row uint32, cols []uint32) ([][]byte, error) {
	bg, b := r.Cfg.BankOf(flatBank)
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: row}); err != nil {
		return nil, err
	}
	out := make([][]byte, len(cols))
	for i := 0; i < len(cols); {
		j := span(cols, i)
		read, err := r.run(ch, hbm.Command{Kind: hbm.CmdRD, BG: bg, Bank: b, Col: cols[i]}, j-i, nil)
		if err != nil {
			return nil, err
		}
		// The bursts are pseudo-channel scratch, only valid until the next
		// command: copy them out.
		for k := i; k < j; k++ {
			out[k] = burst(read, k-i)
		}
		i = j
	}
	if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b}); err != nil {
		return nil, err
	}
	return out, nil
}

// burst returns a copy of read[i], or nil where the device returned no
// data (timing-only).
func burst(read [][]byte, i int) []byte {
	if i < len(read) {
		return append([]byte(nil), read[i]...)
	}
	return nil
}

// ReadBankSB reads one 32-byte block from a specific bank in SB mode.
func (r *Runtime) ReadBankSB(ch, flatBank int, row, col uint32) ([]byte, error) {
	out, err := r.ReadBankRowSB(ch, flatBank, row, []uint32{col})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ReadGRFRowSB reads the first regs GRF registers of one half (0 = GRF_A,
// 1 = GRF_B) of every unit through the SB register space, with one row
// activation and one column run per unit, returning vectors indexed
// [unit][reg]. A GEMV unloads its partial sums through here once per
// macro tile, on every channel of every launch, so the result is a view
// into a buffer the runtime keeps for the channel: it is valid until the
// channel's next ReadGRFRowSB, and a caller that needs it longer copies
// it.
func (r *Runtime) ReadGRFRowSB(ch, half int, regs int) ([][]fp16.Vector, error) {
	units := r.Cfg.PIMUnits
	out := r.chs[ch].unload.views(units, regs)
	banksPerUnit := r.Cfg.BanksPerUnit()
	col := uint32(half * r.Cfg.GRFDepth())
	for u := 0; u < units; u++ {
		bg, b := r.Cfg.BankOf(u * banksPerUnit)
		if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: r.Cfg.GRFRow()}); err != nil {
			return nil, err
		}
		read, err := r.run(ch, hbm.Command{Kind: hbm.CmdRD, BG: bg, Bank: b, Col: col}, regs, nil)
		if err != nil {
			return nil, err
		}
		for i, reg := range out[u] {
			var data []byte
			if i < len(read) {
				data = read[i]
			}
			// Timing-only devices return no data: the lanes read as zero.
			if len(data) < 2*fp16.Lanes {
				clear(reg)
			}
			reg.DecodeBytes(data)
		}
		if _, err := r.issue(ch, hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// grfUnload is one channel's ReadGRFRowSB buffer: the [unit][reg] views
// and the lanes under them, cut from backing arrays that grow to the
// largest unload the channel has seen and are reused by every later one.
type grfUnload struct {
	units [][]fp16.Vector
	regs  []fp16.Vector
	lanes fp16.Vector
}

// views returns the buffer cut as units x regs vectors of 16 lanes.
func (g *grfUnload) views(units, regs int) [][]fp16.Vector {
	if len(g.regs) < units*regs {
		g.regs = make([]fp16.Vector, units*regs)
		g.lanes = fp16.NewVector(units * regs * fp16.Lanes)
	}
	if len(g.units) != units {
		g.units = make([][]fp16.Vector, units)
	}
	for u := range g.units {
		g.units[u] = g.regs[u*regs : (u+1)*regs : (u+1)*regs]
		for i := range g.units[u] {
			o := (u*regs + i) * fp16.Lanes
			g.units[u][i] = g.lanes[o : o+fp16.Lanes : o+fp16.Lanes]
		}
	}
	return g.units
}

// Payloads returns channel ch's WR payload buffer cut as n payloads of
// AccessBytes each, for a kernel to fill and hand to TriggerWRRun. The
// buffer keeps what the last user wrote, grows to the longest run the
// channel has seen and is reused by every later call, so the payloads are
// valid until the channel's next Payloads call. That is safe because
// nothing downstream keeps a payload: hbm has consumed a WR's data by the
// time Issue returns.
func (r *Runtime) Payloads(ch, n int) [][]byte {
	return r.chs[ch].payloads.cut(n, r.Cfg.AccessBytes)
}

// payloadRun is one channel's Payloads buffer: the payload views, cut
// once from one backing array when the channel first needs that many.
type payloadRun struct {
	views [][]byte
}

func (p *payloadRun) cut(n, size int) [][]byte {
	if len(p.views) < n {
		buf := make([]byte, n*size)
		p.views = make([][]byte, n)
		for k := range p.views {
			p.views[k] = buf[k*size : (k+1)*size : (k+1)*size]
		}
	}
	return p.views[:n]
}

// regionMark is one channel's kernel-region snapshot.
type regionMark struct{ start, fences int64 }

// BeginRegion opens a kernel region: it notes every channel's clock and
// fence count in its region mark, allocating nothing.
func (r *Runtime) BeginRegion() {
	for i, c := range r.Chans {
		r.chs[i].region = regionMark{c.Now(), c.Fences()}
	}
}

// EndRegion closes the region BeginRegion opened: it returns the slowest
// channel's cycles since then (the kernel's latency) and the fences every
// channel executed since, summed.
func (r *Runtime) EndRegion() (cycles, fences int64) {
	for i, c := range r.Chans {
		m := &r.chs[i].region
		cycles = max(cycles, c.Now()-m.start)
		fences += c.Fences() - m.fences
	}
	return cycles, fences
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
