// Package runtime is the user-level PIM runtime of Section V-A: the
// executor that turns PIM microkernels into ordered DRAM command streams
// (mode transitions, CRF/SRF programming, triggers, fences), the memory
// manager that lays operands out across banks in a PIM-friendly way, and
// the preprocessor that decides which operations are worth offloading.
// Every command sequence it issues is one memctrl.Channel.IssuePacket
// call: a configuration-row access (a mode handshake, PIM_OP_MODE, CRF
// and SRF programming, ZeroGRF) is [ACT, WR run, PRE or PREA], its phase
// noted once; an SB bank-row access and each unit's GRF unload are [ACT,
// RD or WR run, PRE]; a kernel's trigger windows and fences on one open
// row are one plan-compiled packet between the row's ACT and PREA.
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

	// eng dispatches per-channel kernel work; engine.Serial{} unless
	// UseEngine installed another.
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

	// payloads is the Payloads buffer: the payload views, cut once from
	// one backing array when the channel first needs that many.
	payloads [][]byte
}

// UseEngine installs the execution engine that ForEachChannel dispatches
// kernel channel work through, closing the one installed before; nil
// installs engine.Serial{}. Call while kernels are quiescent.
func (r *Runtime) UseEngine(e engine.Engine) {
	r.eng.Close()
	if e == nil {
		e = engine.Serial{}
	}
	r.eng = e
}

// CloseEngine releases the installed engine's workers and puts
// engine.Serial{} back (idempotent).
func (r *Runtime) CloseEngine() { r.UseEngine(nil) }

// ForEachChannel runs fn(ch) for the kernel's effective channels through
// the installed engine and returns after every channel quiesced (the
// result-join barrier). The lowest-channel error wins.
func (r *Runtime) ForEachChannel(fn func(ch int) error) error {
	return r.eng.Run(r.EffectiveChannels(), fn)
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
	r := &Runtime{Cfg: cfg, Metrics: metrics.New(), eng: engine.Serial{}}
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
	drv, err := driver.New(cfg)
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

// packet issues pk on channel ch as one memctrl packet, WR payloads from
// data, and reports how far it got; an error is worded as the failing
// command's.
func (r *Runtime) packet(ch int, pk []memctrl.Entry, data [][]byte) (memctrl.PacketRun, error) {
	pr, err := r.Chans[ch].IssuePacket(pk, data)
	if err != nil {
		return pr, fmt.Errorf("runtime: ch%d %s: %w", ch, pk[pr.Entries].Command(pr.Issued), err)
	}
	return pr, nil
}

// preA closes every bank: a packet of one, and the last entry of a
// broadcast configuration-row access.
var preA = [1]memctrl.Entry{{Kind: hbm.CmdPREA, N: 1}}

// cmdBufs is one channel's buffers for the column runs the runtime builds
// itself: wr holds a burst per CRF column for the register-space writes
// (PIM_OP_MODE, SRF, CRF words), and cols the column views of a
// WriteBankSB payload, each cut on the channel's first need (a timing-only
// stack drives one channel of many).
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
func (r *Runtime) EnterAB(ch int) error { return r.modeRow(ch, hbm.ABMRBank, nil) }

// ExitToSB performs the SBMR handshake (all banks must be precharged).
func (r *Runtime) ExitToSB(ch int) error { return r.modeRow(ch, hbm.SBMRBank, nil) }

// SetPIMMode writes PIM_OP_MODE through the mode row.
func (r *Runtime) SetPIMMode(ch int, on bool) error {
	data := r.wrBufs(ch, 1)
	clear(data[0])
	if on {
		data[0][0] = 1
	}
	return r.modeRow(ch, hbm.ABMRBank, data)
}

// modeRow opens the mode row of bank group 0's bank, writes data, if any,
// to its PIM_OP_MODE column and precharges the bank.
func (r *Runtime) modeRow(ch, bank int, data [][]byte) error {
	return r.confRun(ch, PhaseMode, bank, r.Cfg.ModeRow(), hbm.ColPIMOpMode, data,
		memctrl.Entry{Kind: hbm.CmdPRE, Bank: bank, N: 1})
}

// confRun is one configuration-row access, one packet booked once as
// phase ph: the ACT of row on bank group 0's bank, the writes to
// consecutive columns from col, write i carrying data[i] (none without
// data), then pre.
func (r *Runtime) confRun(ch int, ph KernelPhase, bank int, row, col uint32, data [][]byte, pre memctrl.Entry) error {
	start := r.Chans[ch].Now()
	pk := [3]memctrl.Entry{
		{Kind: hbm.CmdACT, Bank: bank, Row: row, N: 1},
		{Kind: hbm.CmdWR, Bank: bank, Col: col, N: len(data)},
		pre,
	}
	if _, err := r.packet(ch, pk[:], data); err != nil {
		return err
	}
	r.notePhase(ch, ph, 1, start)
	return nil
}

// ProgramCRF broadcasts a microkernel, encoded ahead of time
// (isa.EncodeProgram, which rejects an invalid instruction), into every
// unit of a channel: a kernel that launches the same program on every tile
// of every channel encodes it once. The channel must be in AB mode with
// all banks precharged. Programs longer than the CRF are rejected before
// any command issues.
func (r *Runtime) ProgramCRF(ch int, words []uint32) error {
	if len(words) > isa.CRFEntries {
		return fmt.Errorf("runtime: program of %d words overflows the %d-entry CRF",
			len(words), isa.CRFEntries)
	}
	bufs := r.wrBufs(ch, (len(words)+7)/8)
	for col, buf := range bufs {
		clear(buf)
		for i := 0; i < 8 && col*8+i < len(words); i++ {
			w := words[col*8+i]
			buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
		}
	}
	return r.confRun(ch, PhaseCRF, 0, r.Cfg.CRFRow(), 0, bufs, preA[0])
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
	srf := r.wrBufs(ch, 1)
	clear(srf[0])
	fp16.Vector(m).PutBytes(srf[0])
	fp16.Vector(a).PutBytes(srf[0][2*isa.SRFEntries:])
	return r.confRun(ch, PhaseSRF, 0, r.Cfg.SRFRow(), 0, srf, preA[0])
}

// ZeroGRF broadcasts zeros into all of GRF_B of every unit (accumulator
// reset between macro passes). AB mode, banks precharged. It always
// issues as many writes as the product's GRF has registers, to the
// register columns that end where GRF_B ends: both halves of the
// product's GRF, GRF_B alone when the halves are twice as deep.
func (r *Runtime) ZeroGRF(ch int) error {
	end := 2 * r.Cfg.GRFDepth()
	col := end - 2*isa.GRFEntries
	return r.confRun(ch, PhaseGRF, 0, r.Cfg.GRFRow(), uint32(col), r.zeros[:end-col], preA[0])
}

// Recover restores a channel to single-bank mode with every bank
// precharged. A kernel that fails mid-flight (an uncorrectable ECC word,
// an injected fault) aborts wherever the error caught it — typically
// AB-PIM mode with a weight row open — and the next launch's EnterAB
// handshake would be illegal against that state. Recover is idempotent
// and cheap on an already-clean channel: PREA, then unwind whatever mode
// the channel is still in.
func (r *Runtime) Recover(ch int) error {
	if _, err := r.packet(ch, preA[:], nil); err != nil {
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

// IssuePacket visits row on channel ch in AB-PIM mode: the row's ACT, a
// packet of one; the trigger packet pk, the AAM windows and fences of the
// visit (WR payloads from data, nil on a timing-only device); the PREA,
// a packet of one. The trigger phase is booked once, for the windows that
// issued whole, fences excluded; an error is worded as the failing
// command's.
func (r *Runtime) IssuePacket(ch int, row uint32, pk []memctrl.Entry, data [][]byte) error {
	act := [1]memctrl.Entry{{Kind: hbm.CmdACT, Row: row, N: 1}}
	if _, err := r.packet(ch, act[:], nil); err != nil {
		return err
	}
	pr, err := r.packet(ch, pk, data)
	l := &r.chs[ch].phases
	for _, e := range pk[:pr.Entries] {
		l.Count[PhaseTrigger] += int64(e.N)
	}
	l.Cycles[PhaseTrigger] += pr.Cycles
	if err != nil {
		return err
	}
	_, err = r.packet(ch, preA[:], nil)
	return err
}

// WriteBankSB writes consecutive columns col0, col0+1, ... of one bank
// row in SB mode: one packet of ACT, the column run, PRE. data holds
// AccessBytes per column, end to end.
func (r *Runtime) WriteBankSB(ch, flatBank int, row, col0 uint32, data []byte) error {
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
	_, err := r.bankRun(ch, flatBank, row, hbm.CmdWR, col0, len(cols), cols)
	clear(cols) // the views must not keep the caller's payload alive
	return err
}

// ReadBankSB reads n consecutive columns col0, col0+1, ... of one bank row
// in SB mode: one packet of ACT, the column run, PRE. It returns a fresh
// n*AccessBytes slice, the columns end to end (zeros on a timing-only
// device, which moves no data).
func (r *Runtime) ReadBankSB(ch, flatBank int, row, col0 uint32, n int) ([]byte, error) {
	read, err := r.bankRun(ch, flatBank, row, hbm.CmdRD, col0, n, nil)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n*r.Cfg.AccessBytes)
	for i, burst := range read {
		copy(out[i*r.Cfg.AccessBytes:], burst)
	}
	return out, nil
}

// bankRun issues n column commands of kind at columns col0, col0+1, ...
// of one bank row in SB mode as one packet, the row's ACT before them and
// its PRE after, command i of a WR run carrying data[i]. It returns the
// bursts a RD run read, the channel's run slots.
func (r *Runtime) bankRun(ch, flatBank int, row uint32, kind hbm.CmdKind, col0 uint32, n int, data [][]byte) ([][]byte, error) {
	bg, b := r.Cfg.BankOf(flatBank)
	pk := [3]memctrl.Entry{
		{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: row, N: 1},
		{Kind: kind, BG: bg, Bank: b, Col: col0, N: n},
		{Kind: hbm.CmdPRE, BG: bg, Bank: b, N: 1},
	}
	pr, err := r.packet(ch, pk[:], data)
	return pr.Read, err
}

// ReadGRFRowSB reads the first regs GRF registers of one half (0 = GRF_A,
// 1 = GRF_B) of every unit through the SB register space, one packet per
// unit (the GRF row's ACT, one column run, PRE), and hands each unit's
// bursts, one per register, to fold in unit order. A GEMV unloads its partial sums
// through here once per macro tile, on every channel of every launch, so
// nothing is decoded or kept: the bursts are the channel's run slots, valid
// only during the call (the next unit's run reuses them), and fold adds
// or copies what it needs. A nil fold takes none (a timing-only GEMV has
// no sums to fold): the commands issue all the same.
func (r *Runtime) ReadGRFRowSB(ch, half, regs int, fold func(unit int, bursts [][]byte)) error {
	banksPerUnit := r.Cfg.BanksPerUnit()
	col := uint32(half * r.Cfg.GRFDepth())
	for u := 0; u < r.Cfg.PIMUnits; u++ {
		read, err := r.bankRun(ch, u*banksPerUnit, r.Cfg.GRFRow(), hbm.CmdRD, col, regs, nil)
		if err != nil {
			return err
		}
		if fold != nil {
			fold(u, read)
		}
	}
	return nil
}

// Payloads returns channel ch's WR payload buffer cut as n payloads of
// AccessBytes each, for a kernel to fill and hand to IssuePacket. The
// buffer keeps what the last user wrote, grows to the longest run the
// channel has seen and is reused by every later call, so the payloads are
// valid until the channel's next Payloads call. That is safe because
// nothing downstream keeps a payload: hbm has consumed a WR's data by the
// time the run returns.
func (r *Runtime) Payloads(ch, n int) [][]byte {
	p := &r.chs[ch].payloads
	if size := r.Cfg.AccessBytes; len(*p) < n {
		buf := make([]byte, n*size)
		*p = make([][]byte, n)
		for k := range *p {
			(*p)[k] = buf[k*size : (k+1)*size : (k+1)*size]
		}
	}
	return (*p)[:n]
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

// SetGuaranteeOrder toggles the in-order PIM mode study (Section VII-B)
// on every channel.
func (r *Runtime) SetGuaranteeOrder(on bool) {
	for _, c := range r.Chans {
		c.GuaranteeOrder = on
	}
}
