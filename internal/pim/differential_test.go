package pim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/isa"
)

// The differential tests drive one command stream into two devices of the
// same configuration, one with the production Executor attached and one
// with the reference interpreter (reference_test.go). The stream is a
// sequence of trigger runs (column commands of one kind on one bank set at
// consecutive columns): the production device takes each run through
// hbm.PseudoChannel.IssueRun, one executor call and its closed-form AAM
// loops, the reference device one command at a time. After every run they
// compare everything either can be observed through: the error or its
// absence and its text, the issue cycles, the summed TriggerInfo, every
// bank access the run made (bank, column, bytes, in order), every GRF and
// SRF register of every unit, AllDone, the retirement counters and the
// channel's hbm.Stats; and, once the stream ends, the bytes of every bank.
// A run that fails ends the stream after that comparison (without the
// retirement counters: the reference counts the units before the failing
// one, the production executor every unit): what the control state is
// after a failed trigger is unspecified (see the package comment).

// diffConfigs are the device kinds the differential covers: every variant,
// functional and timing-only. The base functional device runs with the ECC
// engine on, so injected single-bit
// (corrected and scrubbed) and double-bit (uncorrectable) faults are part
// of what must match.
var diffConfigs = []struct {
	name string
	cfg  func() hbm.Config
}{
	{"base", func() hbm.Config { c := diffConfig(hbm.VariantBase, true); c.ECC = true; return c }},
	{"2x", func() hbm.Config { return diffConfig(hbm.Variant2X, true) }},
	{"srw", func() hbm.Config { return diffConfig(hbm.VariantSRW, true) }},
	{"base-timing", func() hbm.Config { return diffConfig(hbm.VariantBase, false) }},
	{"2ba-timing", func() hbm.Config { return diffConfig(hbm.Variant2BA, false) }},
	{"2ba", func() hbm.Config { return diffConfig(hbm.Variant2BA, true) }},
	{"2x-timing", func() hbm.Config { return diffConfig(hbm.Variant2X, false) }},
	{"srw-timing", func() hbm.Config { return diffConfig(hbm.VariantSRW, false) }},
}

func diffConfig(v hbm.Variant, functional bool) hbm.Config {
	c := hbm.PIMHBMVariantConfig(v, 1000)
	c.PseudoChannels = 1
	c.Functional = functional
	return c
}

const (
	diffRow  = 21 // the row every trigger of a stream addresses
	diffCols = 16 // its columns that hold random data (the rest read zero)
)

// bankEvent is one bank access a trigger made through its BankAccess.
type bankEvent struct {
	write bool
	bank  int
	col   uint32
	data  string // bytes read (after ECC) or written
	err   string
}

// tapExec wraps an executor and records what the triggers since the last
// reset did: their summed TriggerInfo, the last error and their
// data-bearing bank accesses, one event per bank read. Since it was
// attached it also counts ReadBanks calls and the views that were a
// scratch copy rather than the row itself.
type tapExec struct {
	hbm.PIMExecutor
	access hbm.BankAccess
	info   hbm.TriggerInfo
	err    error
	log    []bankEvent
	reads  int
	copies int

	// badWrite, when set, refuses a WriteBank to the bank and column it
	// reports: the write is logged with its error and reaches no cell.
	badWrite func(bank int, col uint32) bool
}

func (t *tapExec) reset() { t.info, t.err, t.log = hbm.TriggerInfo{}, nil, t.log[:0] }

func (t *tapExec) Trigger(ctx *hbm.TriggerContext) (hbm.TriggerInfo, error) {
	t.access = ctx.Access
	ctx.Access = t
	info, err := t.PIMExecutor.Trigger(ctx)
	ctx.Access = t.access
	t.info.Triggers += info.Triggers
	t.info.Instructions += info.Instructions
	t.info.Arithmetic += info.Arithmetic
	t.info.DataMoves += info.DataMoves
	t.err = err
	return info, err
}

func (t *tapExec) ReadBanks(first, stride, n int, col uint32, cols int, scratch []byte, views [][]byte) (int, error) {
	t.reads++
	read, err := t.access.ReadBanks(first, stride, n, col, cols, scratch, views)
	for k := 0; k < read; k++ {
		t.log = append(t.log, bankEvent{false, first + k%n*stride, col + uint32(k/n), string(views[k]), "<nil>"})
		if len(views[k]) > 0 && &views[k][0] == &scratch[2*fp16.Lanes*k] {
			t.copies++
		}
	}
	if err != nil {
		t.log = append(t.log, bankEvent{false, first + read%n*stride, col + uint32(read/n), "", err.Error()})
	}
	return read, err
}

func (t *tapExec) WriteBank(bank int, col uint32, data []byte) error {
	var err error
	if t.badWrite != nil && t.badWrite(bank, col) {
		err = fmt.Errorf("bank %d refuses the write", bank)
	} else {
		err = t.access.WriteBank(bank, col, data)
	}
	t.log = append(t.log, bankEvent{true, bank, col, string(data), fmt.Sprint(err)})
	return err
}

func (t *tapExec) ReplicateBankAccess(reads, writes, times int64) {
	t.access.ReplicateBankAccess(reads, writes, times)
}

// diffPair is the two devices and the clock they share.
type diffPair struct {
	t      testing.TB
	cfg    hbm.Config
	p      [2]*hbm.PseudoChannel // 0: production, 1: reference
	tap    [2]*tapExec
	exec   *Executor
	oracle *refExecutor
	now    int64
}

func newDiffPair(t testing.TB, cfg hbm.Config) *diffPair {
	t.Helper()
	d := &diffPair{t: t, cfg: cfg}
	var err error
	if d.exec, err = NewExecutor(cfg); err != nil {
		t.Fatal(err)
	}
	d.oracle = newRefExecutor(cfg)
	for i, e := range []hbm.PIMExecutor{d.exec, d.oracle} {
		dev, err := hbm.NewDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.p[i] = dev.PCH(0)
		d.tap[i] = &tapExec{PIMExecutor: e}
		d.p[i].AttachPIM(d.tap[i])
	}
	return d
}

// issue sends cmd to both devices at its earliest legal cycle and returns
// the error both reported (its text must match), fatal on any difference
// in cycle, error or returned data.
func (d *diffPair) issue(cmd hbm.Command) error {
	d.t.Helper()
	var at [2]int64
	var errs [2]error
	var data [2][]byte
	for i, p := range d.p {
		var res hbm.IssueResult
		errs[i] = p.IssueEarliest(&cmd, d.now, &res)
		at[i], data[i] = res.Cycle, res.Data
	}
	if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
		d.t.Fatalf("%s: production error %q, reference error %q", cmd, fmt.Sprint(errs[0]), fmt.Sprint(errs[1]))
	}
	if at[0] != at[1] || !bytes.Equal(data[0], data[1]) {
		d.t.Fatalf("%s: cycle %d data %x, reference cycle %d data %x", cmd, at[0], data[0], at[1], data[1])
	}
	if errs[0] == nil {
		d.now = at[0]
	}
	return errs[0]
}

func (d *diffPair) must(cmd hbm.Command) {
	d.t.Helper()
	if err := d.issue(cmd); err != nil {
		d.t.Fatalf("%s: %v", cmd, err)
	}
}

// issueRun sends a trigger run to both devices, the production one as one
// IssueRun and the reference one command at a time, each command at its
// earliest legal cycle from the previous command's cycle plus one. It
// returns how many commands issued and the error of the one after them,
// fatal on any difference in either or in an issue cycle.
func (d *diffPair) issueRun(run triggerRun) (int, error) {
	d.t.Helper()
	for _, tap := range d.tap {
		tap.reset()
	}
	var r hbm.Run
	err := d.p[0].IssueRun(&hbm.Command{Kind: run.kind, Bank: run.bank, Col: run.col}, run.n, run.data, d.now, math.MaxInt64, &r)
	var got []int64
	for i := 0; i < r.N; i++ {
		got = append(got, r.Cycle(i))
	}
	var want []int64
	var refErr error
	for i, now := 0, d.now; i < run.n; i++ {
		cmd := run.command(i)
		var res hbm.IssueResult
		if err := d.p[1].IssueEarliest(&cmd, now, &res); err != nil {
			refErr = err
			break
		}
		want = append(want, res.Cycle)
		now = res.Cycle + 1
	}
	if fmt.Sprint(err) != fmt.Sprint(refErr) || !slices.Equal(got, want) {
		d.t.Fatalf("%s: production cycles %v error %q, reference cycles %v error %q", run, got, fmt.Sprint(err), want, fmt.Sprint(refErr))
	}
	if len(got) > 0 {
		d.now = got[len(got)-1] + 1
	}
	return len(got), err
}

func (d *diffPair) modeHandshake(bank int) {
	d.must(hbm.Command{Kind: hbm.CmdACT, Bank: bank, Row: d.cfg.ModeRow()})
	d.must(hbm.Command{Kind: hbm.CmdPRE, Bank: bank})
}

func (d *diffPair) setPIMOp(on bool) {
	data := make([]byte, 32)
	if on {
		data[0] = 1
	}
	d.must(hbm.Command{Kind: hbm.CmdACT, Bank: hbm.ABMRBank, Row: d.cfg.ModeRow()})
	d.must(hbm.Command{Kind: hbm.CmdWR, Bank: hbm.ABMRBank, Col: hbm.ColPIMOpMode, Data: data})
	d.must(hbm.Command{Kind: hbm.CmdPRE, Bank: hbm.ABMRBank})
}

// writeRegRow broadcasts blocks into a register-space row (AB mode).
func (d *diffPair) writeRegRow(row uint32, blocks [][]byte) {
	d.must(hbm.Command{Kind: hbm.CmdACT, Row: row})
	for col, b := range blocks {
		d.must(hbm.Command{Kind: hbm.CmdWR, Col: uint32(col), Data: b})
	}
	d.must(hbm.Command{Kind: hbm.CmdPREA})
}

func randBlocks(rng *rand.Rand, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 32)
		rng.Read(out[i])
	}
	return out
}

// setup fills the stream's row of every bank and every register with
// random bits (any FP16 pattern: NaNs, infinities and subnormals
// included), plants the fault (see plantFault) or, where the device has
// ECC and there is none, a few random bit errors, programs the CRF with
// words and leaves both devices in AB-PIM mode with the row open.
func (d *diffPair) setup(rng *rand.Rand, words []uint32, fault uint16) {
	cfg := d.cfg
	if cfg.Functional {
		for flat := 0; flat < cfg.Banks(); flat++ {
			bg, b := cfg.BankOf(flat)
			d.must(hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: diffRow})
			for col, blk := range randBlocks(rng, diffCols) {
				d.must(hbm.Command{Kind: hbm.CmdWR, BG: bg, Bank: b, Col: uint32(col), Data: blk})
			}
			d.must(hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b})
		}
		for n := rng.Intn(4); cfg.ECC && fault == 0 && n > 0; n-- {
			bit := rng.Intn(256)
			bits := []int{bit}
			if rng.Intn(3) == 0 {
				bits = append(bits, bit^1) // same 64-bit word: uncorrectable
			}
			d.flipBits(rng.Intn(cfg.Banks()), uint32(rng.Intn(diffCols)), bits...)
		}
		d.plantFault(fault)
	}
	d.modeHandshake(hbm.ABMRBank)
	if cfg.Functional {
		d.writeRegRow(cfg.GRFRow(), randBlocks(rng, 2*cfg.GRFDepth()))
		d.writeRegRow(cfg.SRFRow(), randBlocks(rng, 1))
	}
	crf := make([][]byte, isa.CRFEntries/8)
	for col := range crf {
		crf[col] = make([]byte, 32)
		for i := 0; i < 8 && col*8+i < len(words); i++ {
			binary.LittleEndian.PutUint32(crf[col][4*i:], words[col*8+i])
		}
	}
	d.writeRegRow(cfg.CRFRow(), crf)
	d.setPIMOp(true)
	d.must(hbm.Command{Kind: hbm.CmdACT, Row: diffRow})
}

// flipBits flips stored bits of block (flat bank, col) of the stream's row
// on both devices.
func (d *diffPair) flipBits(flat int, col uint32, bits ...int) {
	bg, b := d.cfg.BankOf(flat)
	for _, p := range d.p {
		for _, bit := range bits {
			if err := p.InjectBitError(bg, b, diffRow, col, bit); err != nil {
				d.t.Fatal(err)
			}
		}
	}
}

// plantFault arms a fault at block (bank, col) of the stream's row, bank
// being bits 4-7 of fault (a flat bank index) and col bits 0-3; zero plants
// none. With bit 15 clear it is a double-bit error, uncorrectable where
// the device has ECC; with bit 15 set, both devices refuse a bank write
// there.
func (d *diffPair) plantFault(fault uint16) {
	if fault == 0 {
		return
	}
	bank, col := int(fault>>4&15)%d.cfg.Banks(), uint32(fault&15)
	if fault&0x8000 != 0 {
		for _, tap := range d.tap {
			tap.badWrite = func(b int, c uint32) bool { return b == bank && c == col }
		}
		return
	}
	d.flipBits(bank, col, 8, 9)
}

// upcoming walks the reference's control state, without changing it, over
// the next m command slots and returns the instruction each slot executes:
// nil for an idle NOP slot, after EXIT, or at a control error. It only
// steers run generation: what it returns decides nothing about
// correctness.
func (d *diffPair) upcoming(m int) []*isa.Instruction {
	u := d.oracle.units[0]
	ppc, left, armed, nop, done := u.ppc, u.jumpLeft, u.jumpArmed, u.nopLeft, u.done
	out := make([]*isa.Instruction, m)
	for i := range out {
		if nop > 0 {
			nop--
			continue
		}
		for hops := 0; !done; hops++ {
			if hops > 2*isa.CRFEntries || ppc < 0 || ppc >= isa.CRFEntries {
				done = true
				break
			}
			in, err := isa.Decode(u.crf[ppc])
			if err != nil || in.Op == isa.EXIT {
				done = true
				break
			}
			if in.Op == isa.JUMP {
				n := int32(in.Imm0)
				if armed[ppc] {
					n = left[ppc]
				}
				if n > 0 {
					armed[ppc], left[ppc] = true, n-1
					ppc -= int(in.Imm1)
				} else {
					armed[ppc] = false
					ppc++
				}
				continue
			}
			ppc++
			if in.Op == isa.NOP {
				nop = int(in.Imm0)
			} else {
				out[i] = &in
			}
			break
		}
	}
	return out
}

// triggerRun is one run of a stream: n column commands of one kind on one
// bank set at consecutive columns, command i carrying data[i] (nil data:
// no payloads).
type triggerRun struct {
	kind hbm.CmdKind
	bank int
	col  uint32
	n    int
	data [][]byte
}

func (r triggerRun) command(i int) hbm.Command {
	cmd := hbm.Command{Kind: r.kind, Bank: r.bank, Col: r.col + uint32(i)}
	if r.data != nil {
		cmd.Data = r.data[i]
	}
	return cmd
}

func (r triggerRun) String() string {
	return fmt.Sprintf("%d x %s bank %d from col %d", r.n, r.kind, r.bank, r.col)
}

// fits reports whether a command of kind on bank set bank lets in execute
// without a bank-set or command-kind error, as far as the stream bends its
// runs: a MOV to a bank needs a WR on its bank set, a bank operand its
// bank set and, for arithmetic on a device without the WR operand path, a
// RD.
func (d *diffPair) fits(in *isa.Instruction, kind hbm.CmdKind, bank int) bool {
	src := in.Src0
	if in.Op.IsArith() && in.Src1.IsBank() {
		src = in.Src1
	}
	switch {
	case in.Dst.IsBank():
		return kind == hbm.CmdWR && bank == int(in.Dst-isa.EvenBank)
	case src.IsBank():
		return bank == int(src-isa.EvenBank) && (in.Op.IsData() || d.cfg.WROperand() || kind == hbm.CmdRD)
	}
	return true
}

// run decodes four stream bytes into a trigger run. Bit 0 of b0 asks for
// WRs, bit 1 for the odd banks, bits 2-3 pick the payloads (full, full,
// short, none; with bit 0 of b2 set the pick rotates along the run); b1 is
// the first column, b2 seeds the payload bytes and b3 the length, 1 to
// twice the AAM window. Unless bits 4-6 of b0 are all clear (one run in
// eight), kind and bank set are then bent to what the run's first
// instruction needs, and the run ends before the first instruction that
// needs otherwise and at the end of the row, so that streams run deep
// instead of dying on the first mismatch.
func (d *diffPair) run(b0, b1, b2, b3 byte) triggerRun {
	cols := d.cfg.ColumnsPerRow()
	r := triggerRun{kind: hbm.CmdRD, bank: int(b0>>1) & 1, col: uint32(int(b1) % cols), n: 1 + int(b3)%(2*d.cfg.GRFDepth())}
	if b0&1 != 0 {
		r.kind = hbm.CmdWR
	}
	if b0&0x70 != 0 {
		r.n = min(r.n, cols-int(r.col))
		plan := d.upcoming(r.n)
		if in := plan[0]; in != nil {
			bank := in.Src0
			if in.Op.IsArith() && in.Src1.IsBank() {
				bank = in.Src1
			}
			switch {
			case in.Dst.IsBank():
				r.kind, r.bank = hbm.CmdWR, int(in.Dst-isa.EvenBank)
			case bank.IsBank():
				r.bank = int(bank - isa.EvenBank)
				if !(in.Op.IsData() || d.cfg.WROperand()) {
					r.kind = hbm.CmdRD
				}
			}
		}
		for i, in := range plan {
			if in != nil && !d.fits(in, r.kind, r.bank) && i > 0 {
				r.n = i
				break
			}
		}
	}
	if r.kind == hbm.CmdWR && d.cfg.Functional {
		r.data = make([][]byte, r.n)
		for i := range r.data {
			payload := make([]byte, 32)
			for j, x := 0, uint32(b2)+977*uint32(i); j < len(payload); j++ {
				x = x*1664525 + 1013904223 // an LCG: any bits will do
				payload[j] = byte(x >> 24)
			}
			pick := int(b0 >> 2 & 3)
			if b2&1 != 0 {
				pick = (pick + i) & 3
			}
			r.data[i] = payload[:[4]int{32, 32, 16, 0}[pick]]
		}
	}
	return r
}

// event carries out the host action a stream group with b0 = 0x80|op
// stands for (one group in 64 of a random stream) between two runs, on
// both devices:
//
//	op 0: leave and re-enter AB-PIM mode, which rewinds the PPC (ResetPPC);
//	op 1: rewrite one CRF column in place, mid-program;
//	op 2: leave to SB mode, write one unit's CRF column alone (the units
//	      leave lock step unless the words stay the same), re-enter;
//	op 3: op 1, then re-enter.
//
// The column is b1%4, and its slot b2%8 takes the word in slot b3%32 of
// the written unit's CRF (the same words when that is the slot itself);
// b1>>2 picks the bank whose unit an SB write reaches.
func (d *diffPair) event(b0, b1, b2, b3 byte) {
	cfg, op, col := d.cfg, b0&3, uint32(b1%4)
	flat := int(b1>>2) % cfg.Banks()
	bg, b := cfg.BankOf(flat)
	unit := 0
	if op == 2 {
		unit = flat / cfg.BanksPerUnit()
	}
	crf := &d.oracle.units[unit].crf
	block := make([]byte, 32)
	for i := range 8 {
		w := crf[int(col)*8+i]
		if i == int(b2%8) {
			w = crf[b3%isa.CRFEntries]
		}
		binary.LittleEndian.PutUint32(block[4*i:], w)
	}
	d.must(hbm.Command{Kind: hbm.CmdPREA})
	switch op {
	case 1, 3:
		d.must(hbm.Command{Kind: hbm.CmdACT, Row: cfg.CRFRow()})
		d.must(hbm.Command{Kind: hbm.CmdWR, Col: col, Data: block})
		d.must(hbm.Command{Kind: hbm.CmdPREA})
	case 2:
		d.setPIMOp(false)
		d.modeHandshake(hbm.SBMRBank)
		d.must(hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: cfg.CRFRow()})
		d.must(hbm.Command{Kind: hbm.CmdWR, BG: bg, Bank: b, Col: col, Data: block})
		d.must(hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b})
		d.modeHandshake(hbm.ABMRBank)
	}
	if op != 1 {
		if op != 2 {
			d.setPIMOp(false)
		}
		d.setPIMOp(true)
	}
	d.must(hbm.Command{Kind: hbm.CmdACT, Row: diffRow})
}

// diffCoverage accumulates what a set of runs exercised: triggers
// compared, instructions retired per opcode (the reference's count, failed
// trigger included), the data-path forms of the compared triggers (see
// dataForm), the forms of the AAM loop steps the production executor ran
// in closed form (see loopForms), the errors streams ended in, and those
// of them a run met after its first command.
type diffCoverage struct {
	triggers int
	ops      [isa.NumOpcodes]int64
	forms    map[string]int
	loops    map[string]int
	errors   map[string]bool
	midRun   map[string]bool
}

func newDiffCoverage() *diffCoverage {
	return &diffCoverage{forms: map[string]int{}, loops: map[string]int{}, errors: map[string]bool{}, midRun: map[string]bool{}}
}

// dataForm names the form of the data step a functional trigger cmd runs
// for instruction in: where the result goes, where each operand comes
// from (a bank operand in either position, or none), which operation. It
// is worked out from the instruction and the command alone, so it checks
// the production data step rather than repeating it.
func dataForm(in *isa.Instruction, cmd hbm.Command) string {
	src := func(s isa.Src) string {
		switch {
		case s.IsBank() && cmd.Kind == hbm.CmdWR:
			return "payload"
		case s.IsBank():
			return "bank"
		case s.IsGRF():
			return "GRF"
		}
		return s.String()
	}
	relu := map[bool]string{false: "", true: " relu"}[in.ReLU]
	switch {
	case in.Dst.IsBank():
		return "MOV GRF->bank" + relu
	case in.Op.IsData():
		dst := "GRF"
		if !in.Dst.IsGRF() {
			dst = in.Dst.String()
		}
		return fmt.Sprintf("%s %s->%s%s", in.Op, src(in.Src0), dst, relu)
	}
	switch {
	case in.Src0.IsBank():
		return fmt.Sprintf("%s bank SRC0", in.Op)
	case in.Src1.IsBank():
		return fmt.Sprintf("%s bank SRC1", in.Op)
	}
	return fmt.Sprintf("%s registers", in.Op)
}

// forwards reports whether cmd makes in forward its WR payload into SRC0
// first (the SRW variant's simultaneous read/write).
func forwards(cfg hbm.Config, in *isa.Instruction, cmd hbm.Command) bool {
	return cfg.WROperand() && in.Op.IsArith() && in.Src0.IsGRF() && cmd.Kind == hbm.CmdWR && len(cmd.Data) >= 2*fp16.Lanes
}

// wantForms are the data-path forms every functional device kind of the
// differential must compare at least once; "SRW forward" only where the
// device has the simultaneous read/write datapath.
func wantForms(cfg hbm.Config) []string {
	forms := []string{
		"MOV bank->GRF", "MOV bank->GRF relu", "MOV payload->GRF", "MOV payload->GRF relu",
		"MOV GRF->GRF", "MOV GRF->GRF relu", "MOV GRF->bank", "MOV GRF->bank relu",
		"FILL bank->GRF", "FILL bank->SRF_M", "FILL bank->SRF_A",
		"FILL payload->GRF", "FILL payload->SRF_M", "FILL payload->SRF_A",
	}
	for _, op := range []isa.Opcode{isa.ADD, isa.MUL, isa.MAC, isa.MAD} {
		for _, f := range []string{"bank SRC0", "bank SRC1", "registers"} {
			forms = append(forms, op.String()+" "+f)
		}
	}
	if cfg.WROperand() {
		forms = append(forms, "SRW forward")
	}
	return forms
}

// loopForms names what a closed-form step of in under commands of kind
// exercised: the data-path form of a move (see dataForm), and for an
// arithmetic instruction its bank operand and its SRF operand, each a form
// of its own.
func loopForms(in *isa.Instruction, kind hbm.CmdKind) []string {
	if !in.Op.IsArith() {
		return []string{dataForm(in, hbm.Command{Kind: kind})}
	}
	var forms []string
	if in.Src0.IsBank() || in.Src1.IsBank() {
		forms = append(forms, in.Op.String()+" bank")
	}
	if in.Src0.IsSRF() || in.Src1.IsSRF() {
		forms = append(forms, in.Op.String()+" SRF")
	}
	return forms
}

// wantLoopForms are the closed forms every device kind of the differential
// must run at least once.
func wantLoopForms() []string {
	forms := []string{"MOV payload->GRF", "MOV bank->GRF", "MOV GRF->GRF", "MOV GRF->bank relu"}
	for _, op := range []isa.Opcode{isa.ADD, isa.MUL, isa.MAC, isa.MAD} {
		forms = append(forms, op.String()+" bank", op.String()+" SRF")
	}
	return forms
}

// runDifferential runs one program under one stream of trigger runs on
// both devices. seed drives the bank, register and fault setup, fault
// plants one (see plantFault).
func runDifferential(t testing.TB, cfg hbm.Config, seed int64, words []uint32, stream []byte, fault uint16, cov *diffCoverage) {
	t.Helper()
	d := newDiffPair(t, cfg)
	d.setup(rand.New(rand.NewSource(seed)), words, fault)
	if cov != nil {
		d.exec.loopHook = func(in *isa.Instruction, kind hbm.CmdKind, _ int) {
			for _, f := range loopForms(in, kind) {
				cov.loops[f]++
			}
		}
	}
	fail := func(run triggerRun, format string, args ...any) {
		t.Helper()
		prog, _ := isa.DecodeProgram(words)
		t.Fatalf("run %s of seed %d, fault %#x: %s\nprogram:\n%s",
			run, seed, fault, fmt.Sprintf(format, args...), isa.FormatProgram(prog))
	}
	defer func() {
		if ops, _ := d.oracle.opCounts(); cov != nil {
			for op, n := range ops {
				cov.ops[op] += n
			}
		}
	}()
	for i := 0; i+4 <= len(stream); i += 4 {
		if stream[i]&0xfc == 0x80 {
			d.event(stream[i], stream[i+1], stream[i+2], stream[i+3])
			continue
		}
		run := d.run(stream[i], stream[i+1], stream[i+2], stream[i+3])
		plan := d.upcoming(run.n)
		reads := d.tap[0].reads
		issued, err := d.issueRun(run)
		reached := issued // the triggers that reached the executor, at most
		if err != nil {
			reached++
		}
		if d.tap[0].reads-reads > reached {
			fail(run, "%d ReadBanks calls for %d triggers, want at most one a trigger", d.tap[0].reads-reads, reached)
		}
		prodErr, refErr := fmt.Sprint(d.tap[0].err), fmt.Sprint(d.tap[1].err)
		if prodErr != refErr {
			fail(run, "production error %q, reference error %q", prodErr, refErr)
		}
		if err != nil && cov != nil {
			cov.errors[err.Error()] = true
			if issued > 0 {
				cov.midRun[err.Error()] = true
			}
		}
		// A failed bank access stops both executors at its unit. Any other
		// error names unit 0, where the reference stops, while the control
		// walk that follows an instruction fails after the production
		// executor has run every unit's data step: the stream ends there,
		// with the errors compared.
		if err != nil && !errors.As(err, new(*hbm.UncorrectableError)) && !strings.Contains(err.Error(), "refuses the write") {
			return
		}
		if cfg.Functional {
			if !slices.Equal(d.tap[0].log, d.tap[1].log) {
				fail(run, "bank accesses\n%q\nreference\n%q", d.tap[0].log, d.tap[1].log)
			}
			d.compareRegisters(func(format string, args ...any) { t.Helper(); fail(run, format, args...) })
		}
		if d.p[0].Stats() != d.p[1].Stats() {
			fail(run, "stats %+v, reference %+v", d.p[0].Stats(), d.p[1].Stats())
		}
		if err != nil {
			break // to the bank bytes
		}
		if d.tap[0].info != d.tap[1].info {
			fail(run, "TriggerInfo %+v, reference %+v", d.tap[0].info, d.tap[1].info)
		}
		ops, aam := d.oracle.opCounts()
		if d.exec.OpCountsArray() != ops || d.exec.AAMInstructions() != aam || d.exec.AllDone() != d.oracle.allDone() {
			fail(run, "retired %v aam %d done %v, reference %v aam %d done %v",
				d.exec.OpCountsArray(), d.exec.AAMInstructions(), d.exec.AllDone(), ops, aam, d.oracle.allDone())
		}
		if cov != nil {
			cov.triggers += run.n
			for k, in := range plan {
				if in != nil {
					cov.forms[dataForm(in, run.command(k))]++
					if forwards(cfg, in, run.command(k)) {
						cov.forms["SRW forward"]++
					}
				}
			}
		}
	}
	if !cfg.Functional {
		return
	}
	// Bank bytes: leave PIM mode and read the row back bank by bank; issue
	// compares what the two devices return (uncorrectable blocks included,
	// as their error).
	d.must(hbm.Command{Kind: hbm.CmdPREA})
	d.setPIMOp(false)
	d.modeHandshake(hbm.SBMRBank)
	for flat := 0; flat < cfg.Banks(); flat++ {
		bg, b := cfg.BankOf(flat)
		d.must(hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: diffRow})
		for col := 0; col < cfg.ColumnsPerRow(); col++ {
			_ = d.issue(hbm.Command{Kind: hbm.CmdRD, BG: bg, Bank: b, Col: uint32(col)})
		}
		d.must(hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b})
	}
}

// compareRegisters fails unless every GRF and SRF register of every unit
// holds the same bits on both executors.
func (d *diffPair) compareRegisters(fail func(format string, args ...any)) {
	for u, ref := range d.oracle.units {
		got := d.exec.Unit(u)
		for r := 0; r < d.cfg.GRFDepth(); r++ {
			gotA, gotB := asBits(got.GRF(0, r)), asBits(got.GRF(1, r))
			if !slices.Equal(gotA, asBits(ref.grfA[r])) || !slices.Equal(gotB, asBits(ref.grfB[r])) {
				fail("unit %d GRF_A[%d] %04x GRF_B[%d] %04x, reference %04x and %04x",
					u, r, gotA, r, gotB, asBits(ref.grfA[r]), asBits(ref.grfB[r]))
			}
		}
		gotSRF, refSRF := asBits(fp16.VectorFromBytes(got.srf)), append(asBits(ref.srfM), asBits(ref.srfA)...)
		if !slices.Equal(gotSRF, refSRF) {
			fail("unit %d SRF_M:SRF_A %04x, reference %04x", u, gotSRF, refSRF)
		}
	}
}

func asBits[T ~uint16](v []T) []uint16 {
	out := make([]uint16, len(v))
	for i, x := range v {
		out[i] = uint16(x)
	}
	return out
}

// randProgram generates a legal microkernel over all nine opcodes: data
// and arithmetic instructions with random operands (AAM on or off, ReLU),
// JUMPs (nested where two land on overlapping bodies), multi-cycle NOPs,
// an occasional early EXIT and, nine times in ten, a final one.
func randProgram(rng *rand.Rand) []isa.Instruction {
	var prog []isa.Instruction
	for n := 1 + rng.Intn(12); len(prog) < n; {
		switch r := rng.Intn(100); {
		case r < 18 && len(prog) > 0:
			prog = append(prog, isa.Jump(rng.Intn(4), 1+rng.Intn(min(len(prog), 4))))
		case r < 26:
			prog = append(prog, isa.NopCycles(rng.Intn(4)))
		case r < 29:
			prog = append(prog, isa.Exit())
		default:
			in := isa.Instruction{
				Op:  []isa.Opcode{isa.MOV, isa.FILL, isa.ADD, isa.MUL, isa.MAC, isa.MAD}[rng.Intn(6)],
				Dst: isa.Src(rng.Intn(6)), Src0: isa.Src(rng.Intn(6)), Src1: isa.Src(rng.Intn(6)),
				AAM: rng.Intn(2) == 0, ReLU: rng.Intn(8) == 0,
			}
			if !in.AAM {
				for _, f := range []struct {
					s   isa.Src
					idx *uint8
				}{{in.Dst, &in.DstIdx}, {in.Src0, &in.Src0Idx}, {in.Src1, &in.Src1Idx}} {
					if !f.s.IsBank() {
						*f.idx = uint8(rng.Intn(8))
					}
				}
			}
			if in.Op.IsData() {
				in.Src1, in.Src1Idx = 0, 0
			}
			if _, err := isa.Encode(in); err == nil {
				prog = append(prog, in)
			}
		}
	}
	if rng.Intn(10) > 0 {
		prog = append(prog, isa.Exit())
	}
	return prog
}

func randStream(rng *rand.Rand) []byte {
	stream := make([]byte, 4*(1+rng.Intn(24)))
	rng.Read(stream)
	return stream
}

// fixedKernels are the differential's fixed inputs and the fuzz target's
// seed corpus: the microkernels internal/blas emits (gemvProgram,
// eltProgram; the LSTM cell is the GEMV kernel twice) with small loop
// counts, one pass over the data-path forms generated programs reach
// rarely (wantForms), a JUMP-only loop, the one control error generated
// programs do not reach, an AAM loop of every closed form (wantLoopForms),
// and the sequencer's edges, each under a stream of its own (edgeRun,
// edgeEvent): a run that starts mid-loop, runs across an outer JUMP, a
// multi-cycle NOP that counts down across run boundaries, nested 127 x 127
// loops, a trigger after EXIT, CRF rewrites mid-program, an AB-PIM
// re-entry (ResetPPC) mid-loop and single-unit CRF writes, the last one
// leaving the units out of lock step. wr starts the stream of a kernel
// without one of its own with WR runs.
var fixedKernels = []struct {
	name   string
	wr     bool
	src    string
	stream []byte
	seed   int64 // of the setup (see runDifferential), when not the kernel's index
}{
	{name: "gemv", wr: true, src: `
		MOV(AAM) GRF_A, EVEN_BANK
		JUMP -1, 7
		MAC(AAM) GRF_B, GRF_A, EVEN_BANK
		JUMP -1, 7
		JUMP -4, 2
		EXIT`},
	{name: "gemv-srw", wr: true, src: `
		MAC(AAM) GRF_B, GRF_A, EVEN_BANK
		JUMP -1, 7
		JUMP -2, 2
		EXIT`},
	{name: "add", src: `
		MOV(AAM) GRF_A, EVEN_BANK
		JUMP -1, 7
		ADD(AAM) GRF_A, GRF_A, ODD_BANK
		JUMP -1, 7
		MOV(AAM) ODD_BANK, GRF_A
		JUMP -1, 7
		JUMP -6, 1
		JUMP -7, 1
		EXIT`},
	{name: "mul-2ba", src: `
		MUL(AAM) GRF_A, GRF_A, ODD_BANK
		JUMP -1, 7
		MOV(AAM) ODD_BANK, GRF_A
		JUMP -1, 7
		JUMP -4, 1
		JUMP -5, 1
		EXIT`},
	{name: "relu", src: `
		MOV(AAM_RELU) GRF_A, EVEN_BANK
		JUMP -1, 7
		MOV(AAM) ODD_BANK, GRF_A
		JUMP -1, 7
		JUMP -4, 1
		JUMP -5, 1
		EXIT`},
	{name: "bn", src: `
		MAD(AAM) GRF_A, EVEN_BANK, SRF_M
		JUMP -1, 7
		MOV(AAM) ODD_BANK, GRF_A
		JUMP -1, 7
		JUMP -4, 1
		JUMP -5, 1
		EXIT`},
	{name: "rare-forms", src: `
		FILL SRF_A[0], EVEN_BANK
		MUL GRF_A[1], EVEN_BANK, SRF_M[2]
		MAD GRF_B[0], GRF_A[0], ODD_BANK
		MOV(RELU) ODD_BANK, GRF_A[1]
		ADD GRF_A[2], EVEN_BANK, SRF_A[3]
		EXIT`},
	{name: "livelock", src: `
		MOV GRF_A[0], GRF_B[0]
		JUMP -1, 0
		JUMP -1, 127
		EXIT`},
	{name: "loops", src: `
		FILL SRF_M[0], EVEN_BANK
		MOV(AAM) GRF_A, EVEN_BANK
		JUMP -1, 7
		MOV(AAM) GRF_B, GRF_A
		JUMP -1, 7
		ADD(AAM) GRF_B, GRF_A, EVEN_BANK
		JUMP -1, 7
		ADD(AAM) GRF_A, GRF_B, SRF_A
		JUMP -1, 7
		MUL(AAM) GRF_B, EVEN_BANK, SRF_M
		JUMP -1, 7
		MAC(AAM) GRF_B, GRF_A, SRF_M
		JUMP -1, 7
		MAC(AAM) GRF_A, EVEN_BANK, GRF_B
		JUMP -1, 7
		MAD(AAM) GRF_A, EVEN_BANK, SRF_M
		JUMP -1, 7
		MOV(AAM_RELU) ODD_BANK, GRF_A
		JUMP -1, 7
		EXIT`},
	{name: "mid-loop", seed: edgeSeed, src: gemvSrc, stream: edgeStream(
		edgeRun(true, 0, 3), edgeRun(true, 3, 5), edgeRun(false, 0, 2), edgeRun(false, 2, 6),
		edgeRun(true, 5, 8), edgeRun(true, 0, 5), edgeRun(false, 1, 7), edgeRun(false, 0, 1),
		edgeRun(true, 0, 8), edgeRun(false, 6, 4), edgeRun(false, 2, 4))},
	{name: "outer-jump", seed: edgeSeed, src: `
		MAC(AAM) GRF_B, GRF_A, EVEN_BANK
		JUMP -1, 7
		MOV(AAM) GRF_A, EVEN_BANK
		JUMP -1, 3
		JUMP -4, 5
		EXIT`, stream: edgeStream(
		edgeRun(false, 0, 16), edgeRun(false, 4, 13), edgeRun(false, 1, 16), edgeRun(false, 17, 14),
		edgeRun(false, 3, 16), edgeRun(false, 0, 9))},
	{name: "nop-across", seed: edgeSeed, src: `
		MOV(AAM) GRF_A, EVEN_BANK
		NOP 5
		ADD GRF_B[0], GRF_A[0], GRF_B[1]
		JUMP -3, 6
		EXIT`, stream: edgeStream(
		edgeRun(false, 0, 3), edgeRun(false, 3, 4), edgeRun(false, 7, 2), edgeRun(false, 9, 5),
		edgeRun(false, 14, 1), edgeRun(false, 15, 7), edgeRun(false, 22, 3), edgeRun(false, 25, 6),
		edgeRun(false, 0, 16), edgeRun(false, 16, 11))},
	{name: "nested-127", seed: edgeSeed, src: `
		MAC(AAM) GRF_B, GRF_A, EVEN_BANK
		JUMP -1, 127
		NOP 3
		JUMP -3, 127
		EXIT`, stream: bytes.Repeat(edgeStream(
		edgeRun(false, 0, 16), edgeRun(false, 16, 16), edgeRun(false, 3, 13), edgeRun(false, 5, 16)), 9)},
	{name: "after-exit", seed: edgeSeed, src: `
		MOV GRF_A[0], GRF_B[0]
		MAC(AAM) GRF_B, GRF_A, EVEN_BANK
		JUMP -1, 2
		EXIT`, stream: edgeStream(edgeRun(false, 0, 1), edgeRun(false, 0, 3), edgeRun(false, 3, 1))},
	{name: "crf-rewrite", seed: edgeSeed, src: gemvSrc, stream: edgeStream(
		edgeRun(true, 0, 5), edgeEvent(1, 0, 1, 1), edgeRun(true, 5, 3), edgeRun(false, 0, 4),
		edgeEvent(1, 0, 2, 0), edgeRun(false, 4, 4), edgeRun(true, 0, 8),
		edgeEvent(1, 0, 4, 5), edgeRun(false, 0, 8), edgeRun(false, 0, 1))},
	{name: "reset-mid-loop", seed: edgeSeed, src: gemvSrc, stream: edgeStream(
		edgeRun(true, 0, 3), edgeEvent(0, 0, 0, 0), edgeRun(true, 0, 8), edgeRun(false, 0, 5),
		edgeEvent(3, 0, 0, 0), edgeRun(true, 0, 8), edgeRun(false, 0, 8), edgeRun(true, 0, 6),
		edgeEvent(0, 0, 0, 0), edgeRun(true, 0, 8), edgeRun(false, 0, 8), edgeRun(true, 0, 8))},
	{name: "sb-crf-write", seed: edgeSeed, src: gemvSrc, stream: edgeStream(
		edgeRun(true, 0, 8), edgeEvent(2, 6<<2, 1, 1), edgeRun(true, 0, 8), edgeRun(false, 0, 8),
		edgeEvent(2, 6<<2, 2, 0), edgeRun(true, 0, 8))},
}

// edgeSeed is the setup seed of the edge streams: on the ECC device it
// plants no bit error, so that every stream runs to the edge it is for.
const edgeSeed = 7

// gemvSrc is the GEMV microkernel the edge streams walk: an input loop of
// 8 WR-captured moves, a MAC loop of 8 and three passes of both.
const gemvSrc = `
	MOV(AAM) GRF_A, EVEN_BANK
	JUMP -1, 7
	MAC(AAM) GRF_B, GRF_A, EVEN_BANK
	JUMP -1, 7
	JUMP -4, 2
	EXIT`

// edgeRun is a stream group for a run of n WR or RD commands from column
// col, bent to the program (see (*diffPair).run), with full payloads.
func edgeRun(wr bool, col, n int) []byte {
	b0 := byte(0x10)
	if wr {
		b0 |= 1
	}
	return []byte{b0, byte(col), byte(2 * n), byte(n - 1)}
}

// edgeEvent is a stream group for host event op (see (*diffPair).event).
func edgeEvent(op, b1, b2, b3 byte) []byte { return []byte{0x80 | op, b1, b2, b3} }

func edgeStream(groups ...[]byte) []byte { return slices.Concat(groups...) }

// faultCases are fixed kernels under a planted fault (plantFault) that
// fails a run after its first command, on the device kinds that can have
// it: a double-bit error under unit 5's operand of the MAC loop's fourth
// trigger (ECC), and a refused write of unit 5's result in the store
// loop's third trigger.
var faultCases = []struct {
	kernel string
	fault  uint16
	ecc    bool // the device kind needs ECC, not only data
}{
	{"gemv", 10<<4 | 3, true},
	{"add", 0x8000 | 11<<4 | 2, false},
}

// kernelStream is a stream that follows whatever the program asks for:
// runs of lengths up to twice the AAM window whose columns walk it, WRs
// first where wr is set, long enough to run the kernels above to their
// EXIT and past it within a run.
func kernelStream(wr bool) []byte {
	b0 := byte(0x10)
	if wr {
		b0 |= 1
	}
	var stream []byte
	for i, col := 0, 0; i < 40; i++ {
		n := []int{8, 16, 5, 11, 1, 3, 8, 2, 13, 7}[i%10]
		stream = append(stream, b0, byte(col), byte(i), byte(n-1))
		col = (col + n) % 8
	}
	return stream
}

// kernel returns the fixed kernel named name: its setup seed, words and
// stream.
func kernel(t testing.TB, name string) (int64, []uint32, []byte) {
	t.Helper()
	for i, k := range fixedKernels {
		if k.name == name {
			seed, stream := k.seed, k.stream
			if seed == 0 {
				seed = int64(i)
			}
			if stream == nil {
				stream = kernelStream(k.wr)
			}
			return seed, encodeWords(t, mustAssemble(t, k.src)), stream
		}
	}
	t.Fatalf("no fixed kernel %q", name)
	return 0, nil, nil
}

func encodeWords(t testing.TB, prog []isa.Instruction) []uint32 {
	t.Helper()
	words, err := isa.EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	return words
}

// TestTriggerDifferential is the seeded table: the blas microkernels,
// the fault cases and generated programs under generated streams of
// trigger runs, on every device kind of diffConfigs. It also checks that
// the table still reaches what it is for: all nine opcodes retired, every
// closed form of an AAM loop run, streams that run deep, and the error
// classes a stream can end in, at a run's first command or after it.
func TestTriggerDifferential(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 100
	}
	for _, dc := range diffConfigs {
		t.Run(dc.name, func(t *testing.T) {
			cfg := dc.cfg()
			cov := newDiffCoverage()
			for _, k := range fixedKernels {
				seed, words, stream := kernel(t, k.name)
				runDifferential(t, cfg, seed, words, stream, 0, cov)
			}
			for _, fc := range faultCases {
				if cfg.Functional && (cfg.ECC || !fc.ecc) {
					seed, words, stream := kernel(t, fc.kernel)
					runDifferential(t, cfg, seed, words, stream, fc.fault, cov)
				}
			}
			for seed := int64(0); seed < int64(seeds); seed++ {
				rng := rand.New(rand.NewSource(seed))
				words := encodeWords(t, randProgram(rng))
				runDifferential(t, cfg, seed, words, randStream(rng), 0, cov)
			}
			for _, op := range []isa.Opcode{isa.NOP, isa.JUMP, isa.EXIT, isa.MOV, isa.FILL, isa.ADD, isa.MUL, isa.MAC, isa.MAD} {
				if cov.ops[op] == 0 {
					t.Errorf("no %s retired by any generated program", op)
				}
			}
			if cfg.Functional {
				for _, f := range wantForms(cfg) {
					if cov.forms[f] == 0 {
						t.Errorf("no trigger of data-path form %q compared", f)
					}
				}
			}
			for _, f := range wantLoopForms() {
				if cov.loops[f] == 0 {
					t.Errorf("no AAM loop of form %q run in closed form", f)
				}
			}
			if cov.triggers < 8*seeds {
				t.Errorf("%d triggers compared over %d programs: the generator no longer runs deep", cov.triggers, seeds)
			}
			reached, midRun := fmt.Sprint(cov.errors), fmt.Sprint(cov.midRun)
			classes := []string{"column command after EXIT", "control-flow livelock", "out of CRF range", "needs WR", "not in lock step"}
			if cfg.Functional {
				classes = append(classes, " columns)")
			}
			for _, class := range classes {
				if !strings.Contains(reached, class) {
					t.Errorf("no stream ended in a %q error", class)
				}
			}
			mid := []string{"column command after EXIT"}
			if cfg.Functional {
				mid = append(mid, "refuses the write")
			}
			if cfg.ECC {
				mid = append(mid, "uncorrectable ECC error")
			}
			for _, class := range mid {
				if !strings.Contains(midRun, class) {
					t.Errorf("no run failed after its first command in a %q error", class)
				}
			}
		})
	}
}

// TestFailedWriteStopsAtItsUnit: a MOV(ReLU) GRF->bank whose bank write
// fails at unit 5 fails the trigger as unit 5's on both executors, with
// the same text, after units 0-4 wrote their banks and before units 6-7
// wrote theirs; the banks then hold the same bytes on both devices.
func TestFailedWriteStopsAtItsUnit(t *testing.T) {
	for _, dc := range diffConfigs[:3] { // the functional kinds
		t.Run(dc.name, func(t *testing.T) {
			cfg := dc.cfg()
			d := newDiffPair(t, cfg)
			bad := 5*cfg.BanksPerUnit() + cfg.BanksPerUnit() - 1
			for _, tap := range d.tap {
				tap.badWrite = func(bank int, _ uint32) bool { return bank == bad }
			}
			d.setup(rand.New(rand.NewSource(3)), encodeWords(t, mustAssemble(t, "MOV(RELU) ODD_BANK, GRF_A[1]\nEXIT")), 0)
			cmd := hbm.Command{Kind: hbm.CmdWR, Bank: 1, Col: 2, Data: make([]byte, 32)}
			if err := d.issue(cmd); err == nil || !strings.HasPrefix(err.Error(), "pim: unit 5: ") {
				t.Fatalf("error %v, want unit 5's", err)
			}
			if got, want := fmt.Sprint(d.tap[0].err), fmt.Sprint(d.tap[1].err); got != want {
				t.Fatalf("production error %q, reference error %q", got, want)
			}
			if !slices.Equal(d.tap[0].log, d.tap[1].log) {
				t.Fatalf("bank accesses\n%v\nreference\n%v", d.tap[0].log, d.tap[1].log)
			}
			if n := len(d.tap[0].log); n != 6 || d.tap[0].log[n-1].bank != bad {
				t.Fatalf("bank writes %v; want units 0-5's, ending at bank %d", d.tap[0].log, bad)
			}
			d.must(hbm.Command{Kind: hbm.CmdPREA})
			d.setPIMOp(false)
			d.modeHandshake(hbm.SBMRBank)
			for flat := 0; flat < cfg.Banks(); flat++ {
				bg, b := cfg.BankOf(flat)
				d.must(hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: diffRow})
				_ = d.issue(hbm.Command{Kind: hbm.CmdRD, BG: bg, Bank: b, Col: 2})
				d.must(hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b})
			}
		})
	}
}

// FuzzTriggerDifferential feeds arbitrary CRF words (legal or not),
// arbitrary streams of trigger runs and a planted fault through the same
// comparison. The corpus starts from the blas microkernels on every device
// kind, then the fault cases.
func FuzzTriggerDifferential(f *testing.F) {
	prog := func(name string) (int64, []byte, []byte) {
		seed, words, stream := kernel(f, name)
		prog := make([]byte, 4*len(words))
		for j, w := range words {
			binary.LittleEndian.PutUint32(prog[4*j:], w)
		}
		return seed, prog, stream
	}
	for _, k := range fixedKernels {
		seed, words, stream := prog(k.name)
		for kind := range diffConfigs {
			f.Add(uint8(kind), seed, words, stream, uint16(0))
		}
	}
	for _, fc := range faultCases {
		seed, words, stream := prog(fc.kernel)
		f.Add(uint8(0), seed, words, stream, fc.fault) // diffConfigs[0]: base, with ECC
	}
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, prog, stream []byte, fault uint16) {
		words := make([]uint32, min(len(prog)/4, isa.CRFEntries))
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(prog[4*i:])
		}
		if len(stream) > 4*120 {
			stream = stream[:4*120]
		}
		runDifferential(t, diffConfigs[int(kind)%len(diffConfigs)].cfg(), seed, words, stream, fault, nil)
	})
}
