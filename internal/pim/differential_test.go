package pim

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
// with the reference interpreter (reference_test.go), and compare after
// every trigger everything either can be observed through: the error or
// its absence and its text, the TriggerInfo, every bank access the trigger
// made (bank, column, bytes, in order), every GRF and SRF register of
// every unit, AllDone, the retirement counters and the channel's
// hbm.Stats; and, once the stream ends, the bytes of every bank. A
// trigger that fails ends the comparison: what the control state is after
// a failed trigger is unspecified (see the package comment).

// diffConfigs are the device kinds the differential covers. The base
// functional device runs with the ECC engine on, so injected single-bit
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

// tapExec wraps an executor and records what one trigger did: its
// TriggerInfo, its error and its data-bearing bank accesses, one event per
// bank read. Since it was attached it also counts ReadBanks calls and the
// views that were a scratch copy rather than the row itself.
type tapExec struct {
	hbm.PIMExecutor
	access hbm.BankAccess
	info   hbm.TriggerInfo
	err    error
	log    []bankEvent
	reads  int
	copies int

	// badWrite, when set, refuses a WriteBank to the banks it reports:
	// the write is logged with its error and reaches no cell.
	badWrite func(bank int) bool
}

func (t *tapExec) Trigger(ctx *hbm.TriggerContext) (hbm.TriggerInfo, error) {
	t.access, t.log = ctx.Access, t.log[:0]
	ctx.Access = t
	t.info, t.err = t.PIMExecutor.Trigger(ctx)
	ctx.Access = t.access
	return t.info, t.err
}

func (t *tapExec) ReadBanks(first, stride, n int, col uint32, scratch []byte, views [][]byte) (int, error) {
	t.reads++
	read, err := t.access.ReadBanks(first, stride, n, col, scratch, views)
	for i := 0; i < read; i++ {
		t.log = append(t.log, bankEvent{false, first + i*stride, col, string(views[i]), "<nil>"})
		if len(views[i]) > 0 && &views[i][0] == &scratch[2*fp16.Lanes*i] {
			t.copies++
		}
	}
	if err != nil {
		t.log = append(t.log, bankEvent{false, first + read*stride, col, "", err.Error()})
	}
	return read, err
}

func (t *tapExec) WriteBank(bank int, col uint32, data []byte) error {
	var err error
	if t.badWrite != nil && t.badWrite(bank) {
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
		if at[i], errs[i] = p.EarliestIssue(cmd, d.now); errs[i] == nil {
			var res hbm.IssueResult
			res, errs[i] = p.Issue(cmd, at[i])
			data[i] = res.Data
		}
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
// included), plants a few bit errors where the device has ECC, programs
// the CRF with words and leaves both devices in AB-PIM mode with the row
// open.
func (d *diffPair) setup(rng *rand.Rand, words []uint32) {
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
		for n := rng.Intn(4); cfg.ECC && n > 0; n-- {
			bg, b := cfg.BankOf(rng.Intn(cfg.Banks()))
			col, bit := uint32(rng.Intn(diffCols)), rng.Intn(256)
			bits := []int{bit}
			if rng.Intn(3) == 0 {
				bits = append(bits, bit^1) // same 64-bit word: uncorrectable
			}
			for _, p := range d.p {
				for _, bit := range bits {
					if err := p.InjectBitError(bg, b, diffRow, col, bit); err != nil {
						d.t.Fatal(err)
					}
				}
			}
		}
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

// nextInstruction walks the reference's control state, without changing
// it, to the instruction the next trigger will execute; nil when that is
// not a data or arithmetic instruction. It only steers trigger
// generation: what it returns decides nothing about correctness.
func (d *diffPair) nextInstruction() *isa.Instruction {
	u := d.oracle.units[0]
	if u.done || u.nopLeft > 0 {
		return nil
	}
	ppc, left, armed := u.ppc, u.jumpLeft, u.jumpArmed
	for hops := 0; hops <= 2*isa.CRFEntries && ppc >= 0 && ppc < isa.CRFEntries; hops++ {
		in, err := isa.Decode(u.crf[ppc])
		switch {
		case err != nil || in.Op == isa.EXIT || in.Op == isa.NOP:
			return nil
		case in.Op != isa.JUMP:
			return &in
		}
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
	}
	return nil
}

// trigger decodes three stream bytes into a column command. Bit 0 of b0
// asks for a WR, bit 1 for the odd banks, bits 2-3 pick the payload (full,
// full, short, none). Unless bits 4-6 are all clear (one trigger in
// eight), kind and bank set are then bent to what the next instruction
// needs, so that streams run deep instead of dying on the first mismatch.
func (d *diffPair) trigger(b0, b1, b2 byte) hbm.Command {
	cmd := hbm.Command{Kind: hbm.CmdRD, Bank: int(b0>>1) & 1, Col: uint32(b1) % uint32(d.cfg.ColumnsPerRow())}
	if b0&1 != 0 {
		cmd.Kind = hbm.CmdWR
	}
	if in := d.nextInstruction(); in != nil && b0&0x70 != 0 {
		bank := in.Src0
		if in.Op.IsArith() && in.Src1.IsBank() {
			bank = in.Src1
		}
		switch {
		case in.Dst.IsBank():
			cmd.Kind, cmd.Bank = hbm.CmdWR, int(in.Dst-isa.EvenBank)
		case bank.IsBank():
			cmd.Bank = int(bank - isa.EvenBank)
			if !(in.Op.IsData() || d.cfg.WROperand()) {
				cmd.Kind = hbm.CmdRD
			}
		}
	}
	if cmd.Kind == hbm.CmdWR && d.cfg.Functional {
		payload := make([]byte, 32)
		for i, x := 0, uint32(b2); i < len(payload); i++ {
			x = x*1664525 + 1013904223 // an LCG: any bits will do
			payload[i] = byte(x >> 24)
		}
		cmd.Data = payload[:[4]int{32, 32, 16, 0}[b0>>2&3]]
	}
	return cmd
}

// diffCoverage accumulates what a set of runs exercised: triggers
// compared, instructions retired per opcode (the reference's count, failed
// trigger included), the data-path forms of the compared triggers (see
// dataForm) and the errors streams ended in.
type diffCoverage struct {
	triggers int
	ops      [isa.NumOpcodes]int64
	forms    map[string]int
	errors   map[string]bool
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

// runDifferential runs one program under one trigger stream on both
// devices. seed drives the bank, register and fault setup.
func runDifferential(t testing.TB, cfg hbm.Config, seed int64, words []uint32, stream []byte, cov *diffCoverage) {
	t.Helper()
	d := newDiffPair(t, cfg)
	d.setup(rand.New(rand.NewSource(seed)), words)
	fail := func(i int, cmd hbm.Command, format string, args ...any) {
		t.Helper()
		prog, _ := isa.DecodeProgram(words)
		t.Fatalf("trigger %d (%s, %dB payload) of seed %d: %s\nprogram:\n%s",
			i, cmd, len(cmd.Data), seed, fmt.Sprintf(format, args...), isa.FormatProgram(prog))
	}
	defer func() {
		if ops, _ := d.oracle.opCounts(); cov != nil {
			for op, n := range ops {
				cov.ops[op] += n
			}
		}
	}()
	for i := 0; i+3 <= len(stream); i += 3 {
		cmd := d.trigger(stream[i], stream[i+1], stream[i+2])
		in := d.nextInstruction()
		reads := d.tap[0].reads
		err := d.issue(cmd)
		if d.tap[0].reads-reads > 1 {
			fail(i/3, cmd, "%d ReadBanks calls in one trigger, want at most one", d.tap[0].reads-reads)
		}
		prodErr, refErr := fmt.Sprint(d.tap[0].err), fmt.Sprint(d.tap[1].err)
		if prodErr != refErr {
			fail(i/3, cmd, "production error %q, reference error %q", prodErr, refErr)
		}
		if err != nil {
			if cov != nil {
				cov.errors[refErr] = true
			}
			return
		}
		if d.tap[0].info != d.tap[1].info {
			fail(i/3, cmd, "TriggerInfo %+v, reference %+v", d.tap[0].info, d.tap[1].info)
		}
		if cfg.Functional {
			if !slices.Equal(d.tap[0].log, d.tap[1].log) {
				fail(i/3, cmd, "bank accesses\n%q\nreference\n%q", d.tap[0].log, d.tap[1].log)
			}
			for u, ref := range d.oracle.units {
				got := d.exec.Unit(u)
				for r := 0; r < cfg.GRFDepth(); r++ {
					gotA, gotB := asBits(got.GRF(0, r)), asBits(got.GRF(1, r))
					if !slices.Equal(gotA, asBits(ref.grfA[r])) || !slices.Equal(gotB, asBits(ref.grfB[r])) {
						fail(i/3, cmd, "unit %d GRF_A[%d] %04x GRF_B[%d] %04x, reference %04x and %04x",
							u, r, gotA, r, gotB, asBits(ref.grfA[r]), asBits(ref.grfB[r]))
					}
				}
				gotSRF, refSRF := asBits(fp16.VectorFromBytes(got.srf)), append(asBits(ref.srfM), asBits(ref.srfA)...)
				if !slices.Equal(gotSRF, refSRF) {
					fail(i/3, cmd, "unit %d SRF_M:SRF_A %04x, reference %04x", u, gotSRF, refSRF)
				}
			}
		}
		ops, aam := d.oracle.opCounts()
		if d.exec.OpCountsArray() != ops || d.exec.AAMInstructions() != aam || d.exec.AllDone() != d.oracle.allDone() {
			fail(i/3, cmd, "retired %v aam %d done %v, reference %v aam %d done %v",
				d.exec.OpCountsArray(), d.exec.AAMInstructions(), d.exec.AllDone(), ops, aam, d.oracle.allDone())
		}
		if d.p[0].Stats() != d.p[1].Stats() {
			fail(i/3, cmd, "stats %+v, reference %+v", d.p[0].Stats(), d.p[1].Stats())
		}
		if cov != nil {
			cov.triggers++
			if in != nil && cfg.Functional {
				cov.forms[dataForm(in, cmd)]++
				if forwards(cfg, in, cmd) {
					cov.forms["SRW forward"]++
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
	stream := make([]byte, 3*(1+rng.Intn(80)))
	rng.Read(stream)
	return stream
}

// fixedKernels are the differential's fixed inputs and the fuzz target's
// seed corpus: the microkernels internal/blas emits (gemvProgram,
// eltProgram; the LSTM cell is the GEMV kernel twice) with small loop
// counts, one pass over the data-path forms generated programs reach
// rarely (wantForms), and a JUMP-only loop, the one control error
// generated programs do not reach.
var fixedKernels = []struct {
	name string
	src  string
}{
	{"gemv", `
		MOV(AAM) GRF_A, EVEN_BANK
		JUMP -1, 7
		MAC(AAM) GRF_B, GRF_A, EVEN_BANK
		JUMP -1, 7
		JUMP -4, 2
		EXIT`},
	{"gemv-srw", `
		MAC(AAM) GRF_B, GRF_A, EVEN_BANK
		JUMP -1, 7
		JUMP -2, 2
		EXIT`},
	{"add", `
		MOV(AAM) GRF_A, EVEN_BANK
		JUMP -1, 7
		ADD(AAM) GRF_A, GRF_A, ODD_BANK
		JUMP -1, 7
		MOV(AAM) ODD_BANK, GRF_A
		JUMP -1, 7
		JUMP -6, 1
		JUMP -7, 1
		EXIT`},
	{"mul-2ba", `
		MUL(AAM) GRF_A, GRF_A, ODD_BANK
		JUMP -1, 7
		MOV(AAM) ODD_BANK, GRF_A
		JUMP -1, 7
		JUMP -4, 1
		JUMP -5, 1
		EXIT`},
	{"relu", `
		MOV(AAM_RELU) GRF_A, EVEN_BANK
		JUMP -1, 7
		MOV(AAM) ODD_BANK, GRF_A
		JUMP -1, 7
		JUMP -4, 1
		JUMP -5, 1
		EXIT`},
	{"bn", `
		MAD(AAM) GRF_A, EVEN_BANK, SRF_M
		JUMP -1, 7
		MOV(AAM) ODD_BANK, GRF_A
		JUMP -1, 7
		JUMP -4, 1
		JUMP -5, 1
		EXIT`},
	{"rare-forms", `
		FILL SRF_A[0], EVEN_BANK
		MUL GRF_A[1], EVEN_BANK, SRF_M[2]
		MAD GRF_B[0], GRF_A[0], ODD_BANK
		MOV(RELU) ODD_BANK, GRF_A[1]
		ADD GRF_A[2], EVEN_BANK, SRF_A[3]
		EXIT`},
	{"livelock", `
		MOV GRF_A[0], GRF_B[0]
		JUMP -1, 0
		JUMP -1, 127
		EXIT`},
}

// kernelStream is a stream that follows whatever the program asks for,
// columns walking the AAM window, long enough to run the kernels above to
// their EXIT and one trigger past it.
func kernelStream() []byte {
	var stream []byte
	for i := 0; i < 110; i++ {
		stream = append(stream, 0x10, byte(i%8), byte(i))
	}
	return stream
}

func encodeWords(t testing.TB, prog []isa.Instruction) []uint32 {
	t.Helper()
	words, err := isa.EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	return words
}

// TestTriggerDifferential is the seeded table: the blas microkernels and
// generated programs under generated trigger streams, on every device kind
// of diffConfigs. It also checks that the table still reaches what it is
// for: all nine opcodes retired, streams that run deep, and the error
// classes a stream can end in.
func TestTriggerDifferential(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 100
	}
	for _, dc := range diffConfigs {
		t.Run(dc.name, func(t *testing.T) {
			cov := &diffCoverage{forms: map[string]int{}, errors: map[string]bool{}}
			for i, k := range fixedKernels {
				runDifferential(t, dc.cfg(), int64(i), encodeWords(t, mustAssemble(t, k.src)), kernelStream(), cov)
			}
			for seed := int64(0); seed < int64(seeds); seed++ {
				rng := rand.New(rand.NewSource(seed))
				words := encodeWords(t, randProgram(rng))
				runDifferential(t, dc.cfg(), seed, words, randStream(rng), cov)
			}
			for _, op := range []isa.Opcode{isa.NOP, isa.JUMP, isa.EXIT, isa.MOV, isa.FILL, isa.ADD, isa.MUL, isa.MAC, isa.MAD} {
				if cov.ops[op] == 0 {
					t.Errorf("no %s retired by any generated program", op)
				}
			}
			if cfg := dc.cfg(); cfg.Functional {
				for _, f := range wantForms(cfg) {
					if cov.forms[f] == 0 {
						t.Errorf("no trigger of data-path form %q compared", f)
					}
				}
			}
			if cov.triggers < 8*seeds {
				t.Errorf("%d triggers compared over %d programs: the generator no longer runs deep", cov.triggers, seeds)
			}
			reached := fmt.Sprint(cov.errors)
			for _, class := range []string{"column command after EXIT", "control-flow livelock", "out of CRF range", "needs WR"} {
				if !strings.Contains(reached, class) {
					t.Errorf("no stream ended in a %q error", class)
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
				tap.badWrite = func(bank int) bool { return bank == bad }
			}
			d.setup(rand.New(rand.NewSource(3)), encodeWords(t, mustAssemble(t, "MOV(RELU) ODD_BANK, GRF_A[1]\nEXIT")))
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

// FuzzTriggerDifferential feeds arbitrary CRF words (legal or not) and
// arbitrary trigger streams through the same comparison. The corpus starts
// from the blas microkernels on every device kind.
func FuzzTriggerDifferential(f *testing.F) {
	for i, k := range fixedKernels {
		words, err := isa.EncodeProgram(mustAssemble(f, k.src))
		if err != nil {
			f.Fatal(err)
		}
		prog := make([]byte, 4*len(words))
		for j, w := range words {
			binary.LittleEndian.PutUint32(prog[4*j:], w)
		}
		for kind := range diffConfigs {
			f.Add(uint8(kind), int64(i), prog, kernelStream())
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, prog, stream []byte) {
		words := make([]uint32, min(len(prog)/4, isa.CRFEntries))
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(prog[4*i:])
		}
		if len(stream) > 3*400 {
			stream = stream[:3*400]
		}
		runDifferential(t, diffConfigs[int(kind)%len(diffConfigs)].cfg(), seed, words, stream, nil)
	})
}
