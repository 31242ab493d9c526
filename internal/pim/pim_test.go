package pim

import (
	"math/rand"
	"strings"
	"testing"

	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/isa"
)

// driver issues commands to one pseudo channel at their earliest legal
// cycles — a miniature of what the runtime's executor does in production.
type driver struct {
	t   *testing.T
	p   *hbm.PseudoChannel
	cfg hbm.Config
	now int64
}

func newDriver(t *testing.T, cfg hbm.Config) (*driver, *Executor) {
	t.Helper()
	dev, err := hbm.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	execs, err := Attach(dev)
	if err != nil {
		t.Fatal(err)
	}
	return &driver{t: t, p: dev.PCH(0), cfg: cfg}, execs[0]
}

func (d *driver) issue(cmd hbm.Command) hbm.IssueResult {
	d.t.Helper()
	at, err := d.p.EarliestIssue(cmd, d.now)
	if err != nil {
		d.t.Fatalf("EarliestIssue(%s): %v", cmd, err)
	}
	res, err := d.p.Issue(cmd, at)
	if err != nil {
		d.t.Fatalf("Issue(%s): %v", cmd, err)
	}
	d.now = at
	return res
}

func (d *driver) issueErr(cmd hbm.Command) error {
	d.t.Helper()
	at, err := d.p.EarliestIssue(cmd, d.now)
	if err != nil {
		return err
	}
	_, err = d.p.Issue(cmd, at)
	return err
}

func (d *driver) enterAB() {
	d.issue(hbm.Command{Kind: hbm.CmdACT, BG: 0, Bank: hbm.ABMRBank, Row: d.cfg.ModeRow()})
	d.issue(hbm.Command{Kind: hbm.CmdPRE, BG: 0, Bank: hbm.ABMRBank})
}

func (d *driver) exitAB() {
	d.issue(hbm.Command{Kind: hbm.CmdACT, BG: 0, Bank: hbm.SBMRBank, Row: d.cfg.ModeRow()})
	d.issue(hbm.Command{Kind: hbm.CmdPRE, BG: 0, Bank: hbm.SBMRBank})
}

func (d *driver) setPIMOp(on bool) {
	data := make([]byte, 32)
	if on {
		data[0] = 1
	}
	d.issue(hbm.Command{Kind: hbm.CmdACT, BG: 0, Bank: hbm.ABMRBank, Row: d.cfg.ModeRow()})
	d.issue(hbm.Command{Kind: hbm.CmdWR, BG: 0, Bank: hbm.ABMRBank, Col: hbm.ColPIMOpMode, Data: data})
	d.issue(hbm.Command{Kind: hbm.CmdPRE, BG: 0, Bank: hbm.ABMRBank})
}

// programCRF broadcasts a microkernel into every unit's CRF (AB mode).
func (d *driver) programCRF(prog []isa.Instruction) {
	words, err := isa.EncodeProgram(prog)
	if err != nil {
		d.t.Fatal(err)
	}
	d.issue(hbm.Command{Kind: hbm.CmdACT, Row: d.cfg.CRFRow()})
	for col := 0; col*8 < len(words); col++ {
		buf := make([]byte, 32)
		for i := 0; i < 8 && col*8+i < len(words); i++ {
			w := words[col*8+i]
			buf[4*i] = byte(w)
			buf[4*i+1] = byte(w >> 8)
			buf[4*i+2] = byte(w >> 16)
			buf[4*i+3] = byte(w >> 24)
		}
		d.issue(hbm.Command{Kind: hbm.CmdWR, Col: uint32(col), Data: buf})
	}
	d.issue(hbm.Command{Kind: hbm.CmdPREA})
}

// writeBankSB writes a 32-byte block to one bank in SB mode.
func (d *driver) writeBankSB(flatBank int, row, col uint32, data []byte) {
	bg, b := flatBank/d.cfg.BanksPerGroup, flatBank%d.cfg.BanksPerGroup
	d.issue(hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: row})
	d.issue(hbm.Command{Kind: hbm.CmdWR, BG: bg, Bank: b, Col: col, Data: data})
	d.issue(hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b})
}

// readBankSB reads a 32-byte block from one bank in SB mode.
func (d *driver) readBankSB(flatBank int, row, col uint32) []byte {
	bg, b := flatBank/d.cfg.BanksPerGroup, flatBank%d.cfg.BanksPerGroup
	d.issue(hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: row})
	res := d.issue(hbm.Command{Kind: hbm.CmdRD, BG: bg, Bank: b, Col: col})
	data := append([]byte(nil), res.Data...) // res.Data is pCH scratch
	d.issue(hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b})
	return data
}

func splat(v fp16.F16) []byte {
	vec := fp16.NewVector(fp16.Lanes)
	for i := range vec {
		vec[i] = v
	}
	return vec.Bytes()
}

func mustAssemble(t testing.TB, src string) []isa.Instruction {
	t.Helper()
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestGEMVMicrokernel runs the paper's flagship kernel end to end on one
// pseudo channel: weights live in the even banks, the input vector is
// pushed over the write datapath, MACs accumulate in GRF_B, and the host
// reads the partial sums back through the register space.
func TestGEMVMicrokernel(t *testing.T) {
	cfg := hbm.PIMHBMConfig(1000)
	d, exec := newDriver(t, cfg)
	rng := rand.New(rand.NewSource(42))

	const (
		inputs  = 8 // one GRF_A pass
		lanes   = fp16.Lanes
		units   = 8
		outputs = units * lanes // one output per lane per unit
		row     = 100
	)

	// x: the input vector; W: outputs x inputs weights.
	x := make(fp16.Vector, inputs)
	for i := range x {
		x[i] = fp16.FromFloat32(float32(rng.NormFloat64()))
	}
	W := make([]fp16.Vector, outputs)
	for o := range W {
		W[o] = make(fp16.Vector, inputs)
		for k := range W[o] {
			W[o][k] = fp16.FromFloat32(float32(rng.NormFloat64()))
		}
	}

	// Lay W out in the even banks: unit u's even bank (flat 2u), row,
	// column k holds lanes = W[u*16+lane][k].
	for u := 0; u < units; u++ {
		for k := 0; k < inputs; k++ {
			col := make(fp16.Vector, lanes)
			for lane := 0; lane < lanes; lane++ {
				col[lane] = W[u*lanes+lane][k]
			}
			d.writeBankSB(2*u, row, uint32(k), col.Bytes())
		}
	}

	prog := mustAssemble(t, `
		MOV(AAM) GRF_A, EVEN_BANK          ; WR triggers: load x splats
		JUMP -1, 7
		MAC(AAM) GRF_B, GRF_A, EVEN_BANK   ; RD triggers: accumulate
		JUMP -1, 7
		EXIT
	`)

	d.enterAB()
	d.programCRF(prog)
	d.setPIMOp(true)

	d.issue(hbm.Command{Kind: hbm.CmdACT, Row: row})
	for k := 0; k < inputs; k++ {
		d.issue(hbm.Command{Kind: hbm.CmdWR, Bank: 0, Col: uint32(k), Data: splat(x[k])})
	}
	for k := 0; k < inputs; k++ {
		d.issue(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: uint32(k)})
	}
	if !exec.AllDone() {
		t.Fatal("microkernel did not reach EXIT")
	}
	d.issue(hbm.Command{Kind: hbm.CmdPREA})
	d.setPIMOp(false)
	d.exitAB()

	// Read GRF_B back per unit through the SB register space and reduce.
	got := make(fp16.Vector, outputs)
	for u := 0; u < units; u++ {
		acc := fp16.NewVector(lanes)
		bg, b := (2*u)/cfg.BanksPerGroup, (2*u)%cfg.BanksPerGroup
		d.issue(hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: b, Row: cfg.GRFRow()})
		for r := 0; r < inputs; r++ {
			res := d.issue(hbm.Command{Kind: hbm.CmdRD, BG: bg, Bank: b, Col: uint32(8 + r)})
			part := fp16.VectorFromBytes(res.Data)
			fp16.AddVec(acc, acc, part)
		}
		d.issue(hbm.Command{Kind: hbm.CmdPRE, BG: bg, Bank: b})
		copy(got[u*lanes:], acc)
	}

	// Reference: identical rounding order (per-k product, sequential sum).
	for o := 0; o < outputs; o++ {
		want := fp16.Zero
		for k := 0; k < inputs; k++ {
			want = fp16.Add(want, fp16.MAC(fp16.Zero, x[k], W[o][k]))
		}
		if got[o] != want {
			t.Fatalf("y[%d] = %v (0x%04x), want %v (0x%04x)",
				o, got[o], got[o].Bits(), want, want.Bits())
		}
	}
}

// TestADDMicrokernel runs elementwise c = a + b with a in the even banks,
// b in the odd banks, and c written back to the odd banks at columns 8-15.
func TestADDMicrokernel(t *testing.T) {
	cfg := hbm.PIMHBMConfig(1000)
	d, exec := newDriver(t, cfg)
	rng := rand.New(rand.NewSource(7))

	const row, n = 200, 8 // 8 columns of 16 lanes per bank pair
	a := make([]fp16.Vector, n)
	b := make([]fp16.Vector, n)
	for c := 0; c < n; c++ {
		a[c] = make(fp16.Vector, fp16.Lanes)
		b[c] = make(fp16.Vector, fp16.Lanes)
		for l := range a[c] {
			a[c][l] = fp16.FromFloat32(float32(rng.NormFloat64()))
			b[c][l] = fp16.FromFloat32(float32(rng.NormFloat64()))
		}
	}
	// Same data in every unit's bank pair (broadcast writes would do this
	// too; SB writes to unit 3's pair keep the test focused).
	const unit = 3
	for c := 0; c < n; c++ {
		d.writeBankSB(2*unit, row, uint32(c), a[c].Bytes())
		d.writeBankSB(2*unit+1, row, uint32(c), b[c].Bytes())
	}

	prog := mustAssemble(t, `
		MOV(AAM) GRF_A, EVEN_BANK        ; RD even: load a
		JUMP -1, 7
		ADD(AAM) GRF_A, GRF_A, ODD_BANK  ; RD odd: a + b
		JUMP -1, 7
		MOV(AAM) ODD_BANK, GRF_A         ; WR odd: store c
		JUMP -1, 7
		EXIT
	`)

	d.enterAB()
	d.programCRF(prog)
	d.setPIMOp(true)
	d.issue(hbm.Command{Kind: hbm.CmdACT, Row: row})
	for c := 0; c < n; c++ {
		d.issue(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: uint32(c)})
	}
	for c := 0; c < n; c++ {
		d.issue(hbm.Command{Kind: hbm.CmdRD, Bank: 1, Col: uint32(c)})
	}
	for c := 0; c < n; c++ {
		d.issue(hbm.Command{Kind: hbm.CmdWR, Bank: 1, Col: uint32(8 + c)})
	}
	if !exec.AllDone() {
		t.Fatal("microkernel did not reach EXIT")
	}
	d.issue(hbm.Command{Kind: hbm.CmdPREA})
	d.setPIMOp(false)
	d.exitAB()

	for c := 0; c < n; c++ {
		got := fp16.VectorFromBytes(d.readBankSB(2*unit+1, row, uint32(8+c)))
		for l := 0; l < fp16.Lanes; l++ {
			want := fp16.Add(a[c][l], b[c][l])
			if got[l] != want {
				t.Fatalf("c[%d][%d] = %v, want %v", c, l, got[l], want)
			}
		}
	}
}

// TestReLUMove checks the in-flight ReLU of MOV on negative inputs.
func TestReLUMove(t *testing.T) {
	cfg := hbm.PIMHBMConfig(1000)
	d, _ := newDriver(t, cfg)
	const row = 10
	in := fp16.FromFloat32s([]float32{-1, 2, -3, 4, -5, 6, -0, 8, -9, 10, -11, 12, -13, 14, -15, 16})
	for u := 0; u < 8; u++ {
		d.writeBankSB(2*u, row, 0, in.Bytes())
	}
	prog := mustAssemble(t, `
		MOV(RELU) GRF_A[0], EVEN_BANK
		MOV ODD_BANK, GRF_A[0]
		EXIT
	`)
	d.enterAB()
	d.programCRF(prog)
	d.setPIMOp(true)
	d.issue(hbm.Command{Kind: hbm.CmdACT, Row: row})
	d.issue(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: 0})
	d.issue(hbm.Command{Kind: hbm.CmdWR, Bank: 1, Col: 1})
	d.issue(hbm.Command{Kind: hbm.CmdPREA})
	d.setPIMOp(false)
	d.exitAB()

	got := fp16.VectorFromBytes(d.readBankSB(1, row, 1))
	for l := range in {
		if want := fp16.ReLU(in[l]); got[l] != want {
			t.Errorf("lane %d: %v, want %v", l, got[l], want)
		}
	}
}

// TestMADWithSRF exercises the scalar path: y = x * SRF_M[i] + SRF_A[i].
func TestMADWithSRF(t *testing.T) {
	cfg := hbm.PIMHBMConfig(1000)
	d, exec := newDriver(t, cfg)
	const row = 20
	scale := fp16.FromFloat32(0.5)
	shift := fp16.FromFloat32(3)
	x := fp16.FromFloat32s([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	for u := 0; u < 8; u++ {
		d.writeBankSB(2*u, row, 0, x.Bytes())
	}

	d.enterAB()
	// Program the SRF: SRF_M[0..7] then SRF_A[0..7] in one 32B column.
	srf := fp16.NewVector(16)
	srf[0] = scale
	srf[8] = shift
	d.issue(hbm.Command{Kind: hbm.CmdACT, Row: cfg.SRFRow()})
	d.issue(hbm.Command{Kind: hbm.CmdWR, Col: 0, Data: srf.Bytes()})
	d.issue(hbm.Command{Kind: hbm.CmdPREA})

	prog := mustAssemble(t, `
		MAD GRF_A[0], EVEN_BANK, SRF_M[0]
		MOV ODD_BANK, GRF_A[0]
		EXIT
	`)
	d.programCRF(prog)
	d.setPIMOp(true)
	d.issue(hbm.Command{Kind: hbm.CmdACT, Row: row})
	d.issue(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: 0})
	d.issue(hbm.Command{Kind: hbm.CmdWR, Bank: 1, Col: 0})
	if !exec.AllDone() {
		t.Fatal("not done")
	}
	d.issue(hbm.Command{Kind: hbm.CmdPREA})
	d.setPIMOp(false)
	d.exitAB()

	got := fp16.VectorFromBytes(d.readBankSB(1, row, 0))
	for l := range x {
		want := fp16.MAD(x[l], scale, shift)
		if got[l] != want {
			t.Errorf("lane %d: %v, want %v", l, got[l], want)
		}
	}
}

// TestBankSelMismatch: an instruction reading EVEN_BANK driven by an
// odd-set command is a kernel bug the model must catch.
func TestBankSelMismatch(t *testing.T) {
	cfg := hbm.PIMHBMConfig(1000)
	d, _ := newDriver(t, cfg)
	prog := mustAssemble(t, `
		MOV(AAM) GRF_A, EVEN_BANK
		EXIT
	`)
	d.enterAB()
	d.programCRF(prog)
	d.setPIMOp(true)
	d.issue(hbm.Command{Kind: hbm.CmdACT, Row: 5})
	if err := d.issueErr(hbm.Command{Kind: hbm.CmdRD, Bank: 1, Col: 0}); err == nil {
		t.Error("even-bank instruction accepted an odd-set trigger")
	}
}

// TestTriggerAfterExit: surplus column commands after EXIT are rejected.
func TestTriggerAfterExit(t *testing.T) {
	cfg := hbm.PIMHBMConfig(1000)
	d, _ := newDriver(t, cfg)
	d.enterAB()
	d.programCRF(mustAssemble(t, "EXIT"))
	d.setPIMOp(true)
	d.issue(hbm.Command{Kind: hbm.CmdACT, Row: 5})
	d.issue(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: 0})
	if err := d.issueErr(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: 1}); err == nil {
		t.Error("trigger after EXIT accepted")
	}
}

// TestMultiCycleNOP: NOP n idles n+1 command slots.
func TestMultiCycleNOP(t *testing.T) {
	cfg := hbm.PIMHBMConfig(1000)
	d, exec := newDriver(t, cfg)
	d.enterAB()
	d.programCRF(mustAssemble(t, "NOP 2\nEXIT"))
	d.setPIMOp(true)
	d.issue(hbm.Command{Kind: hbm.CmdACT, Row: 5})
	// Slot 1: NOP retires and arms 2 idle slots; slots 2-3: idle; slot 4: EXIT.
	for i := 0; i < 4; i++ {
		d.issue(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: uint32(i)})
	}
	if !exec.AllDone() {
		t.Error("NOP padding did not land on EXIT")
	}
}

// TestPPCResetOnReentry: toggling PIM_OP_MODE reruns the kernel from CRF 0
// with rearmed JUMP counters.
func TestPPCResetOnReentry(t *testing.T) {
	cfg := hbm.PIMHBMConfig(1000)
	d, exec := newDriver(t, cfg)
	run := func() {
		d.setPIMOp(true)
		d.issue(hbm.Command{Kind: hbm.CmdACT, Row: 7})
		for k := 0; k < 4; k++ {
			d.issue(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: uint32(k)})
		}
		if !exec.AllDone() {
			t.Fatal("kernel incomplete")
		}
		d.issue(hbm.Command{Kind: hbm.CmdPREA})
		d.setPIMOp(false)
	}
	d.enterAB()
	d.programCRF(mustAssemble(t, `
		MOV(AAM) GRF_A, EVEN_BANK
		JUMP -1, 3
		EXIT
	`))
	run()
	run() // must work identically the second time
}

// TestSRWForwarding: under the SRW variant one WR command loads the GRF
// operand and executes the MAC against the bank in the same slot.
func TestSRWForwarding(t *testing.T) {
	d, exec := newDriver(t, hbm.PIMHBMVariantConfig(hbm.VariantSRW, 1000))
	rng := rand.New(rand.NewSource(3))

	const row = 30
	w := make(fp16.Vector, fp16.Lanes)
	for l := range w {
		w[l] = fp16.FromFloat32(float32(rng.NormFloat64()))
	}
	x := fp16.FromFloat32(1.5)
	for u := 0; u < 8; u++ {
		d.writeBankSB(2*u, row, 0, w.Bytes())
	}

	d.enterAB()
	d.programCRF(mustAssemble(t, `
		MAC(AAM) GRF_B, GRF_A, EVEN_BANK
		EXIT
	`))
	d.setPIMOp(true)
	d.issue(hbm.Command{Kind: hbm.CmdACT, Row: row})
	// One WR carries the splatted x AND triggers the MAC.
	d.issue(hbm.Command{Kind: hbm.CmdWR, Bank: 0, Col: 0, Data: splat(x)})
	if !exec.AllDone() {
		t.Fatal("not done")
	}

	got := exec.Unit(0).GRF(1, 0)
	for l := range w {
		want := fp16.MAC(fp16.Zero, x, w[l])
		if got[l] != want {
			t.Errorf("lane %d: %v, want %v", l, got[l], want)
		}
	}
}

// Test2XVariantDepth: the 2x DSE variant has 16 units with 16-deep GRFs.
func Test2XVariantDepth(t *testing.T) {
	cfg := hbm.PIMHBMVariantConfig(hbm.Variant2X, 1000)
	exec, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if exec.NumUnits() != 16 {
		t.Fatalf("units = %d", exec.NumUnits())
	}
	if got := len(exec.Unit(0).grfA); got != 16 {
		t.Fatalf("GRF depth = %d, want 16", got)
	}
	if cfg.GRFDepth() != 16 {
		t.Fatalf("AAM window = %d, want 16", cfg.GRFDepth())
	}
}

func TestRegisterSpaceBounds(t *testing.T) {
	u := newUnit(isa.GRFEntries)
	if err := u.writeRegSpace(hbm.RegCRF, 4, make([]byte, 32)); err == nil {
		t.Error("CRF col 4 accepted (only 32 words)")
	}
	if err := u.writeRegSpace(hbm.RegGRF, 16, make([]byte, 32)); err == nil {
		t.Error("GRF col 16 accepted")
	}
	if err := u.writeRegSpace(hbm.RegSRF, 1, make([]byte, 32)); err == nil {
		t.Error("SRF col 1 accepted")
	}
	if err := u.writeRegSpace(hbm.RegCRF, 0, make([]byte, 8)); err == nil {
		t.Error("short payload accepted")
	}
	if err := u.readRegSpace(hbm.RegCRF, 4, make([]byte, 32)); err == nil {
		t.Error("CRF read col 4 accepted")
	}
	if err := u.readRegSpace(hbm.RegMode, 0, make([]byte, 32)); err == nil {
		t.Error("mode-space read routed to unit")
	}
}

func TestCRFRoundTripThroughRegisterSpace(t *testing.T) {
	u := newUnit(isa.GRFEntries)
	prog := mustAssemble(t, `
		MAC GRF_B[0], GRF_A[0], EVEN_BANK
		JUMP -1, 7
		EXIT
	`)
	words, err := isa.EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	for i, w := range words {
		buf[4*i] = byte(w)
		buf[4*i+1] = byte(w >> 8)
		buf[4*i+2] = byte(w >> 16)
		buf[4*i+3] = byte(w >> 24)
	}
	if err := u.writeRegSpace(hbm.RegCRF, 0, buf); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 32)
	if err := u.readRegSpace(hbm.RegCRF, 0, out); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if out[i] != buf[i] {
			t.Fatalf("byte %d: %02x != %02x", i, out[i], buf[i])
		}
	}
	back, err := isa.DecodeProgram([]uint32{u.crf[0], u.crf[1], u.crf[2]})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(isa.FormatProgram(back)); !strings.Contains(got, "MAC") {
		t.Errorf("decoded program:\n%s", got)
	}
}

func TestExecutorValidation(t *testing.T) {
	if _, err := NewExecutor(hbm.HBM2Config(1000)); err == nil {
		t.Error("executor built for a device with no PIM units")
	}
	cfg := hbm.PIMHBMConfig(1000)
	if _, err := NewExecutor(cfg); err != nil {
		t.Error(err)
	}
}

// TestFILLLoadsRegisters exercises FILL into both a GRF register and the
// scalar register files, then uses the loaded scalars through MAD.
func TestFILLLoadsRegisters(t *testing.T) {
	cfg := hbm.PIMHBMConfig(1000)
	d, exec := newDriver(t, cfg)
	const row = 33

	// Bank data: one block whose first 8 halves feed SRF_M, next 8 SRF_A;
	// and a vector block for GRF.
	srfBlock := fp16.NewVector(16)
	for i := range srfBlock {
		srfBlock[i] = fp16.FromFloat32(float32(i) * 0.5)
	}
	vec := fp16.FromFloat32s([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	for u := 0; u < 8; u++ {
		d.writeBankSB(2*u, row, 0, srfBlock.Bytes())
		d.writeBankSB(2*u, row, 1, vec.Bytes())
	}

	prog := mustAssemble(t, `
		FILL SRF_M[0], EVEN_BANK        ; col 0 lanes 0-7 -> SRF_M
		FILL SRF_A[0], EVEN_BANK        ; col 0 lanes 8-15 -> SRF_A
		FILL GRF_A[3], EVEN_BANK        ; col 1: loads the vector
		MAD GRF_B[0], GRF_A[3], SRF_M[2]
		MOV ODD_BANK, GRF_B[0]
		EXIT
	`)
	d.enterAB()
	d.programCRF(prog)
	d.setPIMOp(true)
	d.issue(hbm.Command{Kind: hbm.CmdACT, Row: row})
	d.issue(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: 0})
	d.issue(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: 0})
	d.issue(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: 1})
	d.issue(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: 2})
	d.issue(hbm.Command{Kind: hbm.CmdWR, Bank: 1, Col: 5})
	if !exec.AllDone() {
		t.Fatal("not done")
	}

	// FILL split the 32B into SRF_M[0..7] then SRF_A[0..7].
	u0 := exec.Unit(0)
	for i := 0; i < 8; i++ {
		if u0.SRF(0, i) != srfBlock[i] {
			t.Errorf("SRF_M[%d] = %v, want %v", i, u0.SRF(0, i), srfBlock[i])
		}
		if u0.SRF(1, i) != srfBlock[8+i] {
			t.Errorf("SRF_A[%d] = %v, want %v", i, u0.SRF(1, i), srfBlock[8+i])
		}
	}
	// MAD with SRF_M[2] and SRF_A[2]: y = vec*1.0 + 5.0.
	d.issue(hbm.Command{Kind: hbm.CmdPREA})
	d.setPIMOp(false)
	d.exitAB()
	got := fp16.VectorFromBytes(d.readBankSB(1, row, 5))
	for l := range vec {
		want := fp16.MAD(vec[l], srfBlock[2], srfBlock[8+2])
		if got[l] != want {
			t.Errorf("lane %d: %v, want %v", l, got[l], want)
		}
	}
}

func TestExecutorProgramIntrospection(t *testing.T) {
	cfg := hbm.PIMHBMConfig(1000)
	d, exec := newDriver(t, cfg)
	src := mustAssemble(t, `
		MAC(AAM) GRF_B, GRF_A, EVEN_BANK
		JUMP -1, 7
		EXIT
	`)
	d.enterAB()
	d.programCRF(src)
	prog, err := exec.Program(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 3 || prog[0].Op != isa.MAC || prog[2].Op != isa.EXIT {
		t.Fatalf("decoded %v", prog)
	}
	if _, err := exec.Program(99); err == nil {
		t.Error("out-of-range unit accepted")
	}
}

// TestRegisterOnlyArithmetic: instructions without a bank operand (the
// paper's "skip the second pipeline stage" case, e.g. MAD GRF_B[0],
// GRF_A[0], GRF_B[1]) execute under either trigger kind.
func TestRegisterOnlyArithmetic(t *testing.T) {
	cfg := hbm.PIMHBMConfig(1000)
	d, exec := newDriver(t, cfg)
	const row = 12

	a := fp16.FromFloat32s([]float32{1, 2, 3, 4, 5, 6, 7, 8, -1, -2, -3, -4, -5, -6, -7, -8})
	b := fp16.FromFloat32s([]float32{2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5})
	for u := 0; u < 8; u++ {
		d.writeBankSB(2*u, row, 0, a.Bytes())
		d.writeBankSB(2*u, row, 1, b.Bytes())
	}
	// Load both vectors, multiply register-to-register under a WR trigger
	// (no bank access at all), store.
	prog := mustAssemble(t, `
		FILL GRF_A[0], EVEN_BANK
		FILL GRF_B[1], EVEN_BANK
		MUL GRF_B[2], GRF_A[0], GRF_B[1]
		MOV ODD_BANK, GRF_B[2]
		EXIT
	`)
	d.enterAB()
	d.programCRF(prog)
	d.setPIMOp(true)
	d.issue(hbm.Command{Kind: hbm.CmdACT, Row: row})
	d.issue(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: 0})
	d.issue(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: 1})
	d.issue(hbm.Command{Kind: hbm.CmdWR, Bank: 1, Col: 2}) // register-only MUL on a WR slot
	d.issue(hbm.Command{Kind: hbm.CmdWR, Bank: 1, Col: 3})
	if !exec.AllDone() {
		t.Fatal("not done")
	}
	d.issue(hbm.Command{Kind: hbm.CmdPREA})
	d.setPIMOp(false)
	d.exitAB()
	got := fp16.VectorFromBytes(d.readBankSB(1, row, 3))
	for l := range a {
		want := fp16.Mul(a[l], b[l])
		if got[l] != want {
			t.Errorf("lane %d: %v, want %v", l, got[l], want)
		}
	}
}
