package hbm

import (
	"bytes"
	"testing"
)

// seq issues commands back to back at their earliest legal cycles.
type seq struct {
	t   *testing.T
	p   *PseudoChannel
	now int64
}

func (s *seq) issue(cmd Command) IssueResult {
	s.t.Helper()
	at, err := s.p.EarliestIssue(cmd, s.now)
	if err != nil {
		s.t.Fatalf("EarliestIssue(%s): %v", cmd, err)
	}
	res, err := s.p.Issue(cmd, at)
	if err != nil {
		s.t.Fatalf("Issue(%s) at %d: %v", cmd, at, err)
	}
	s.now = at
	return res
}

func (s *seq) issueErr(cmd Command) error {
	s.t.Helper()
	at, err := s.p.EarliestIssue(cmd, s.now)
	if err != nil {
		return err
	}
	_, err = s.p.Issue(cmd, at)
	return err
}

func newTestPCH(t *testing.T, cfg Config) *seq {
	t.Helper()
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &seq{t: t, p: dev.PCH(0)}
}

func TestTimingPresets(t *testing.T) {
	// Every preset row through the one rounding function, pinned in
	// cycles: the values the rest of the suite's cycle goldens stand on.
	for _, tc := range []struct {
		name string
		got  Timing
		want Timing
	}{
		{"HBM2@1000", HBM2Config(1000).Timing, Timing{TCKps: 1000, BL: 4, RCD: 14, RP: 14, RAS: 33, RC: 47, RL: 14, WL: 4,
			CCDS: 2, CCDL: 4, RRDS: 4, RRDL: 6, FAW: 16, WR: 15, RTP: 5, WTRS: 3, WTRL: 8, RTW: 8, REFI: 3900, RFC: 260}},
		{"HBM2@1200", PIMHBMConfig(1200).Timing, Timing{TCKps: 833, BL: 4, RCD: 17, RP: 17, RAS: 40, RC: 57, RL: 17, WL: 5,
			CCDS: 2, CCDL: 4, RRDS: 5, RRDL: 8, FAW: 20, WR: 18, RTP: 6, WTRS: 4, WTRL: 10, RTW: 10, REFI: 4680, RFC: 312}},
		{"GDDR6@1250", GDDR6PIMConfig(1250).Timing, Timing{TCKps: 800, BL: 16, RCD: 23, RP: 23, RAS: 40, RC: 63, RL: 23, WL: 8,
			CCDS: 2, CCDL: 4, RRDS: 7, RRDL: 9, FAW: 28, WR: 19, RTP: 8, WTRS: 5, WTRL: 10, RTW: 12, REFI: 4875, RFC: 350}},
		{"LPDDR5@800", LPDDR5PIMConfig(800).Timing, Timing{TCKps: 1250, BL: 8, RCD: 15, RP: 17, RAS: 34, RC: 51, RL: 16, WL: 8,
			CCDS: 4, CCDL: 8, RRDS: 6, RRDL: 8, FAW: 24, WR: 15, RTP: 6, WTRS: 5, WTRL: 10, RTW: 10, REFI: 3120, RFC: 304}},
	} {
		if err := tc.got.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if tc.got != tc.want {
			t.Errorf("%s:\n got  %+v\n want %+v", tc.name, tc.got, tc.want)
		}
	}
}

func TestConfigBandwidths(t *testing.T) {
	c := HBM2Config(1000)
	if got := c.OffChipGBps(); got != 256 {
		t.Errorf("HBM2 off-chip = %v GB/s, want 256", got)
	}
	p := PIMHBMConfig(1000)
	if got := p.OnChipGBps(); got < 1023.9 || got > 1024.1 {
		t.Errorf("PIM-HBM on-chip = %v GB/s, want 1024 (Table V: 1TB/s)", got)
	}
	p12 := PIMHBMConfig(1200)
	if got := p12.OffChipGBps(); got < 307 || got > 308 {
		t.Errorf("PIM-HBM off-chip at 1.2GHz = %v GB/s, want ~307.2 (Table V)", got)
	}
	if got := p12.OnChipGBps(); got < 1228 || got > 1230 {
		t.Errorf("PIM-HBM on-chip at 1.2GHz = %v GB/s, want ~1229 (Table V)", got)
	}
	// The on-chip : off-chip ratio of the product is 4x (8 units x 32B per
	// tCCD_L vs 32B per tCCD_S).
	if r := p.OnChipGBps() / p.OffChipGBps(); r < 3.99 || r > 4.01 {
		t.Errorf("on/off ratio = %v, want 4", r)
	}
}

func TestConfigCapacity(t *testing.T) {
	if got := HBM2Config(1000).DeviceBytes(); got != 4<<30 {
		t.Errorf("HBM2 device = %d bytes, want 4 GiB (4 x 8Gb dies)", got)
	}
	if got := PIMHBMConfig(1000).DeviceBytes(); got != 2<<30 {
		t.Errorf("PIM-HBM PIM-die capacity = %d bytes, want 2 GiB (4 x 4Gb dies)", got)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := HBM2Config(1000)
	bad.PIMUnits = 3 // does not divide 16 banks
	if err := bad.Validate(); err == nil {
		t.Error("3 PIM units accepted")
	}
	bad = HBM2Config(1000)
	bad.Variant = Variant2BA
	if err := bad.Validate(); err == nil {
		t.Error("DSE variant without PIM units accepted")
	}
	bad = HBM2Config(1000)
	bad.RowBytes = 100
	if err := bad.Validate(); err == nil {
		t.Error("unaligned row size accepted")
	}
}

func TestActToReadRespectsTRCD(t *testing.T) {
	s := newTestPCH(t, HBM2Config(1000))
	tm := s.p.cfg.Timing
	s.issue(Command{Kind: CmdACT, BG: 0, Bank: 0, Row: 5})
	at, err := s.p.EarliestIssue(Command{Kind: CmdRD, BG: 0, Bank: 0, Col: 0}, s.now)
	if err != nil {
		t.Fatal(err)
	}
	if at != int64(tm.RCD) {
		t.Errorf("first RD at %d, want tRCD=%d", at, tm.RCD)
	}
	// Issuing earlier must be rejected.
	if _, err := s.p.Issue(Command{Kind: CmdRD, BG: 0, Bank: 0, Col: 0}, at-1); err == nil {
		t.Error("RD before tRCD accepted")
	}
}

func TestColumnCadence(t *testing.T) {
	s := newTestPCH(t, HBM2Config(1000))
	tm := s.p.cfg.Timing
	s.issue(Command{Kind: CmdACT, BG: 0, Bank: 0, Row: 1})
	s.issue(Command{Kind: CmdACT, BG: 1, Bank: 0, Row: 1})
	r1 := s.issue(Command{Kind: CmdRD, BG: 0, Bank: 0})
	// Same bank group: tCCD_L apart.
	r2 := s.issue(Command{Kind: CmdRD, BG: 0, Bank: 0})
	if r2.Cycle-r1.Cycle != int64(tm.CCDL) {
		t.Errorf("same-BG column gap %d, want tCCD_L=%d", r2.Cycle-r1.Cycle, tm.CCDL)
	}
	// Different bank group: tCCD_S after the last column.
	r3 := s.issue(Command{Kind: CmdRD, BG: 1, Bank: 0})
	if r3.Cycle-r2.Cycle != int64(tm.CCDS) {
		t.Errorf("cross-BG column gap %d, want tCCD_S=%d", r3.Cycle-r2.Cycle, tm.CCDS)
	}
}

func TestFourActivateWindow(t *testing.T) {
	s := newTestPCH(t, HBM2Config(1000))
	tm := s.p.cfg.Timing
	var times [5]int64
	for i := 0; i < 5; i++ {
		res := s.issue(Command{Kind: CmdACT, BG: i % 4, Bank: i / 4, Row: 0})
		times[i] = res.Cycle
	}
	if got := times[4] - times[0]; got < int64(tm.FAW) {
		t.Errorf("5th ACT only %d cycles after 1st, want >= tFAW=%d", got, tm.FAW)
	}
}

func TestRowCyclePreActRead(t *testing.T) {
	s := newTestPCH(t, HBM2Config(1000))
	tm := s.p.cfg.Timing
	a1 := s.issue(Command{Kind: CmdACT, BG: 0, Bank: 0, Row: 1})
	p1 := s.issue(Command{Kind: CmdPRE, BG: 0, Bank: 0})
	if p1.Cycle-a1.Cycle < int64(tm.RAS) {
		t.Errorf("PRE %d cycles after ACT, want >= tRAS=%d", p1.Cycle-a1.Cycle, tm.RAS)
	}
	a2 := s.issue(Command{Kind: CmdACT, BG: 0, Bank: 0, Row: 2})
	if a2.Cycle-p1.Cycle < int64(tm.RP) {
		t.Errorf("ACT %d cycles after PRE, want >= tRP=%d", a2.Cycle-p1.Cycle, tm.RP)
	}
	if a2.Cycle-a1.Cycle < int64(tm.RC) {
		t.Errorf("ACT-to-ACT %d cycles, want >= tRC=%d", a2.Cycle-a1.Cycle, tm.RC)
	}
}

func TestIllegalSequences(t *testing.T) {
	s := newTestPCH(t, HBM2Config(1000))
	if err := s.issueErr(Command{Kind: CmdRD, BG: 0, Bank: 0}); err == nil {
		t.Error("RD to idle bank accepted")
	}
	if err := s.issueErr(Command{Kind: CmdPRE, BG: 0, Bank: 0}); err == nil {
		t.Error("PRE to idle bank accepted")
	}
	s.issue(Command{Kind: CmdACT, BG: 0, Bank: 0, Row: 1})
	if err := s.issueErr(Command{Kind: CmdACT, BG: 0, Bank: 0, Row: 2}); err == nil {
		t.Error("ACT to open bank accepted")
	}
	if err := s.issueErr(Command{Kind: CmdACT, BG: 9, Bank: 0, Row: 0}); err == nil {
		t.Error("out-of-range bank group accepted")
	}
	if err := s.issueErr(Command{Kind: CmdRD, BG: 0, Bank: 0, Col: 9999}); err == nil {
		t.Error("out-of-range column accepted")
	}
	if err := s.issueErr(Command{Kind: CmdACT, BG: 1, Bank: 0, Row: 1 << 30}); err == nil {
		t.Error("out-of-range row accepted")
	}
}

func TestWriteReadData(t *testing.T) {
	s := newTestPCH(t, HBM2Config(1000))
	payload := bytes.Repeat([]byte{0xAB, 0xCD}, 16)
	s.issue(Command{Kind: CmdACT, BG: 2, Bank: 3, Row: 7})
	s.issue(Command{Kind: CmdWR, BG: 2, Bank: 3, Col: 5, Data: payload})
	res := s.issue(Command{Kind: CmdRD, BG: 2, Bank: 3, Col: 5})
	if !bytes.Equal(res.Data, payload) {
		t.Fatalf("read back %x", res.Data)
	}
	// Another column of the same row is still zero.
	res = s.issue(Command{Kind: CmdRD, BG: 2, Bank: 3, Col: 6})
	if !bytes.Equal(res.Data, make([]byte, 32)) {
		t.Fatalf("untouched column = %x", res.Data)
	}
	// Data persists across PRE and re-ACT.
	s.issue(Command{Kind: CmdPRE, BG: 2, Bank: 3})
	s.issue(Command{Kind: CmdACT, BG: 2, Bank: 3, Row: 7})
	res = s.issue(Command{Kind: CmdRD, BG: 2, Bank: 3, Col: 5})
	if !bytes.Equal(res.Data, payload) {
		t.Fatalf("after reopen: %x", res.Data)
	}
}

func TestRefreshBlocksBank(t *testing.T) {
	s := newTestPCH(t, HBM2Config(1000))
	tm := s.p.cfg.Timing
	ref := s.issue(Command{Kind: CmdREF})
	act, err := s.p.EarliestIssue(Command{Kind: CmdACT, BG: 0, Bank: 0, Row: 0}, s.now)
	if err != nil {
		t.Fatal(err)
	}
	if act-ref.Cycle < int64(tm.RFC) {
		t.Errorf("ACT %d cycles after REF, want >= tRFC=%d", act-ref.Cycle, tm.RFC)
	}
	// REF with an open bank is illegal.
	s.now = act
	s.issue(Command{Kind: CmdACT, BG: 0, Bank: 0, Row: 0})
	if err := s.issueErr(Command{Kind: CmdREF}); err == nil {
		t.Error("REF with open bank accepted")
	}
}

// TestRefreshLegalIsTheREFVerdict: the controller's yes/no probe must
// agree with the legality verdict EarliestIssue gives a REF, in every bank
// state it is asked in.
func TestRefreshLegalIsTheREFVerdict(t *testing.T) {
	s := newTestPCH(t, HBM2Config(1000))
	check := func(when string) {
		t.Helper()
		_, err := s.p.EarliestIssue(Command{Kind: CmdREF}, s.now)
		if got := s.p.RefreshLegal(); got != (err == nil) {
			t.Errorf("%s: RefreshLegal = %v, EarliestIssue(REF) error = %v", when, got, err)
		}
	}
	check("all banks idle")
	s.issue(Command{Kind: CmdACT, BG: 1, Bank: 2, Row: 9})
	check("one bank open")
	s.issue(Command{Kind: CmdACT, BG: 3, Bank: 0, Row: 4})
	s.issue(Command{Kind: CmdPRE, BG: 1, Bank: 2})
	check("another bank still open")
	s.issue(Command{Kind: CmdPREA})
	check("after PREA")
	s.issue(Command{Kind: CmdREF})
	check("after a refresh")
}

func TestStatsCounting(t *testing.T) {
	s := newTestPCH(t, HBM2Config(1000))
	s.issue(Command{Kind: CmdACT, BG: 0, Bank: 0, Row: 1})
	s.issue(Command{Kind: CmdWR, BG: 0, Bank: 0, Col: 0, Data: make([]byte, 32)})
	s.issue(Command{Kind: CmdRD, BG: 0, Bank: 0, Col: 0})
	s.issue(Command{Kind: CmdPRE, BG: 0, Bank: 0})
	st := s.p.Stats()
	if st.ACT != 1 || st.WR != 1 || st.RD != 1 || st.PRE != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.OffChipBytes != 64 {
		t.Errorf("off-chip bytes = %d, want 64", st.OffChipBytes)
	}
	if st.BankReads != 1 || st.BankWrites != 1 {
		t.Errorf("bank traffic = %d/%d", st.BankReads, st.BankWrites)
	}
	s.p.ResetStats()
	if s.p.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero")
	}
}

// enterAB drives the ACT+PRE handshake on the ABMR address.
func enterAB(s *seq) {
	s.issue(Command{Kind: CmdACT, BG: 0, Bank: abmrBank, Row: s.p.cfg.ModeRow()})
	s.issue(Command{Kind: CmdPRE, BG: 0, Bank: abmrBank})
}

// exitAB drives the ACT+PRE handshake on the SBMR address.
func exitAB(s *seq) {
	s.issue(Command{Kind: CmdACT, BG: 0, Bank: sbmrBank, Row: s.p.cfg.ModeRow()})
	s.issue(Command{Kind: CmdPRE, BG: 0, Bank: sbmrBank})
}

func TestModeTransitions(t *testing.T) {
	s := newTestPCH(t, PIMHBMConfig(1000))
	if s.p.Mode() != ModeSB {
		t.Fatal("initial mode not SB")
	}
	enterAB(s)
	if s.p.Mode() != ModeAB {
		t.Fatalf("after ABMR handshake: %s", s.p.Mode())
	}
	exitAB(s)
	if s.p.Mode() != ModeSB {
		t.Fatalf("after SBMR handshake: %s", s.p.Mode())
	}
	if got := s.p.Stats().ModeSwitches; got != 2 {
		t.Errorf("mode switches = %d, want 2", got)
	}
}

func TestOrdinaryActPreDoesNotSwitchMode(t *testing.T) {
	s := newTestPCH(t, HBM2Config(1000))
	// ACT+PRE on a normal row of bank 0 must not enter AB mode.
	s.issue(Command{Kind: CmdACT, BG: 0, Bank: 0, Row: 42})
	s.issue(Command{Kind: CmdPRE, BG: 0, Bank: 0})
	if s.p.Mode() != ModeSB {
		t.Fatalf("mode changed by ordinary traffic: %s", s.p.Mode())
	}
}

func TestABBroadcastWriteAndRead(t *testing.T) {
	s := newTestPCH(t, PIMHBMConfig(1000))
	enterAB(s)
	payload := bytes.Repeat([]byte{0x11, 0x22}, 16)
	s.issue(Command{Kind: CmdACT, Row: 9}) // broadcast ACT
	s.issue(Command{Kind: CmdWR, Col: 3, Data: payload})
	res := s.issue(Command{Kind: CmdRD, Col: 3})
	if !bytes.Equal(res.Data, payload) {
		t.Fatalf("AB read back %x", res.Data)
	}
	st := s.p.Stats()
	if st.ABACT != 1 || st.ABWR != 1 || st.ABRD != 1 {
		t.Errorf("AB stats: %+v", st)
	}
	if st.BankWrites != 16 {
		t.Errorf("broadcast write touched %d banks, want 16", st.BankWrites)
	}
	// Exit requires all rows closed first.
	s.issue(Command{Kind: CmdPREA})
	exitAB(s)
	// In SB mode every bank now holds the broadcast data.
	for _, bk := range []struct{ bg, b int }{{0, 0}, {1, 2}, {3, 3}} {
		s.issue(Command{Kind: CmdACT, BG: bk.bg, Bank: bk.b, Row: 9})
		r := s.issue(Command{Kind: CmdRD, BG: bk.bg, Bank: bk.b, Col: 3})
		if !bytes.Equal(r.Data, payload) {
			t.Errorf("bank bg%d b%d: %x", bk.bg, bk.b, r.Data)
		}
		s.issue(Command{Kind: CmdPRE, BG: bk.bg, Bank: bk.b})
	}
}

func TestABColumnCadenceIsCCDL(t *testing.T) {
	s := newTestPCH(t, PIMHBMConfig(1000))
	tm := s.p.cfg.Timing
	enterAB(s)
	s.issue(Command{Kind: CmdACT, Row: 0})
	r1 := s.issue(Command{Kind: CmdRD, Col: 0})
	r2 := s.issue(Command{Kind: CmdRD, Col: 1})
	if r2.Cycle-r1.Cycle != int64(tm.CCDL) {
		t.Errorf("AB column gap %d, want tCCD_L=%d (Section III-B)", r2.Cycle-r1.Cycle, tm.CCDL)
	}
}

func TestBroadcastActToModeRowIllegal(t *testing.T) {
	s := newTestPCH(t, PIMHBMConfig(1000))
	enterAB(s)
	if err := s.issueErr(Command{Kind: CmdACT, BG: 2, Bank: 2, Row: s.p.cfg.ModeRow()}); err == nil {
		t.Error("broadcast ACT to mode row accepted")
	}
}

// fakeExec records executor interactions for device-level tests.
type fakeExec struct {
	regWrites map[RegSpace]map[int][]uint32 // space -> unit -> cols
	triggers  []TriggerContext
	resets    int
	readBack  byte
}

func newFakeExec() *fakeExec {
	return &fakeExec{regWrites: map[RegSpace]map[int][]uint32{}}
}

func (f *fakeExec) RegisterWrite(unit int, space RegSpace, col uint32, data []byte) error {
	m := f.regWrites[space]
	if m == nil {
		m = map[int][]uint32{}
		f.regWrites[space] = m
	}
	m[unit] = append(m[unit], col)
	return nil
}

func (f *fakeExec) RegisterRead(unit int, space RegSpace, col uint32, buf []byte) error {
	for i := range buf {
		buf[i] = f.readBack
	}
	return nil
}

func (f *fakeExec) Trigger(ctx *TriggerContext) (TriggerInfo, error) {
	f.triggers = append(f.triggers, *ctx)
	return TriggerInfo{Instructions: 8, Arithmetic: 8}, nil
}

func (f *fakeExec) ResetPPC() { f.resets++ }

func setPIMOp(s *seq, on bool) {
	v := byte(0)
	if on {
		v = 1
	}
	data := make([]byte, 32)
	data[0] = v
	s.issue(Command{Kind: CmdACT, BG: 0, Bank: abmrBank, Row: s.p.cfg.ModeRow()})
	s.issue(Command{Kind: CmdWR, BG: 0, Bank: abmrBank, Col: ColPIMOpMode, Data: data})
	s.issue(Command{Kind: CmdPRE, BG: 0, Bank: abmrBank})
}

func TestABPIMFullFlow(t *testing.T) {
	s := newTestPCH(t, PIMHBMConfig(1000))
	exec := newFakeExec()
	s.p.AttachPIM(exec)

	enterAB(s)

	// Program the CRF: broadcast writes on the CRF row reach each of the 8
	// units exactly once per column.
	s.issue(Command{Kind: CmdACT, Row: s.p.cfg.CRFRow()})
	s.issue(Command{Kind: CmdWR, Col: 0, Data: make([]byte, 32)})
	s.issue(Command{Kind: CmdWR, Col: 1, Data: make([]byte, 32)})
	s.issue(Command{Kind: CmdPREA})
	if got := len(exec.regWrites[RegCRF]); got != 8 {
		t.Fatalf("CRF writes reached %d units, want 8", got)
	}
	for u, cols := range exec.regWrites[RegCRF] {
		if len(cols) != 2 {
			t.Errorf("unit %d received %d CRF writes, want 2", u, len(cols))
		}
	}

	// Entering AB-PIM (note: entering AB-PIM resets the PPCs).
	setPIMOp(s, true)
	if s.p.Mode() != ModeABPIM || exec.resets != 1 {
		t.Fatalf("mode=%s resets=%d", s.p.Mode(), exec.resets)
	}

	// Trigger four instructions: RD even, RD odd, WR even, WR odd.
	s.issue(Command{Kind: CmdACT, Row: 11})
	s.issue(Command{Kind: CmdRD, Bank: 0, Col: 4})
	s.issue(Command{Kind: CmdRD, Bank: 1, Col: 5})
	s.issue(Command{Kind: CmdWR, Bank: 0, Col: 6, Data: make([]byte, 32)})
	s.issue(Command{Kind: CmdWR, Bank: 1, Col: 7, Data: make([]byte, 32)})
	if len(exec.triggers) != 4 {
		t.Fatalf("%d triggers, want 4", len(exec.triggers))
	}
	wants := []struct {
		kind CmdKind
		sel  int
		col  uint32
	}{{CmdRD, 0, 4}, {CmdRD, 1, 5}, {CmdWR, 0, 6}, {CmdWR, 1, 7}}
	for i, w := range wants {
		tr := exec.triggers[i]
		if tr.Kind != w.kind || tr.BankSel != w.sel || tr.Col != w.col || tr.Row != 11 {
			t.Errorf("trigger %d = %+v, want %+v row 11", i, tr, w)
		}
	}
	st := s.p.Stats()
	if st.PIMInstr != 32 || st.PIMArith != 32 {
		t.Errorf("PIM instruction stats: %+v", st)
	}

	// Leave AB-PIM, then AB.
	s.issue(Command{Kind: CmdPREA})
	setPIMOp(s, false)
	if s.p.Mode() != ModeAB {
		t.Fatalf("mode after PIM_OP_MODE=0: %s", s.p.Mode())
	}
	exitAB(s)
	if s.p.Mode() != ModeSB {
		t.Fatalf("final mode: %s", s.p.Mode())
	}
}

func TestPIMOpModeRequiresAB(t *testing.T) {
	s := newTestPCH(t, PIMHBMConfig(1000))
	s.p.AttachPIM(newFakeExec())
	data := make([]byte, 32)
	data[0] = 1
	s.issue(Command{Kind: CmdACT, BG: 0, Bank: abmrBank, Row: s.p.cfg.ModeRow()})
	if err := s.issueErr(Command{Kind: CmdWR, BG: 0, Bank: abmrBank, Col: ColPIMOpMode, Data: data}); err == nil {
		t.Error("PIM_OP_MODE=1 accepted in SB mode")
	}
}

func TestABPIMWithoutExecutorFails(t *testing.T) {
	s := newTestPCH(t, PIMHBMConfig(1000))
	enterAB(s)
	data := make([]byte, 32)
	data[0] = 1
	s.issue(Command{Kind: CmdACT, BG: 0, Bank: abmrBank, Row: s.p.cfg.ModeRow()})
	if err := s.issueErr(Command{Kind: CmdWR, BG: 0, Bank: abmrBank, Col: ColPIMOpMode, Data: data}); err == nil {
		t.Error("AB-PIM entered with no executor attached")
	}
}

func TestSBRegisterAccessPerUnit(t *testing.T) {
	s := newTestPCH(t, PIMHBMConfig(1000))
	exec := newFakeExec()
	exec.readBack = 0x5A
	s.p.AttachPIM(exec)
	// In SB mode a GRF-row access on bank 5 (bg1, b1) reaches only unit 2
	// (banks 4-5).
	s.issue(Command{Kind: CmdACT, BG: 1, Bank: 1, Row: s.p.cfg.GRFRow()})
	s.issue(Command{Kind: CmdWR, BG: 1, Bank: 1, Col: 0, Data: make([]byte, 32)})
	res := s.issue(Command{Kind: CmdRD, BG: 1, Bank: 1, Col: 0})
	if res.Data[0] != 0x5A {
		t.Errorf("register read returned %x", res.Data[0])
	}
	if got := exec.regWrites[RegGRF]; len(got) != 1 || len(got[2]) != 1 {
		t.Errorf("GRF writes: %+v, want exactly unit 2", got)
	}
}

func TestDeviceConstruction(t *testing.T) {
	d, err := NewDevice(PIMHBMConfig(1200))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumPCH() != 16 {
		t.Errorf("pCH count %d", d.NumPCH())
	}
	if _, err := NewDevice(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("PCH out of range did not panic")
		}
	}()
	d.PCH(99)
}

func TestDeviceStatsAggregation(t *testing.T) {
	d := MustNewDevice(HBM2Config(1000))
	for i := 0; i < 3; i++ {
		s := &seq{t: t, p: d.PCH(i)}
		s.issue(Command{Kind: CmdACT, BG: 0, Bank: 0, Row: 1})
		s.issue(Command{Kind: CmdRD, BG: 0, Bank: 0, Col: 0})
	}
	st := d.Stats()
	if st.ACT != 3 || st.RD != 3 {
		t.Errorf("aggregated stats: %+v", st)
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Error("ResetStats did not clear")
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	s := newTestPCH(t, HBM2Config(1000))
	tm := s.p.cfg.Timing
	s.issue(Command{Kind: CmdACT, BG: 0, Bank: 0, Row: 0})
	w := s.issue(Command{Kind: CmdWR, BG: 0, Bank: 0, Col: 0, Data: make([]byte, 32)})
	r := s.issue(Command{Kind: CmdRD, BG: 0, Bank: 0, Col: 1})
	minGap := int64(tm.WL + tm.BL/2 + tm.WTRL)
	if r.Cycle-w.Cycle < minGap {
		t.Errorf("WR->RD gap %d, want >= %d", r.Cycle-w.Cycle, minGap)
	}
}
