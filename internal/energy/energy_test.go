package energy

import (
	"math"
	"testing"

	"pimsim/internal/hbm"
	"pimsim/internal/isa"
	"pimsim/internal/pim"
)

func TestBreakdownArithmetic(t *testing.T) {
	a := Breakdown{Cell: 1, IOSA: 2, Background: 3}
	b := Breakdown{Cell: 10, PIMFPU: 5}
	sum := a.Add(b)
	if sum.Cell != 11 || sum.IOSA != 2 || sum.PIMFPU != 5 || sum.Background != 3 {
		t.Errorf("Add: %+v", sum)
	}
	if got := sum.Total(); got != 21 {
		t.Errorf("Total = %v", got)
	}
	if got := sum.Dynamic(); got != 18 {
		t.Errorf("Dynamic = %v", got)
	}
	if got := sum.Scale(2).Total(); got != 42 {
		t.Errorf("Scale = %v", got)
	}
}

func TestBackgroundUnits(t *testing.T) {
	cfg := hbm.HBM2Config(1000)
	p := Params{BackgroundMWPerPCH: 100}
	// 1000 cycles at 1 GHz = 1000 ns; 100 mW over 1000 ns = 100 nJ = 1e5 pJ.
	b := Compute(hbm.Stats{}, 1000, cfg, p, 1)
	if math.Abs(b.Background-1e5) > 1 {
		t.Errorf("background = %v pJ, want 1e5", b.Background)
	}
	// Power back-conversion: 1e5 pJ over 1 us = 0.1 W.
	if w := Power(b, 1000, cfg.Timing); math.Abs(w-0.1) > 1e-9 {
		t.Errorf("power = %v W, want 0.1", w)
	}
}

func TestEnergyPerBit(t *testing.T) {
	b := Breakdown{Cell: 800}
	if got := EnergyPerBit(b, 100); got != 1 {
		t.Errorf("pJ/bit = %v, want 1", got)
	}
	if got := EnergyPerBit(b, 0); got != 0 {
		t.Errorf("zero bytes: %v", got)
	}
}

// streamHBM issues n back-to-back RDs at the tCCD_S cadence across bank
// groups and returns (stats, elapsed cycles).
func streamHBM(t *testing.T, n int) (hbm.Stats, int64, hbm.Config) {
	t.Helper()
	cfg := hbm.HBM2Config(1200)
	cfg.Functional = false
	dev := hbm.MustNewDevice(cfg)
	p := dev.PCH(0)
	var now int64
	issue := func(cmd hbm.Command) {
		t.Helper()
		var res hbm.IssueResult
		if err := p.IssueEarliest(&cmd, now, &res); err != nil {
			t.Fatal(err)
		}
		now = res.Cycle
	}
	for bg := 0; bg < 4; bg++ {
		issue(hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: 0, Row: 0})
	}
	cols := cfg.ColumnsPerRow()
	for i := 0; i < n; i++ {
		issue(hbm.Command{Kind: hbm.CmdRD, BG: i % 4, Bank: 0, Col: uint32(i/4) % uint32(cols)})
	}
	return p.Stats(), now, cfg
}

// streamPIM issues n MAC triggers at the tCCD_L cadence in AB-PIM mode.
func streamPIM(t *testing.T, n int) (hbm.Stats, int64, hbm.Config) {
	t.Helper()
	cfg := hbm.PIMHBMConfig(1200)
	cfg.Functional = false
	dev := hbm.MustNewDevice(cfg)
	if _, err := pim.Attach(dev); err != nil {
		t.Fatal(err)
	}
	p := dev.PCH(0)
	var now int64
	issue := func(cmd hbm.Command) {
		t.Helper()
		var res hbm.IssueResult
		if err := p.IssueEarliest(&cmd, now, &res); err != nil {
			t.Fatal(err)
		}
		now = res.Cycle
	}
	// Enter AB and program a long MAC loop.
	issue(hbm.Command{Kind: hbm.CmdACT, BG: 0, Bank: hbm.ABMRBank, Row: cfg.ModeRow()})
	issue(hbm.Command{Kind: hbm.CmdPRE, BG: 0, Bank: hbm.ABMRBank})
	prog := []isa.Instruction{
		{Op: isa.MAC, Dst: isa.GRFB, Src0: isa.GRFA, Src1: isa.EvenBank, AAM: true},
		isa.Jump(isa.MaxLoopIter, 1),
		isa.Jump(isa.MaxLoopIter, 2),
		isa.Jump(isa.MaxLoopIter, 3),
		isa.Exit(),
	}
	words, err := isa.EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	issue(hbm.Command{Kind: hbm.CmdACT, Row: cfg.CRFRow()})
	buf := make([]byte, 32)
	for i, w := range words {
		buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
	}
	issue(hbm.Command{Kind: hbm.CmdWR, Col: 0, Data: buf})
	issue(hbm.Command{Kind: hbm.CmdPREA})
	on := make([]byte, 32)
	on[0] = 1
	issue(hbm.Command{Kind: hbm.CmdACT, BG: 0, Bank: hbm.ABMRBank, Row: cfg.ModeRow()})
	issue(hbm.Command{Kind: hbm.CmdWR, BG: 0, Bank: hbm.ABMRBank, Col: hbm.ColPIMOpMode, Data: on})
	issue(hbm.Command{Kind: hbm.CmdPRE, BG: 0, Bank: hbm.ABMRBank})
	issue(hbm.Command{Kind: hbm.CmdACT, Row: 1})
	dev.ResetStats() // measure the steady-state stream only
	start := now
	cols := cfg.ColumnsPerRow()
	for i := 0; i < n; i++ {
		issue(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: uint32(i % cols)})
	}
	return p.Stats(), now - start, cfg
}

// TestFig11PowerAnchors drives real back-to-back RD streams through the
// device model and checks the paper's measured power relationships.
func TestFig11PowerAnchors(t *testing.T) {
	const n = 4096
	params := DefaultParams()

	hs, hcyc, hcfg := streamHBM(t, n)
	ps, pcyc, pcfg := streamPIM(t, n)

	hb := Compute(hs, hcyc, hcfg, params, 1)
	pb := Compute(ps, pcyc, pcfg, params, 1)
	hw := Power(hb, hcyc, hcfg.Timing)
	pw := Power(pb, pcyc, pcfg.Timing)

	// Anchor 1: PIM-HBM power ~5.4% above HBM (Fig. 11). Allow 2-9%.
	ratio := pw / hw
	if ratio < 1.02 || ratio > 1.09 {
		t.Errorf("PIM/HBM power ratio = %.3f, want ~1.054", ratio)
	}

	// Anchor 2: removing the buffer-die I/O toggle would put PIM below
	// HBM (the ~10% note).
	pNoBuf := Power(Breakdown{
		Cell: pb.Cell, IOSA: pb.IOSA, Activate: pb.Activate,
		GlobalBus: pb.GlobalBus, IOPHY: pb.IOPHY, PIMFPU: pb.PIMFPU,
		Refresh: pb.Refresh, Background: pb.Background,
	}, pcyc, pcfg.Timing)
	if pNoBuf >= hw {
		t.Errorf("PIM without buffer toggle = %.3f W, want below HBM %.3f W", pNoBuf, hw)
	}

	// Anchor 3: energy per delivered bit 3.5-4x lower for PIM. HBM
	// delivers 32 B per command off chip; PIM delivers 8 x 32 B to the
	// FPUs per command.
	hBits := 8 * float64(hs.OffChipBytes)
	pBits := 8 * float64(ps.BankReads) * 32
	hppb := hb.Total() / hBits
	pppb := pb.Total() / pBits
	if r := hppb / pppb; r < 3.2 || r > 4.2 {
		t.Errorf("energy/bit ratio = %.2f, want ~3.5-3.8", r)
	}

	// Structure: PIM moves nothing off chip during RD triggers; its bus
	// and PHY components must be ~zero while cell+IOSA is ~4x HBM's.
	if pb.GlobalBus > 0.02*pb.Total() || pb.IOPHY > 0.02*pb.Total() {
		t.Errorf("PIM bus/PHY energy should be negligible: %+v", pb)
	}
	cellRatio := (pb.Cell + pb.IOSA) / pcfg.Timing.CyclesToNs(pcyc) /
		((hb.Cell + hb.IOSA) / hcfg.Timing.CyclesToNs(hcyc))
	if cellRatio < 3.5 || cellRatio > 4.5 {
		t.Errorf("cell+IOSA power ratio = %.2f, want ~4 (proportional to banks)", cellRatio)
	}
}

func TestToPowerComponents(t *testing.T) {
	cfg := hbm.HBM2Config(1000)
	b := Breakdown{Cell: 1000, IOPHY: 500}
	pw, err := ToPower(b, 1000, cfg.Timing) // 1 us
	if err != nil {
		t.Fatal(err)
	}
	// 1000 pJ over 1 us = 1e-3 W.
	if math.Abs(pw.Cell-1e-3) > 1e-9 || math.Abs(pw.IOPHY-0.5e-3) > 1e-9 {
		t.Errorf("%+v", pw)
	}
	if math.Abs(pw.Total()-1.5e-3) > 1e-9 {
		t.Errorf("total %v", pw.Total())
	}
	if _, err := ToPower(b, 0, cfg.Timing); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestComputeCountsActivates(t *testing.T) {
	cfg := hbm.PIMHBMConfig(1000)
	p := DefaultParams()
	st := hbm.Stats{ACT: 2, ABACT: 1} // 2 single + 16 broadcast
	b := Compute(st, 1, cfg, p, 1)
	want := 18 * p.ActivatePJ
	if math.Abs(b.Activate-want) > 1e-9 {
		t.Errorf("activate energy %v, want %v", b.Activate, want)
	}
}
