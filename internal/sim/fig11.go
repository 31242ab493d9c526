package sim

import (
	"fmt"

	"pimsim/internal/energy"
	"pimsim/internal/hbm"
	"pimsim/internal/isa"
	"pimsim/internal/pim"
)

// Fig. 11: component power of HBM and PIM-HBM over back-to-back DRAM RD
// streams. The HBM side streams column reads at the tCCD_S cadence across
// bank groups in SB mode; the PIM side streams MAC triggers at the tCCD_L
// cadence in AB-PIM mode. Powers come from the device model's activity
// counters through the calibrated component energies.

// Fig11Result summarizes the comparison.
type Fig11Result struct {
	HBM energy.PowerBreakdown // watts per pseudo channel
	PIM energy.PowerBreakdown

	PowerRatio        float64 // PIM / HBM total power (paper: ~1.054)
	PowerRatioNoBufIO float64 // with the buffer-die I/O toggle removed (paper: ~0.9)
	CellIOSARatio     float64 // bank-side power scaling (paper: proportional, ~4x)
	EnergyPerBitRatio float64 // HBM pJ/bit over PIM pJ/bit (paper: ~3.5x)
}

type rdStream struct {
	stats  hbm.Stats
	cycles int64
	cfg    hbm.Config
	bits   float64 // delivered payload bits
}

func streamHBMReads(n int) (rdStream, error) {
	cfg := hbm.HBM2Config(MemClockMHz)
	cfg.Functional = false
	dev, err := hbm.NewDevice(cfg)
	if err != nil {
		return rdStream{}, err
	}
	p := dev.PCH(0)
	var now int64
	issue := func(cmd hbm.Command) error {
		var res hbm.IssueResult
		err := p.IssueEarliest(&cmd, now, &res)
		now = res.Cycle
		return err
	}
	for bg := 0; bg < cfg.BankGroups; bg++ {
		if err := issue(hbm.Command{Kind: hbm.CmdACT, BG: bg, Bank: 0, Row: 0}); err != nil {
			return rdStream{}, err
		}
	}
	cols := cfg.ColumnsPerRow()
	for i := 0; i < n; i++ {
		if err := issue(hbm.Command{Kind: hbm.CmdRD, BG: i % 4, Bank: 0, Col: uint32(i/4) % uint32(cols)}); err != nil {
			return rdStream{}, err
		}
	}
	st := p.Stats()
	return rdStream{stats: st, cycles: now, cfg: cfg, bits: 8 * float64(st.OffChipBytes)}, nil
}

func streamPIMReads(n int) (rdStream, error) {
	cfg := hbm.PIMHBMConfig(MemClockMHz)
	cfg.Functional = false
	dev, err := hbm.NewDevice(cfg)
	if err != nil {
		return rdStream{}, err
	}
	if _, err := pim.Attach(dev); err != nil {
		return rdStream{}, err
	}
	p := dev.PCH(0)
	var now int64
	issue := func(cmd hbm.Command) error {
		var res hbm.IssueResult
		err := p.IssueEarliest(&cmd, now, &res)
		now = res.Cycle
		return err
	}
	// Enter AB, program an endless MAC loop, enter AB-PIM, open a row.
	seq := []hbm.Command{
		{Kind: hbm.CmdACT, BG: 0, Bank: hbm.ABMRBank, Row: cfg.ModeRow()},
		{Kind: hbm.CmdPRE, BG: 0, Bank: hbm.ABMRBank},
	}
	for _, c := range seq {
		if err := issue(c); err != nil {
			return rdStream{}, err
		}
	}
	prog := []isa.Instruction{
		{Op: isa.MAC, Dst: isa.GRFB, Src0: isa.GRFA, Src1: isa.EvenBank, AAM: true},
		isa.Jump(isa.MaxLoopIter, 1),
		isa.Jump(isa.MaxLoopIter, 2),
		isa.Jump(isa.MaxLoopIter, 3),
		isa.Exit(),
	}
	words, err := isa.EncodeProgram(prog)
	if err != nil {
		return rdStream{}, err
	}
	buf := make([]byte, 32)
	for i, w := range words {
		buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
	}
	on := make([]byte, 32)
	on[0] = 1
	seq = []hbm.Command{
		{Kind: hbm.CmdACT, Row: cfg.CRFRow()},
		{Kind: hbm.CmdWR, Col: 0, Data: buf},
		{Kind: hbm.CmdPREA},
		{Kind: hbm.CmdACT, BG: 0, Bank: hbm.ABMRBank, Row: cfg.ModeRow()},
		{Kind: hbm.CmdWR, BG: 0, Bank: hbm.ABMRBank, Col: hbm.ColPIMOpMode, Data: on},
		{Kind: hbm.CmdPRE, BG: 0, Bank: hbm.ABMRBank},
		{Kind: hbm.CmdACT, Row: 1},
	}
	for _, c := range seq {
		if err := issue(c); err != nil {
			return rdStream{}, err
		}
	}
	dev.ResetStats()
	start := now
	cols := cfg.ColumnsPerRow()
	for i := 0; i < n; i++ {
		if err := issue(hbm.Command{Kind: hbm.CmdRD, Bank: 0, Col: uint32(i % cols)}); err != nil {
			return rdStream{}, err
		}
	}
	st := p.Stats()
	return rdStream{
		stats: st, cycles: now - start, cfg: cfg,
		bits: 8 * float64(st.BankReads) * float64(cfg.AccessBytes),
	}, nil
}

// OnChipStreamGBps measures the delivered on-chip bandwidth of one pseudo
// channel under a steady AB-PIM MAC stream (Table V: ~77 GB/s per channel
// at 1.2 GHz, 1.229 TB/s per device).
func OnChipStreamGBps(n int) (float64, error) {
	s, err := streamPIMReads(n)
	if err != nil {
		return 0, err
	}
	bankBytes := float64(s.stats.BankReads) * float64(s.cfg.AccessBytes)
	return bankBytes / s.cfg.Timing.CyclesToNs(s.cycles), nil
}

// RunFig11 reproduces the power breakdown comparison.
func RunFig11() (Fig11Result, error) {
	const n = 8192
	params := energy.DefaultParams()
	h, err := streamHBMReads(n)
	if err != nil {
		return Fig11Result{}, fmt.Errorf("sim: HBM stream: %w", err)
	}
	p, err := streamPIMReads(n)
	if err != nil {
		return Fig11Result{}, fmt.Errorf("sim: PIM stream: %w", err)
	}

	hb := energy.Compute(h.stats, h.cycles, h.cfg, params, 1)
	pb := energy.Compute(p.stats, p.cycles, p.cfg, params, 1)
	hw, err := energy.ToPower(hb, h.cycles, h.cfg.Timing)
	if err != nil {
		return Fig11Result{}, err
	}
	pw, err := energy.ToPower(pb, p.cycles, p.cfg.Timing)
	if err != nil {
		return Fig11Result{}, err
	}

	res := Fig11Result{HBM: hw, PIM: pw}
	res.PowerRatio = pw.Total() / hw.Total()
	res.PowerRatioNoBufIO = (pw.Total() - pw.BufferIO) / hw.Total()
	hbNs := h.cfg.Timing.CyclesToNs(h.cycles)
	pbNs := p.cfg.Timing.CyclesToNs(p.cycles)
	res.CellIOSARatio = ((pb.Cell + pb.IOSA) / pbNs) / ((hb.Cell + hb.IOSA) / hbNs)
	res.EnergyPerBitRatio = (hb.Total() / h.bits) / (pb.Total() / p.bits)
	return res, nil
}
