// Package energy converts device activity counters into component-level
// energy and power, reproducing the structure of Fig. 11: cell and
// IOSA/decoder power scale with the number of concurrently accessed banks,
// while the internal global I/O bus and the I/O PHY go quiet in AB-PIM
// mode because data never leaves the bank periphery. The buffer die's
// 1024-bit data I/O circuit keeps toggling in PIM mode on the fabricated
// part (the ~10% saving the paper says it left on the table).
//
// Parameter calibration (params.go) targets the paper's three measured
// anchors: PIM-HBM draws ~5.4% more power than HBM over back-to-back RD
// streams, at 4x the delivered (on-chip) bandwidth, which yields ~3.5-3.8x
// lower energy per bit.
package energy

import (
	"fmt"

	"pimsim/internal/hbm"
)

// Breakdown is energy by component, in picojoules.
type Breakdown struct {
	Cell       float64 // DRAM cell array column activity
	IOSA       float64 // I/O sense amps + row/column decoders
	Activate   float64 // row activation/precharge energy
	GlobalBus  float64 // internal bank-to-periphery data bus
	BufferIO   float64 // buffer-die 1024-bit data I/O circuit
	IOPHY      float64 // external PHY drivers
	PIMFPU     float64 // PIM execution units
	Refresh    float64
	Background float64 // standby, clocking, peripheral static
}

// Total sums all components (pJ).
func (b Breakdown) Total() float64 {
	return b.Cell + b.IOSA + b.Activate + b.GlobalBus + b.BufferIO +
		b.IOPHY + b.PIMFPU + b.Refresh + b.Background
}

// Compute derives the energy breakdown for activity stats accumulated over
// `cycles` device clocks. banksPerACT is how many banks one broadcast ACT
// opens (Config.Banks()); pchs is how many pseudo channels the background
// power covers (use the number of channels the stats were summed over).
func Compute(st hbm.Stats, cycles int64, cfg hbm.Config, p Params, pchs int) Breakdown {
	var b Breakdown

	bankAccesses := float64(st.BankReads + st.BankWrites)
	b.Cell += bankAccesses * p.CellColPJ
	b.IOSA += bankAccesses * p.IOSAColPJ
	if cfg.ECC {
		// The on-die engine encodes on writes and decodes on reads.
		b.IOSA += bankAccesses * p.ECCCheckPJ
	}

	acts := float64(st.ACT) + float64(st.ABACT)*float64(cfg.Banks())
	b.Activate += acts * p.ActivatePJ
	pres := float64(st.PRE) + float64(st.ABPRE)*float64(cfg.Banks())
	b.Activate += pres * p.PrechargePJ

	// Every column command toggles the buffer-die data I/O circuit, even
	// PIM triggers that move no data off chip.
	colCmds := float64(st.RD + st.WR + st.ABRD + st.ABWR)
	b.BufferIO += colCmds * p.BufferIOPJ

	// Only data that actually crosses the device boundary pays the
	// internal global bus and the external PHY.
	offBlocks := float64(st.OffChipBytes) / float64(cfg.AccessBytes)
	b.GlobalBus += offBlocks * p.GlobalBusPJ
	b.IOPHY += offBlocks * p.IOPHYPJ

	b.PIMFPU += float64(st.PIMArith) * p.FPUOpPJ
	b.PIMFPU += float64(st.PIMMove) * p.PIMMovePJ

	b.Refresh += float64(st.REF) * p.RefreshPJ

	// mW * ns = 1e-3 J/s * 1e-9 s = 1e-12 J = pJ, so the product is
	// already in picojoules.
	ns := cfg.Timing.CyclesToNs(cycles)
	b.Background += ns * p.BackgroundMWPerPCH * float64(pchs)

	return b
}

// PowerBreakdown converts each component into average watts.
type PowerBreakdown struct {
	Cell, IOSA, Activate, GlobalBus, BufferIO, IOPHY, PIMFPU, Refresh, Background float64
}

// ToPower divides every component by the elapsed time.
func ToPower(b Breakdown, cycles int64, t hbm.Timing) (PowerBreakdown, error) {
	sec := t.CyclesToSec(cycles)
	if sec <= 0 {
		return PowerBreakdown{}, fmt.Errorf("energy: non-positive interval")
	}
	w := func(pj float64) float64 { return pj * 1e-12 / sec }
	return PowerBreakdown{
		Cell: w(b.Cell), IOSA: w(b.IOSA), Activate: w(b.Activate),
		GlobalBus: w(b.GlobalBus), BufferIO: w(b.BufferIO), IOPHY: w(b.IOPHY),
		PIMFPU: w(b.PIMFPU), Refresh: w(b.Refresh), Background: w(b.Background),
	}, nil
}

// Total sums the power components (watts).
func (p PowerBreakdown) Total() float64 {
	return p.Cell + p.IOSA + p.Activate + p.GlobalBus + p.BufferIO +
		p.IOPHY + p.PIMFPU + p.Refresh + p.Background
}
