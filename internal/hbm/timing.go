// Package hbm models an HBM2 (and PIM-HBM) DRAM device at command and
// cycle granularity: pseudo channels, bank groups, banks with JEDEC timing
// state machines, row-buffer data storage, the SB/AB/AB-PIM operating modes
// of Section III-B, and the memory-mapped PIM configuration space.
//
// The model is event driven: callers ask a pseudo channel for the earliest
// legal issue cycle of a command and then issue it at (or after) that
// cycle; there is no per-cycle tick loop, which keeps multi-million-command
// simulations fast while enforcing every inter-command constraint.
//
// The package is also the one description of a device: Config is the
// organisation, the timing in cycles and the PIM microarchitecture; the
// variants table (config.go) says what each Fig. 14 variant is, the
// preset rows (hbm2Ns here, drams.go) what each DRAM family's timing is
// in nanoseconds. The other packages read facts through Config's
// accessors (GRFDepth, BanksPerUnit, BankOf, TriggerBanks, WROperand)
// and build stacks with runtime.NewStack; none re-derives one.
package hbm

import "fmt"

// Timing holds JEDEC-style DRAM timing parameters in memory-clock cycles
// (tCK). A device family's preset is a Timing row written in nanoseconds
// (hbm2Ns here, gddr6Ns and lpddr5Ns in drams.go); atClock turns a row
// into cycles at a memory clock.
type Timing struct {
	TCKps int // clock period in picoseconds

	BL   int // burst length (column access transfers BL x 64 bits)
	RCD  int // ACT to column command
	RP   int // PRE to ACT
	RAS  int // ACT to PRE
	RC   int // ACT to ACT, same bank
	RL   int // read latency (column RD to first data)
	WL   int // write latency (column WR to first data)
	CCDS int // column to column, different bank group
	CCDL int // column to column, same bank group
	RRDS int // ACT to ACT, different bank group
	RRDL int // ACT to ACT, same bank group
	FAW  int // four-activate window
	WR   int // write recovery (end of write data to PRE)
	RTP  int // read to precharge
	WTRS int // end of write data to read, different bank group
	WTRL int // end of write data to read, same bank group
	RTW  int // read command to write command turnaround
	REFI int // average refresh interval
	RFC  int // refresh cycle time (all-bank)
}

// hbm2Ns is the HBM2 generation the paper builds on (JESD235, Sohn et al.
// 20nm 307 GB/s HBM DRAM; 1000-1200 MHz parts), in nanoseconds.
var hbm2Ns = Timing{
	BL:   4,
	RCD:  14,
	RP:   14,
	RAS:  33,
	RC:   47,
	RL:   14,
	WL:   4,
	CCDS: 2,
	CCDL: 4,
	RRDS: 4,
	RRDL: 6,
	FAW:  16,
	WR:   15,
	RTP:  5,
	WTRS: 3,
	WTRL: 8,
	RTW:  8,
	REFI: 3900,
	RFC:  260,
}

// atClock converts a preset row to cycles at the given memory clock in
// MHz: the fixed-nanosecond parameters round up to whole cycles, the
// fixed-cycle ones (BL, tCCD_S, tCCD_L) are taken as written.
func (ns Timing) atClock(mhz int) Timing {
	t := ns
	t.TCKps = 1000000 / mhz
	for _, p := range []*int{&t.RCD, &t.RP, &t.RAS, &t.RC, &t.RL, &t.WL, &t.RRDS, &t.RRDL, &t.FAW,
		&t.WR, &t.RTP, &t.WTRS, &t.WTRL, &t.RTW, &t.REFI, &t.RFC} {
		*p = (*p*mhz + 999) / 1000
	}
	return t
}

// DataCycles is the data-bus occupancy of one column access: BL beats at
// double data rate. Pointer receiver: the controllers call it once per
// column command, and the table is too large to copy each time.
func (t *Timing) DataCycles() int { return t.BL / 2 }

// Validate sanity-checks parameter relationships.
func (t Timing) Validate() error {
	switch {
	case t.TCKps <= 0:
		return fmt.Errorf("hbm: non-positive tCK")
	case t.BL <= 0 || t.BL%2 != 0:
		return fmt.Errorf("hbm: burst length %d must be positive and even", t.BL)
	case t.RC < t.RAS+t.RP:
		return fmt.Errorf("hbm: tRC %d < tRAS %d + tRP %d", t.RC, t.RAS, t.RP)
	case t.CCDL < t.CCDS:
		return fmt.Errorf("hbm: tCCD_L %d < tCCD_S %d", t.CCDL, t.CCDS)
	case t.RRDL < t.RRDS:
		return fmt.Errorf("hbm: tRRD_L %d < tRRD_S %d", t.RRDL, t.RRDS)
	case t.FAW < t.RRDS:
		return fmt.Errorf("hbm: tFAW %d < tRRD_S %d", t.FAW, t.RRDS)
	case t.REFI <= t.RFC:
		return fmt.Errorf("hbm: tREFI %d <= tRFC %d leaves no issue slots", t.REFI, t.RFC)
	}
	return nil
}

// CyclesToNs converts a cycle count to nanoseconds under this timing.
func (t Timing) CyclesToNs(cycles int64) float64 {
	return float64(cycles) * float64(t.TCKps) / 1000.0
}

// CyclesToSec converts a cycle count to seconds.
func (t Timing) CyclesToSec(cycles int64) float64 {
	return float64(cycles) * float64(t.TCKps) * 1e-12
}
