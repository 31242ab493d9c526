package hbm

// Other standard DRAM families. Section III opens with: "Although it is
// illustrated based on HBM2 in this paper, it is applicable to any
// standard DRAM such as DDR, LPDDR, and GDDR DRAM with a few changes."
// These presets are representative JEDEC-class configurations of two such
// families with PIM units at the bank I/O boundary; the rest of the stack
// (ISA, execution units, runtime, BLAS) is geometry-agnostic and runs on
// them unchanged — which is the point.

// gddr6Ns is representative GDDR6 timing (JESD250-class parts) in
// nanoseconds; the clock it is converted at is the command (CA) clock,
// data runs much faster on WCK.
var gddr6Ns = Timing{
	BL:   16, // BL16 on a 16-bit channel moves 32 bytes
	RCD:  18,
	RP:   18,
	RAS:  32,
	RC:   50,
	RL:   18,
	WL:   6,
	CCDS: 2,
	CCDL: 4,
	RRDS: 5,
	RRDL: 7,
	FAW:  22,
	WR:   15,
	RTP:  6,
	WTRS: 4,
	WTRL: 8,
	RTW:  9,
	REFI: 3900,
	RFC:  280,
}

// lpddr5Ns is representative LPDDR5 timing (JESD209-5-class) in
// nanoseconds.
var lpddr5Ns = Timing{
	BL:   8, // BL16 on x16 halves; modeled as 8 beats of 32 bits
	RCD:  18,
	RP:   21,
	RAS:  42,
	RC:   63,
	RL:   20,
	WL:   10,
	CCDS: 4,
	CCDL: 8,
	RRDS: 7,
	RRDL: 10,
	FAW:  30,
	WR:   18,
	RTP:  7,
	WTRS: 6,
	WTRL: 12,
	RTW:  12,
	REFI: 3900,
	RFC:  380,
}

// GDDR6PIMConfig models a GDDR6 accelerator-in-memory part (the class
// the paper's related work calls Newton/AiM): two channels per device,
// 16 banks per channel, one PIM unit per bank.
func GDDR6PIMConfig(mhz int) Config {
	return Config{
		PseudoChannels: 2,
		BankGroups:     4,
		BanksPerGroup:  4,
		Rows:           8192,
		RowBytes:       2048,
		AccessBytes:    32,
		Timing:         gddr6Ns.atClock(mhz),
		PIMUnits:       16, // one per bank
		Functional:     true,
	}
}

// LPDDR5PIMConfig models a mobile PIM part: one channel per die, 16
// banks, one PIM unit per four banks (tighter area budget).
func LPDDR5PIMConfig(mhz int) Config {
	return Config{
		PseudoChannels: 1,
		BankGroups:     4,
		BanksPerGroup:  4,
		Rows:           16384,
		RowBytes:       2048,
		AccessBytes:    32,
		Timing:         lpddr5Ns.atClock(mhz),
		PIMUnits:       4,
		Functional:     true,
	}
}
