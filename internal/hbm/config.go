package hbm

import (
	"fmt"
	"strings"

	"pimsim/internal/isa"
)

// Variant selects the PIM microarchitecture evaluated in Fig. 14's design
// space exploration on top of the baseline product configuration. What a
// variant means is one row of the variants table below; every other
// package reads it through Config's accessors.
type Variant uint8

const (
	// VariantBase is the fabricated product: one PIM unit per two banks,
	// single bank access per instruction, separate RD/WR datapaths.
	VariantBase Variant = iota
	// Variant2X doubles the PIM resources (one unit per bank and twice the
	// GRF), doubling on-chip compute bandwidth and the AAM reorder window
	// at a 24% die-size cost (PIM-HBM-2x).
	Variant2X
	// Variant2BA lets one PIM instruction read the even and odd banks
	// simultaneously, supplying two bank operands per command at a 60%
	// power premium (PIM-HBM-2BA).
	Variant2BA
	// VariantSRW overlaps a column WR with a column RD so an instruction
	// can take one operand from the write datapath and one from the bank
	// (PIM-HBM-SRW).
	VariantSRW
)

// variants is the one statement of what each Fig. 14 variant is.
var variants = [...]struct {
	name         string // Variant.String: system names, DSE tables; ParseVariant takes them too
	cli          string // ParseVariant: pimsim -variant
	pimUnits     int    // PIMHBMVariantConfig: PIM units per pseudo channel
	grfDepth     int    // Config.GRFDepth: registers per GRF half = AAM window
	triggerBanks int    // Config.TriggerBanks: bank operands one trigger may read
	wrOperand    bool   // Config.WROperand: a WR trigger may feed an arithmetic instruction
}{
	VariantBase: {
		name:         "PIM-HBM",
		cli:          "base",
		pimUnits:     8,
		grfDepth:     isa.GRFEntries,
		triggerBanks: 1,
	},
	Variant2X: {
		name:         "PIM-HBM-2x",
		cli:          "2x",
		pimUnits:     16,
		grfDepth:     2 * isa.GRFEntries,
		triggerBanks: 1,
	},
	Variant2BA: {
		name:         "PIM-HBM-2BA",
		cli:          "2ba",
		pimUnits:     8,
		grfDepth:     isa.GRFEntries,
		triggerBanks: 2,
	},
	VariantSRW: {
		name:         "PIM-HBM-SRW",
		cli:          "srw",
		pimUnits:     8,
		grfDepth:     isa.GRFEntries,
		triggerBanks: 1,
		wrOperand:    true,
	},
}

func (v Variant) String() string {
	if int(v) < len(variants) {
		return variants[v].name
	}
	return fmt.Sprintf("Variant(%d)", uint8(v))
}

// ParseVariant resolves a command-line variant name (base, 2x, 2ba, srw)
// or a system name (Variant.String: PIM-HBM, PIM-HBM-2x, ...),
// case-insensitive.
func ParseVariant(name string) (Variant, error) {
	for v := range variants {
		if strings.EqualFold(name, variants[v].cli) || strings.EqualFold(name, variants[v].name) {
			return Variant(v), nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q", name)
}

// Config describes one HBM2 or PIM-HBM device (stack). Build one with a
// preset (HBM2Config, PIMHBMConfig, PIMHBMVariantConfig, GDDR6PIMConfig,
// LPDDR5PIMConfig), then adjust fields; facts that follow from the
// fields are methods.
type Config struct {
	PseudoChannels int // per device (16 for HBM2)
	BankGroups     int // per pseudo channel (4)
	BanksPerGroup  int // (4)
	Rows           int // rows per bank (includes the reserved PIM_CONF rows)
	RowBytes       int // row-buffer size (2048 for HBM2 pseudo channels)
	AccessBytes    int // bytes per column access (32: 256 bits)

	Timing Timing

	// PIM configuration. PIMUnits is the number of PIM execution units per
	// pseudo channel (8 in the product: one per two banks); 0 models a
	// plain HBM2 device. Variant selects the Fig. 14 microarchitecture the
	// units implement: GRFDepth, TriggerBanks and WROperand follow from it.
	PIMUnits int
	Variant  Variant

	// Functional enables data storage and real FP16 execution. When false
	// the device is timing-only: commands advance clocks and counters but
	// move no bytes, which large benchmark sweeps use.
	Functional bool

	// ECC enables the on-die SEC-DED engine of the HBM3-generation design
	// (Section VIII): every 32-byte bank access is checked and corrected
	// in both host and PIM modes. Functional mode only.
	ECC bool
}

// HBM2Config returns the plain HBM2 device of the paper's baseline system
// at the given memory clock (MHz).
func HBM2Config(mhz int) Config {
	return Config{
		PseudoChannels: 16,
		BankGroups:     4,
		BanksPerGroup:  4,
		Rows:           8192, // 16MB banks: 4 x 8Gb dies = 4 GiB per stack
		RowBytes:       2048,
		AccessBytes:    32,
		Timing:         hbm2Ns.atClock(mhz),
		Functional:     true,
	}
}

// PIMHBMConfig returns the fabricated PIM-HBM device: identical timing and
// external behaviour to HBM2 (a drop-in replacement), with 8 PIM units per
// pseudo channel and half the sub-arrays (half the rows) to make floorplan
// room for them (Section VI).
func PIMHBMConfig(mhz int) Config { return PIMHBMVariantConfig(VariantBase, mhz) }

// PIMHBMVariantConfig returns the complete PIM-HBM device of a Fig. 14
// variant: the product's organisation and timing with the variant's row
// of the table applied.
func PIMHBMVariantConfig(v Variant, mhz int) Config {
	c := HBM2Config(mhz)
	c.Rows = 4096 // half the sub-arrays make room for the PIM units
	c.Variant = v
	c.PIMUnits = variants[v].pimUnits
	return c
}

// Banks returns the number of banks per pseudo channel.
func (c Config) Banks() int { return c.BankGroups * c.BanksPerGroup }

// ColumnsPerRow returns the number of column addresses per row.
func (c Config) ColumnsPerRow() int { return c.RowBytes / c.AccessBytes }

// BankOf splits a flat bank index (bg*BanksPerGroup + bank, the order PIM
// units own banks in) into its bank group and bank-in-group.
func (c Config) BankOf(flat int) (bg, bank int) {
	return flat / c.BanksPerGroup, flat % c.BanksPerGroup
}

// BanksPerUnit returns how many consecutive flat banks one PIM unit owns:
// unit u sits between banks u*BanksPerUnit (its even bank) and
// (u+1)*BanksPerUnit-1 (its odd bank). PIM devices only.
func (c Config) BanksPerUnit() int { return c.Banks() / c.PIMUnits }

// GRFDepth returns the registers per GRF half of each PIM unit. It is also
// the AAM window: the arithmetic instructions that may execute between
// ordering fences, and the number of interleaved partial sums a GEMV
// accumulates (Section VII-B).
func (c Config) GRFDepth() int { return variants[c.Variant].grfDepth }

// TriggerBanks returns how many bank operands one triggering column
// command may read: 1, or 2 when even and odd banks are driven together.
func (c Config) TriggerBanks() int { return variants[c.Variant].triggerBanks }

// WROperand reports whether a WR trigger may feed an arithmetic
// instruction: the payload goes to the GRF while the overlapped RD
// datapath supplies the bank operand.
func (c Config) WROperand() bool { return variants[c.Variant].wrOperand }

// DeviceBytes returns the capacity of the whole device.
func (c Config) DeviceBytes() int64 {
	return int64(c.Rows) * int64(c.RowBytes) * int64(c.Banks()) * int64(c.PseudoChannels)
}

// OffChipGBps returns the peak off-chip I/O bandwidth of the device in
// GB/s: 64 data bits per pseudo channel at double data rate.
func (c Config) OffChipGBps() float64 {
	freqGHz := 1000.0 / float64(c.Timing.TCKps)
	pinGbps := 2 * freqGHz
	return pinGbps * 64 / 8 * float64(c.PseudoChannels)
}

// OnChipGBps returns the peak on-chip compute bandwidth exposed to the PIM
// units: each column command moves AccessBytes per operating bank
// (TriggerBanks banks per PIM unit) every tCCD_L.
func (c Config) OnChipGBps() float64 {
	if c.PIMUnits == 0 {
		return 0
	}
	bytesPerCmd := float64(c.PIMUnits * c.AccessBytes * c.TriggerBanks())
	secPerCmd := float64(c.Timing.CCDL) * float64(c.Timing.TCKps) * 1e-12
	return bytesPerCmd / secPerCmd * float64(c.PseudoChannels) / 1e9
}

// pimOperandBytes is what a PIM unit reads or writes per column command:
// one 16-lane FP16 vector, the host's access granularity (Section IV).
const pimOperandBytes = 32

// Validate checks structural consistency.
func (c Config) Validate() error {
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	switch {
	case int(c.Variant) >= len(variants):
		return fmt.Errorf("hbm: unknown %s", c.Variant)
	case c.PseudoChannels <= 0 || c.BankGroups <= 0 || c.BanksPerGroup <= 0:
		return fmt.Errorf("hbm: non-positive geometry")
	case c.RowBytes <= 0 || c.AccessBytes <= 0 || c.RowBytes%c.AccessBytes != 0:
		return fmt.Errorf("hbm: row %dB not a multiple of access %dB", c.RowBytes, c.AccessBytes)
	case c.Rows <= NumConfRows:
		return fmt.Errorf("hbm: %d rows leave no space beside the %d PIM_CONF rows", c.Rows, NumConfRows)
	case c.PIMUnits < 0 || (c.PIMUnits > 0 && c.Banks()%c.PIMUnits != 0):
		return fmt.Errorf("hbm: %d PIM units do not divide %d banks", c.PIMUnits, c.Banks())
	case c.PIMUnits > 0 && c.AccessBytes != pimOperandBytes:
		return fmt.Errorf("hbm: a PIM unit's operand is 16 FP16 lanes, %dB, but this device accesses %dB a column", pimOperandBytes, c.AccessBytes)
	case c.PIMUnits == 0 && c.Variant != VariantBase:
		return fmt.Errorf("hbm: DSE variant on a non-PIM device")
	case c.ECC && !c.Functional:
		return fmt.Errorf("hbm: the ECC engine needs a functional device")
	case c.ECC && c.AccessBytes%8 != 0:
		return fmt.Errorf("hbm: ECC needs 64-bit-aligned accesses")
	}
	return nil
}
