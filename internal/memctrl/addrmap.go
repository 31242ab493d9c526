// Package memctrl models the host side of the DRAM interface: physical
// address mapping, a JEDEC-compliant per-channel command generator with
// FR-FCFS transaction scheduling (the reordering that motivates Section
// IV-C), memory fences, and refresh management. PIM-HBM is driven through
// this controller with standard commands only, through one issue form:
// Channel.IssuePacket takes a packet of entries, each a row command or a
// run of column commands of one kind at consecutive columns (a PIM
// kernel's AAM window, a register-file load or unload, a bank-row access)
// with an optional fence after it. The device takes each column run as
// one run in closed form, split only where a refresh falls due (or into
// single commands under a Delay hook), and the channel books and logs it
// once, with its last command. Channel.Issue is a packet of one command,
// and the refresh machinery's commands take the same path to the device.
package memctrl

import "fmt"

// Loc is a fully decoded DRAM location.
type Loc struct {
	Channel int // global pseudo-channel index across all devices
	BG      int
	Bank    int
	Row     uint32
	Col     uint32
}

// AddrMap translates between flat physical addresses and DRAM locations.
//
// Bit order (LSB to MSB): block offset | channel | bank group | column |
// bank | row. Channel bits sit just above the 32-byte block offset so
// consecutive blocks stripe across all pseudo channels (maximum
// channel-level parallelism); bank-group bits under the column bits let a
// sequential stream alternate bank groups and sustain the tCCD_S cadence;
// column bits below the bank bits keep a contiguous stretch inside a
// single row per bank group. This is the mapping the PIM device driver
// assumes when it lays out operands (Section VIII, Fig. 15).
type AddrMap struct {
	Channels    int
	BankGroups  int
	Banks       int // banks per group
	Rows        int
	Cols        int // column addresses per row
	AccessBytes int

	// ColUnderBG swaps the column and bank-group fields (offset | channel
	// | column | bank group | bank | row): sequential streams then dwell
	// in one bank group and fall from the tCCD_S to the tCCD_L cadence.
	// It exists for the address-mapping ablation.
	ColUnderBG bool
}

// NewAddrMap derives the mapping for nDevices devices of geometry cfg.
func NewAddrMap(channels, bankGroups, banks, rows, cols, accessBytes int) AddrMap {
	return AddrMap{
		Channels:    channels,
		BankGroups:  bankGroups,
		Banks:       banks,
		Rows:        rows,
		Cols:        cols,
		AccessBytes: accessBytes,
	}
}

// Capacity returns the total mapped bytes.
func (m AddrMap) Capacity() uint64 {
	return uint64(m.Channels) * uint64(m.BankGroups) * uint64(m.Banks) *
		uint64(m.Rows) * uint64(m.Cols) * uint64(m.AccessBytes)
}

// Decode splits a physical address into its DRAM location. The address
// must be block aligned for column accesses; the caller handles offsets.
func (m AddrMap) Decode(addr uint64) (Loc, error) {
	if addr >= m.Capacity() {
		return Loc{}, fmt.Errorf("memctrl: address %#x beyond capacity %#x", addr, m.Capacity())
	}
	block := addr / uint64(m.AccessBytes)
	var l Loc
	l.Channel = int(block % uint64(m.Channels))
	block /= uint64(m.Channels)
	if m.ColUnderBG {
		l.Col = uint32(block % uint64(m.Cols))
		block /= uint64(m.Cols)
		l.BG = int(block % uint64(m.BankGroups))
		block /= uint64(m.BankGroups)
	} else {
		l.BG = int(block % uint64(m.BankGroups))
		block /= uint64(m.BankGroups)
		l.Col = uint32(block % uint64(m.Cols))
		block /= uint64(m.Cols)
	}
	l.Bank = int(block % uint64(m.Banks))
	block /= uint64(m.Banks)
	l.Row = uint32(block)
	return l, nil
}

// Encode is the inverse of Decode.
func (m AddrMap) Encode(l Loc) uint64 {
	block := uint64(l.Row)
	block = block*uint64(m.Banks) + uint64(l.Bank)
	if m.ColUnderBG {
		block = block*uint64(m.BankGroups) + uint64(l.BG)
		block = block*uint64(m.Cols) + uint64(l.Col)
	} else {
		block = block*uint64(m.Cols) + uint64(l.Col)
		block = block*uint64(m.BankGroups) + uint64(l.BG)
	}
	block = block*uint64(m.Channels) + uint64(l.Channel)
	return block * uint64(m.AccessBytes)
}
