package hbm

import "fmt"

// bankState is the row-buffer state of one bank.
type bankState uint8

const (
	bankIdle bankState = iota // all rows precharged
	bankActive
)

// bank is one DRAM bank: a timing state machine plus (in functional mode)
// lazily allocated row storage.
type bank struct {
	state   bankState
	openRow uint32

	// Earliest cycles at which each command class may issue, maintained
	// incrementally as commands are issued.
	actAllowed int64
	rdAllowed  int64
	wrAllowed  int64
	preAllowed int64

	rows   map[uint32][]byte // functional storage, row -> RowBytes
	parity map[uint32][]byte // on-die ECC check bits, row -> RowBytes/8

	// The row the last row() call returned. Column accesses arrive in long
	// runs on one open row, and the map lookup per 32-byte access was the
	// second-largest share of the functional profile. The memo aliases
	// the map's slice (same backing array, so writes through either are
	// seen by both), and rows are never deleted or reallocated, so an
	// entry can only go out of date by naming another row than the one
	// asked for, which row() checks.
	lastRow  uint32
	lastData []byte
}

// parityRow returns the parity storage for a row, allocated on first
// touch (one byte per 64-bit data word).
func (b *bank) parityRow(r uint32, rowBytes int) []byte {
	if b.parity == nil {
		b.parity = make(map[uint32][]byte)
	}
	data, ok := b.parity[r]
	if !ok {
		data = make([]byte, rowBytes/8)
		b.parity[r] = data
	}
	return data
}

// row returns the storage for a row, allocating it zeroed on first touch.
func (b *bank) row(r uint32, rowBytes int) []byte {
	if b.lastData != nil && b.lastRow == r {
		return b.lastData
	}
	if b.rows == nil {
		b.rows = make(map[uint32][]byte)
	}
	data, ok := b.rows[r]
	if !ok {
		data = make([]byte, rowBytes)
		b.rows[r] = data
	}
	b.lastRow, b.lastData = r, data
	return data
}

// earliestACT returns the earliest legal ACT cycle considering only
// bank-local constraints (tRC after previous ACT, tRP after PRE).
func (b *bank) earliestACT() int64 { return b.actAllowed }

// earliestCol returns the earliest legal column command cycle.
func (b *bank) earliestCol(kind CmdKind) int64 {
	if kind == CmdRD {
		return b.rdAllowed
	}
	return b.wrAllowed
}

// activate opens a row at cycle t.
func (b *bank) activate(row uint32, t int64, tm *Timing) {
	b.state = bankActive
	b.openRow = row
	b.rdAllowed = maxi64(b.rdAllowed, t+int64(tm.RCD))
	b.wrAllowed = maxi64(b.wrAllowed, t+int64(tm.RCD))
	b.preAllowed = maxi64(b.preAllowed, t+int64(tm.RAS))
	b.actAllowed = maxi64(b.actAllowed, t+int64(tm.RC))
}

// column updates bank timing for a RD or WR issued at t.
func (b *bank) column(kind CmdKind, t int64, tm *Timing) {
	if kind == CmdRD {
		b.preAllowed = maxi64(b.preAllowed, t+int64(tm.RTP))
	} else {
		// Write recovery: data arrives WL later, occupies BL/2, then tWR.
		b.preAllowed = maxi64(b.preAllowed, t+int64(tm.WL+tm.BL/2+tm.WR))
	}
}

// precharge closes the bank at cycle t.
func (b *bank) precharge(t int64, tm *Timing) {
	b.state = bankIdle
	b.actAllowed = maxi64(b.actAllowed, t+int64(tm.RP))
}

// blockUntil freezes the bank until cycle t (used by refresh).
func (b *bank) blockUntil(t int64) {
	b.actAllowed = maxi64(b.actAllowed, t)
	b.rdAllowed = maxi64(b.rdAllowed, t)
	b.wrAllowed = maxi64(b.wrAllowed, t)
	b.preAllowed = maxi64(b.preAllowed, t)
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// faw tracks the four-activate window with a ring of the last 4 ACT times.
type faw struct {
	times [4]int64
	idx   int
}

// earliest returns the earliest cycle a new ACT may issue under tFAW.
func (f *faw) earliest(window int64) int64 {
	return f.times[f.idx] + window
}

// record notes an ACT at cycle t.
func (f *faw) record(t int64) {
	f.times[f.idx] = t
	f.idx = (f.idx + 1) % len(f.times)
}

// addrCheck validates addresses against the geometry. Pointer receiver
// and parameter: it runs once per issued command, where copying the
// ~300-byte Config (and the command) dominated the timing-only profile.
func (c *Config) addrCheck(cmd *Command) error {
	switch cmd.Kind {
	case CmdACT:
		if cmd.Row >= uint32(c.Rows) {
			return fmt.Errorf("hbm: row %d out of range (%d rows)", cmd.Row, c.Rows)
		}
	case CmdRD, CmdWR:
		if cmd.Col >= uint32(c.RowBytes/c.AccessBytes) {
			return fmt.Errorf("hbm: column %d out of range (%d columns)", cmd.Col, c.RowBytes/c.AccessBytes)
		}
	}
	switch cmd.Kind {
	case CmdACT, CmdPRE, CmdRD, CmdWR:
		if cmd.BG < 0 || cmd.BG >= c.BankGroups || cmd.Bank < 0 || cmd.Bank >= c.BanksPerGroup {
			return fmt.Errorf("hbm: bank address bg%d b%d out of range", cmd.BG, cmd.Bank)
		}
	}
	return nil
}

// CheckCommand validates cmd's addresses against the geometry without
// issuing it. Trace replay uses this to reject malformed input up front
// instead of failing deep inside the channel model.
func (c Config) CheckCommand(cmd Command) error { return c.addrCheck(&cmd) }
