package hbm

import "fmt"

// CmdKind is a DRAM command type. The set is exactly the standard HBM2
// command vocabulary: PIM-HBM is controlled with unmodified JEDEC commands
// (Section III-A).
type CmdKind uint8

const (
	CmdACT  CmdKind = iota // activate a row
	CmdPRE                 // precharge one bank
	CmdPREA                // precharge all banks
	CmdRD                  // column read
	CmdWR                  // column write
	CmdREF                 // all-bank refresh
)

var cmdNames = [...]string{"ACT", "PRE", "PREA", "RD", "WR", "REF"}

func (k CmdKind) String() string {
	if int(k) < len(cmdNames) {
		return cmdNames[k]
	}
	return fmt.Sprintf("CMD(%d)", uint8(k))
}

// IsColumn reports whether k is a column (data) command.
func (k CmdKind) IsColumn() bool { return k == CmdRD || k == CmdWR }

// Command is one DRAM command addressed to a pseudo channel.
//
// In SB mode BG/Bank select a single bank. In AB and AB-PIM modes the
// command is broadcast: BG is ignored and only Bank's least-significant
// bit matters for column commands, selecting the even or odd bank of each
// PIM unit pair (Section IV-A).
type Command struct {
	Kind CmdKind
	BG   int
	Bank int
	Row  uint32
	Col  uint32

	// Data carries the 32-byte write payload of a WR issued alone
	// (PseudoChannel.IssueEarliest, memctrl.Channel.Issue); IssueRun takes
	// a run's payloads as a list and does not read it. A RD's data comes
	// back in IssueResult.Data or Run.Data, never here.
	Data []byte
}

func (c Command) String() string {
	switch c.Kind {
	case CmdACT:
		return fmt.Sprintf("ACT bg%d b%d row%d", c.BG, c.Bank, c.Row)
	case CmdPRE:
		return fmt.Sprintf("PRE bg%d b%d", c.BG, c.Bank)
	case CmdPREA, CmdREF:
		return c.Kind.String()
	default:
		return fmt.Sprintf("%s bg%d b%d col%d", c.Kind, c.BG, c.Bank, c.Col)
	}
}

// IssueResult reports what a command issued alone did: its cycle and, for
// a RD that returns data, its burst, which lives as a burst of Run.Data
// does.
type IssueResult struct {
	Cycle int64  // the cycle the command issued at
	Data  []byte // data returned by a RD (functional mode)
}

// Run reports what a run of commands (PseudoChannel.IssueRun) did: N
// commands issued, command i at cycle First + i*Stride.
//
// Data holds the burst each command of a RD run returned (functional
// array reads, and register-space reads). The bursts alias the pseudo
// channel's scratch, one slot per column, so the column path allocates
// nothing; the one lifetime rule: a burst is valid until the pseudo
// channel's next read of the same column, and the Data list until its
// next command. A caller that keeps either longer copies it.
type Run struct {
	First  int64
	Stride int64
	N      int
	Data   [][]byte
}

// Cycle returns the issue cycle of command i of the run.
func (r *Run) Cycle(i int) int64 { return r.First + int64(i)*r.Stride }

// Stats counts issued commands and data movement for one pseudo channel.
// The energy model converts these into component energies.
type Stats struct {
	ACT, PRE, RD, WR, REF int64 // SB-mode commands (PREA counts per bank into PRE)
	ABACT, ABPRE          int64 // broadcast commands (counted once each)
	ABRD, ABWR            int64 // AB/AB-PIM column commands (counted once each)
	PIMInstr              int64 // PIM instructions executed
	PIMArith              int64 // of which arithmetic (FPU active)
	PIMMove               int64 // of which MOV/FILL data movement
	BankReads             int64 // per-bank 32B row-buffer reads (all modes)
	BankWrites            int64 // per-bank 32B row-buffer writes
	OffChipBytes          int64 // bytes that crossed the device I/O PHY
	RegWrites             int64 // writes into the PIM configuration space
	ModeSwitches          int64
	ECCCorrected          int64 // single-bit errors corrected by on-die ECC
	ECCUncorrectable      int64 // double-bit errors detected (data poisoned)
}

// counters points at every field of s, in declaration order: the one
// list Add, Sub and Scale walk.
func (s *Stats) counters() [19]*int64 {
	return [...]*int64{
		&s.ACT, &s.PRE, &s.RD, &s.WR, &s.REF,
		&s.ABACT, &s.ABPRE, &s.ABRD, &s.ABWR,
		&s.PIMInstr, &s.PIMArith, &s.PIMMove,
		&s.BankReads, &s.BankWrites, &s.OffChipBytes, &s.RegWrites,
		&s.ModeSwitches, &s.ECCCorrected, &s.ECCUncorrectable,
	}
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	d, v := s.counters(), o.counters()
	for i := range d {
		*d[i] += *v[i]
	}
}

// Sub subtracts o from s, counter by counter.
func (s *Stats) Sub(o Stats) {
	d, v := s.counters(), o.counters()
	for i := range d {
		*d[i] -= *v[i]
	}
}

// Scale multiplies every counter of s by n.
func (s *Stats) Scale(n int64) {
	for _, d := range s.counters() {
		*d *= n
	}
}
