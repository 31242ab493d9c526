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

	// Data carries the 32-byte write payload for WR. For RD, Issue fills
	// in the data read (functional mode only).
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

// IssueResult reports what a command did.
//
// Data aliases a per-pseudo-channel scratch buffer and is only valid until
// the next Issue on the same pseudo channel; callers that retain read data
// across commands must copy it first. This keeps the column hot path free
// of per-command allocation.
type IssueResult struct {
	Cycle int64  // the cycle the command issued at
	Data  []byte // data returned by an SB-mode RD (functional mode)
}

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

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.ACT += o.ACT
	s.PRE += o.PRE
	s.RD += o.RD
	s.WR += o.WR
	s.REF += o.REF
	s.ABACT += o.ABACT
	s.ABPRE += o.ABPRE
	s.ABRD += o.ABRD
	s.ABWR += o.ABWR
	s.PIMInstr += o.PIMInstr
	s.PIMArith += o.PIMArith
	s.PIMMove += o.PIMMove
	s.BankReads += o.BankReads
	s.BankWrites += o.BankWrites
	s.OffChipBytes += o.OffChipBytes
	s.RegWrites += o.RegWrites
	s.ModeSwitches += o.ModeSwitches
	s.ECCCorrected += o.ECCCorrected
	s.ECCUncorrectable += o.ECCUncorrectable
}
