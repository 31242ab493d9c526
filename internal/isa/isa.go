// Package isa defines the PIM execution unit's instruction set architecture:
// the nine RISC-style 32-bit instructions of Table III, the operand-source
// model of Table II, binary encoding/decoding, and a textual assembler for
// PIM microkernels.
//
// The paper publishes the field layout of Table III at column granularity;
// this package fixes one concrete bit assignment consistent with that table
// and uses it everywhere (encoder, decoder, execution unit).
package isa

import "fmt"

// Opcode identifies one of the nine PIM instructions (Table III).
type Opcode uint8

const (
	// Flow-control instructions.
	NOP  Opcode = 0x0 // no operation; Imm0 > 0 requests a multi-cycle NOP
	JUMP Opcode = 0x1 // zero-cycle loop: repeat Imm0 times, jumping back Imm1 slots
	EXIT Opcode = 0x2 // end of microkernel

	// Data-movement instructions.
	MOV  Opcode = 0x4 // register/bank to GRF move; R flag applies ReLU in flight
	FILL Opcode = 0x5 // bank to register broadcast load (GRF or SRF)

	// Arithmetic instructions.
	ADD Opcode = 0x8
	MUL Opcode = 0x9
	MAC Opcode = 0xA // dst += src0 * src1 (dst doubles as SRC2)
	MAD Opcode = 0xB // dst = src0 * src1 + SRF_A[src1#]
)

// NumOpcodes bounds the 4-bit opcode space; arrays indexed by Opcode (such
// as per-opcode retire counters) use it as their length.
const NumOpcodes = 16

// opcodeNames is indexed by opcode; empty entries are undefined encodings.
var opcodeNames = [NumOpcodes]string{
	NOP: "NOP", JUMP: "JUMP", EXIT: "EXIT",
	MOV: "MOV", FILL: "FILL",
	ADD: "ADD", MUL: "MUL", MAC: "MAC", MAD: "MAD",
}

// validOpcodes has bit o set when Opcode o is defined. A constant bitmask
// keeps Valid — which sits on the decode hot path — free of map lookups.
const validOpcodes = 1<<NOP | 1<<JUMP | 1<<EXIT | 1<<MOV | 1<<FILL |
	1<<ADD | 1<<MUL | 1<<MAC | 1<<MAD

// String returns the mnemonic.
func (o Opcode) String() string {
	if o.Valid() {
		return opcodeNames[o]
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// Valid reports whether o is one of the nine defined opcodes.
func (o Opcode) Valid() bool { return o < NumOpcodes && validOpcodes&(1<<o) != 0 }

// IsControl reports whether o is a flow-control instruction.
func (o Opcode) IsControl() bool { return o == NOP || o == JUMP || o == EXIT }

// IsData reports whether o is a data-movement instruction.
func (o Opcode) IsData() bool { return o == MOV || o == FILL }

// IsArith reports whether o is an arithmetic instruction.
func (o Opcode) IsArith() bool { return o == ADD || o == MUL || o == MAC || o == MAD }

// Src identifies an operand source or destination (Table II): a GRF half,
// a bank (the PIM unit sits between an even and an odd bank), or a scalar
// register file.
type Src uint8

const (
	GRFA     Src = 0 // general register file half A (even bank side)
	GRFB     Src = 1 // general register file half B (odd bank side)
	EvenBank Src = 2 // 256-bit row-buffer read/write of the even bank
	OddBank  Src = 3 // 256-bit row-buffer read/write of the odd bank
	SRFM     Src = 4 // scalar register file, multiplier operand port
	SRFA     Src = 5 // scalar register file, adder operand port
)

var srcNames = [...]string{"GRF_A", "GRF_B", "EVEN_BANK", "ODD_BANK", "SRF_M", "SRF_A"}

// String returns the assembly spelling of s.
func (s Src) String() string {
	if int(s) < len(srcNames) {
		return srcNames[s]
	}
	return fmt.Sprintf("SRC(%d)", uint8(s))
}

// Valid reports whether s is a defined source.
func (s Src) Valid() bool { return s <= SRFA }

// IsGRF reports whether s is one of the GRF halves.
func (s Src) IsGRF() bool { return s == GRFA || s == GRFB }

// IsBank reports whether s addresses a bank row buffer.
func (s Src) IsBank() bool { return s == EvenBank || s == OddBank }

// IsSRF reports whether s is a scalar register file.
func (s Src) IsSRF() bool { return s == SRFM || s == SRFA }

// Register-file geometry (Table IV).
const (
	CRFEntries  = 32  // 32 x 32-bit command (instruction) registers
	GRFEntries  = 8   // 8 x 256-bit registers per GRF half (16 total)
	SRFEntries  = 8   // 8 x 16-bit registers per SRF port (16 total)
	MaxLoopIter = 127 // 7-bit Imm0 field
	MaxJumpBack = 31  // sensible bound; CRF holds 32 entries
	MaxNOPCycle = 127
)

// Instruction is one decoded PIM instruction.
type Instruction struct {
	Op Opcode

	// Operand routing (arithmetic and data-movement instructions).
	Dst, Src0, Src1 Src
	DstIdx          uint8 // register index when Dst is a register file
	Src0Idx         uint8
	Src1Idx         uint8

	// AAM ('A' bit): when set on an arithmetic or data-movement
	// instruction, register indices are ignored and replaced by sub-fields
	// of the DRAM row and column address of the triggering command
	// (Section IV-C). Flow-control instructions never set it.
	AAM bool

	// ReLU ('R' bit): when set on MOV, a ReLU is applied during the move.
	ReLU bool

	// Control-instruction immediates. JUMP: Imm0 = remaining iterations,
	// Imm1 = how many slots to jump back. NOP: Imm0 = extra idle cycles.
	Imm0 uint32
	Imm1 uint32
}

// Nop returns a single-cycle NOP.
func Nop() Instruction { return Instruction{Op: NOP} }

// NopCycles returns a multi-cycle NOP idling for n command slots.
func NopCycles(n int) Instruction { return Instruction{Op: NOP, Imm0: uint32(n)} }

// Jump returns a JUMP that repeats the previous `back` instructions `iters`
// times (total executions of the body = iters+1 counting the fall-through
// pass, matching "JUMP is set up to repeat the loop 8 times" semantics
// where iters = 7 executes the body 8 times overall).
func Jump(iters, back int) Instruction {
	return Instruction{Op: JUMP, Imm0: uint32(iters), Imm1: uint32(back)}
}

// Exit returns the EXIT instruction.
func Exit() Instruction { return Instruction{Op: EXIT} }

// Validate checks structural well-formedness plus the operand-port rules
// of Table II (see combos.go for the counting model).
func (in Instruction) Validate() error {
	if !in.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", in.Op)
	}
	switch {
	case in.Op.IsControl():
		switch in.Op {
		case JUMP:
			if in.Imm0 > MaxLoopIter {
				return fmt.Errorf("isa: JUMP iteration count %d exceeds %d", in.Imm0, MaxLoopIter)
			}
			if in.Imm1 == 0 || in.Imm1 > MaxJumpBack {
				return fmt.Errorf("isa: JUMP offset %d out of range [1,%d]", in.Imm1, MaxJumpBack)
			}
		case NOP:
			if in.Imm0 > MaxNOPCycle {
				return fmt.Errorf("isa: NOP cycle count %d exceeds %d", in.Imm0, MaxNOPCycle)
			}
			if in.Imm1 != 0 {
				return fmt.Errorf("isa: NOP takes no IMM1, got %d", in.Imm1)
			}
		case EXIT:
			if in.Imm0 != 0 || in.Imm1 != 0 {
				return fmt.Errorf("isa: EXIT takes no immediates, got %d and %d", in.Imm0, in.Imm1)
			}
		}
		return nil
	case in.Op.IsData():
		return in.validateData()
	default:
		return in.validateArith()
	}
}

func (in Instruction) validateData() error {
	if !in.Src0.Valid() {
		return fmt.Errorf("isa: %s: invalid source %d", in.Op, in.Src0)
	}
	switch in.Op {
	case MOV:
		// MOV moves between GRF and BANK (either direction; GRF->BANK is how
		// results leave the PIM unit, e.g. the ADD microkernel's final
		// store). Bank-to-bank is not routable.
		if in.Src0.IsSRF() {
			return fmt.Errorf("isa: MOV source must be GRF or BANK, got %s", in.Src0)
		}
		if !in.Dst.IsGRF() && !in.Dst.IsBank() {
			return fmt.Errorf("isa: MOV destination must be GRF or BANK, got %s", in.Dst)
		}
		if in.Src0.IsBank() && in.Dst.IsBank() {
			return fmt.Errorf("isa: MOV cannot route bank to bank")
		}
	case FILL:
		// FILL broadcasts bank data into a register file (GRF or SRF).
		if !in.Src0.IsBank() {
			return fmt.Errorf("isa: FILL source must be a bank, got %s", in.Src0)
		}
		if in.Dst.IsBank() {
			return fmt.Errorf("isa: FILL destination must be a register file, got %s", in.Dst)
		}
		if in.ReLU {
			return fmt.Errorf("isa: ReLU flag applies to MOV only")
		}
	}
	if in.AAM {
		return in.checkNoIndices()
	}
	return in.checkIndices()
}

func (in Instruction) validateArith() error {
	if in.ReLU {
		return fmt.Errorf("isa: ReLU flag applies to MOV only")
	}
	if !in.Src0.Valid() || !in.Src1.Valid() || !in.Dst.Valid() {
		return fmt.Errorf("isa: %s: invalid operand source", in.Op)
	}
	// Destination is always a GRF register (Table II "Result (DST)" column).
	if !in.Dst.IsGRF() {
		return fmt.Errorf("isa: %s destination must be a GRF half, got %s", in.Op, in.Dst)
	}
	// Single bank data port: at most one operand may come from a bank.
	if in.Src0.IsBank() && in.Src1.IsBank() {
		return fmt.Errorf("isa: %s: both operands cannot come from banks", in.Op)
	}
	switch in.Op {
	case MUL:
		if in.Src0.IsSRF() {
			return fmt.Errorf("isa: MUL SRC0 must be GRF or BANK, got %s", in.Src0)
		}
		if in.Src1 == SRFA {
			return fmt.Errorf("isa: MUL scalar operand comes from SRF_M, not SRF_A")
		}
	case ADD:
		if in.Src0 == SRFM || in.Src1 == SRFM {
			return fmt.Errorf("isa: ADD scalar operand comes from SRF_A, not SRF_M")
		}
		// Single scalar port: both operands cannot be scalars.
		if in.Src0.IsSRF() && in.Src1.IsSRF() {
			return fmt.Errorf("isa: ADD: both operands cannot come from SRF")
		}
	case MAC, MAD:
		if in.Src0.IsSRF() {
			return fmt.Errorf("isa: %s SRC0 must be GRF or BANK, got %s", in.Op, in.Src0)
		}
		if in.Src1 == SRFA {
			return fmt.Errorf("isa: %s scalar operand comes from SRF_M, not SRF_A", in.Op)
		}
		// The third GRF access (the MAC accumulator / MAD addend index)
		// occupies the second GRF port, so SRC0 and SRC1 cannot both read
		// the same GRF half.
		if in.Src0.IsGRF() && in.Src0 == in.Src1 {
			return fmt.Errorf("isa: %s: SRC0 and SRC1 cannot both read %s", in.Op, in.Src0)
		}
	}
	if in.AAM {
		return in.checkNoIndices()
	}
	return in.checkIndices()
}

// checkNoIndices rejects register indices on an AAM instruction: the
// address of the triggering command supplies them, and the encoding has
// no room for both.
func (in Instruction) checkNoIndices() error {
	if in.DstIdx != 0 || in.Src0Idx != 0 || in.Src1Idx != 0 {
		return fmt.Errorf("isa: %s(AAM) takes its register indices from the address, got [%d] [%d] [%d]",
			in.Op, in.DstIdx, in.Src0Idx, in.Src1Idx)
	}
	return nil
}

func (in Instruction) checkIndices() error {
	check := func(role string, s Src, idx uint8) error {
		if s.IsGRF() && idx >= GRFEntries {
			return fmt.Errorf("isa: %s: %s index %d exceeds GRF size %d", in.Op, role, idx, GRFEntries)
		}
		if s.IsSRF() && idx >= SRFEntries {
			return fmt.Errorf("isa: %s: %s index %d exceeds SRF size %d", in.Op, role, idx, SRFEntries)
		}
		if s.IsBank() && idx != 0 {
			return fmt.Errorf("isa: %s: %s is a bank and takes no index", in.Op, role)
		}
		return nil
	}
	if err := check("DST", in.Dst, in.DstIdx); err != nil {
		return err
	}
	if err := check("SRC0", in.Src0, in.Src0Idx); err != nil {
		return err
	}
	if in.Op.IsArith() {
		if err := check("SRC1", in.Src1, in.Src1Idx); err != nil {
			return err
		}
	}
	return nil
}

// String renders the instruction in assembly syntax (see asm.go).
func (in Instruction) String() string { return Format(in) }
