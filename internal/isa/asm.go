package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Assembly syntax, modeled on the paper's microkernel listings:
//
//	MAC  GRF_B[0], GRF_A[0], EVEN_BANK     ; comment
//	MAC(AAM)  GRF_B, GRF_A, EVEN_BANK      ; indices come from the address
//	MAD  GRF_A[2], EVEN_BANK, SRF_M[3]     ; addend is SRF_A[3] implicitly
//	MOV  GRF_A[0], ODD_BANK
//	MOV(RELU)  GRF_A[1], GRF_B[1]
//	FILL SRF_M[0], EVEN_BANK
//	NOP  7
//	JUMP -1, 7                             ; jump back 1 slot, 7 more times
//	EXIT
//
// Bank operands never take an index: the row/column of the triggering DRAM
// command selects the data implicitly (Section IV-B).

// Format renders one instruction in assembly syntax.
func Format(in Instruction) string {
	mn := in.Op.String()
	switch in.Op {
	case NOP:
		if in.Imm0 > 0 {
			return fmt.Sprintf("NOP %d", in.Imm0)
		}
		return "NOP"
	case EXIT:
		return "EXIT"
	case JUMP:
		return fmt.Sprintf("JUMP -%d, %d", in.Imm1, in.Imm0)
	case MOV, FILL:
		switch {
		case in.AAM && in.ReLU:
			mn += "(AAM_RELU)"
		case in.AAM:
			mn += "(AAM)"
		case in.ReLU:
			mn += "(RELU)"
		}
		return fmt.Sprintf("%s %s, %s", mn, operand(in.Dst, in.DstIdx, in.AAM),
			operand(in.Src0, in.Src0Idx, in.AAM))
	default: // arithmetic
		if in.AAM {
			mn += "(AAM)"
		}
		return fmt.Sprintf("%s %s, %s, %s", mn,
			operand(in.Dst, in.DstIdx, in.AAM),
			operand(in.Src0, in.Src0Idx, in.AAM),
			operand(in.Src1, in.Src1Idx, in.AAM))
	}
}

func operand(s Src, idx uint8, aam bool) string {
	if s.IsBank() || aam {
		return s.String()
	}
	return fmt.Sprintf("%s[%d]", s, idx)
}

// FormatProgram renders a microkernel, one instruction per line.
func FormatProgram(prog []Instruction) string {
	var sb strings.Builder
	for _, in := range prog {
		sb.WriteString(Format(in))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Parse parses one line of assembly. Empty lines and ';' comments yield
// ok == false with a nil error.
func Parse(line string) (in Instruction, ok bool, err error) {
	if i := strings.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	line = strings.TrimSpace(line)
	if line == "" {
		return Instruction{}, false, nil
	}

	fields := strings.SplitN(line, " ", 2)
	mn := strings.ToUpper(fields[0])
	rest := ""
	if len(fields) == 2 {
		rest = fields[1]
	}

	// Mnemonic suffixes: (AAM), (RELU), or (AAM_RELU).
	var aam, relu bool
	if i := strings.IndexByte(mn, '('); i >= 0 {
		if !strings.HasSuffix(mn, ")") {
			return Instruction{}, false, fmt.Errorf("isa: malformed mnemonic %q", fields[0])
		}
		for _, flag := range strings.Split(mn[i+1:len(mn)-1], "_") {
			switch flag {
			case "AAM":
				aam = true
			case "RELU":
				relu = true
			default:
				return Instruction{}, false, fmt.Errorf("isa: unknown flag %q in %q", flag, fields[0])
			}
		}
		mn = mn[:i]
	}

	op, okOp := mnemonics[mn]
	if !okOp {
		return Instruction{}, false, fmt.Errorf("isa: unknown mnemonic %q", fields[0])
	}

	if op.IsControl() && (aam || relu) {
		return Instruction{}, false, fmt.Errorf("isa: %s takes no flags", op)
	}
	args := splitArgs(rest)
	switch op {
	case EXIT:
		if len(args) != 0 {
			return Instruction{}, false, fmt.Errorf("isa: EXIT takes no operands")
		}
		in = Exit()
	case NOP:
		switch len(args) {
		case 0:
			in = Nop()
		case 1:
			n, perr := strconv.Atoi(args[0])
			if perr != nil || n < 0 || n > MaxNOPCycle {
				return Instruction{}, false, fmt.Errorf("isa: bad NOP cycle count %q", args[0])
			}
			in = NopCycles(n)
		default:
			return Instruction{}, false, fmt.Errorf("isa: NOP takes at most one operand")
		}
	case JUMP:
		if len(args) != 2 {
			return Instruction{}, false, fmt.Errorf("isa: JUMP takes offset and count")
		}
		off, perr := strconv.Atoi(args[0])
		if perr != nil || off >= 0 || -off > MaxJumpBack {
			return Instruction{}, false, fmt.Errorf("isa: JUMP offset %q must be in [-%d,-1]", args[0], MaxJumpBack)
		}
		cnt, perr := strconv.Atoi(args[1])
		if perr != nil || cnt < 0 || cnt > MaxLoopIter {
			return Instruction{}, false, fmt.Errorf("isa: bad JUMP count %q", args[1])
		}
		in = Jump(cnt, -off)
	case MOV, FILL:
		if len(args) != 2 {
			return Instruction{}, false, fmt.Errorf("isa: %s takes destination and source", op)
		}
		dst, dstIdx, perr := parseOperand(args[0])
		if perr != nil {
			return Instruction{}, false, perr
		}
		src, srcIdx, perr := parseOperand(args[1])
		if perr != nil {
			return Instruction{}, false, perr
		}
		in = Instruction{Op: op, Dst: dst, DstIdx: dstIdx, Src0: src, Src0Idx: srcIdx, ReLU: relu, AAM: aam}
	default: // arithmetic
		if len(args) != 3 {
			return Instruction{}, false, fmt.Errorf("isa: %s takes destination and two sources", op)
		}
		dst, dstIdx, perr := parseOperand(args[0])
		if perr != nil {
			return Instruction{}, false, perr
		}
		s0, s0Idx, perr := parseOperand(args[1])
		if perr != nil {
			return Instruction{}, false, perr
		}
		s1, s1Idx, perr := parseOperand(args[2])
		if perr != nil {
			return Instruction{}, false, perr
		}
		in = Instruction{Op: op, Dst: dst, DstIdx: dstIdx,
			Src0: s0, Src0Idx: s0Idx, Src1: s1, Src1Idx: s1Idx, AAM: aam, ReLU: relu}
	}
	if err := in.Validate(); err != nil {
		return Instruction{}, false, err
	}
	return in, true, nil
}

var mnemonics = map[string]Opcode{
	"NOP": NOP, "JUMP": JUMP, "EXIT": EXIT,
	"MOV": MOV, "FILL": FILL,
	"ADD": ADD, "MUL": MUL, "MAC": MAC, "MAD": MAD,
}

var operandNames = map[string]Src{
	"GRF_A": GRFA, "GRF_B": GRFB,
	"EVEN_BANK": EvenBank, "ODD_BANK": OddBank, "BANK": EvenBank,
	"SRF_M": SRFM, "SRF_A": SRFA,
}

func parseOperand(tok string) (Src, uint8, error) {
	name := tok
	idx := uint8(0)
	if i := strings.IndexByte(tok, '['); i >= 0 {
		if !strings.HasSuffix(tok, "]") {
			return 0, 0, fmt.Errorf("isa: malformed operand %q", tok)
		}
		name = tok[:i]
		n, err := strconv.Atoi(tok[i+1 : len(tok)-1])
		if err != nil || n < 0 || n > 255 {
			return 0, 0, fmt.Errorf("isa: bad register index in %q", tok)
		}
		idx = uint8(n)
	}
	s, ok := operandNames[strings.ToUpper(name)]
	if !ok {
		return 0, 0, fmt.Errorf("isa: unknown operand %q", tok)
	}
	if s.IsBank() && idx != 0 {
		return 0, 0, fmt.Errorf("isa: bank operand %q cannot be indexed", tok)
	}
	return s, idx, nil
}

func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// Assemble parses a multi-line microkernel source into instructions.
func Assemble(src string) ([]Instruction, error) {
	var prog []Instruction
	for lineno, line := range strings.Split(src, "\n") {
		in, ok, err := Parse(line)
		if err != nil {
			return nil, fmt.Errorf("isa: line %d: %w", lineno+1, err)
		}
		if ok {
			prog = append(prog, in)
		}
	}
	if len(prog) > CRFEntries {
		return nil, fmt.Errorf("isa: program of %d instructions exceeds CRF size %d", len(prog), CRFEntries)
	}
	return prog, nil
}
