package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTableIIComboCounts(t *testing.T) {
	// The headline claim of Section III-C: 114 operand combinations for
	// computation and 24 ways of data movement.
	counts := ComboCounts()
	want := map[Opcode]int{MUL: 32, ADD: 40, MAC: 14, MAD: 28, MOV: 24}
	for op, n := range want {
		if counts[op] != n {
			t.Errorf("%s combinations = %d, want %d", op, counts[op], n)
		}
	}
	total := counts[MUL] + counts[ADD] + counts[MAC] + counts[MAD]
	if total != 114 {
		t.Errorf("total compute combinations = %d, want 114", total)
	}
}

func TestComboConstraints(t *testing.T) {
	for _, c := range ComputeCombos() {
		if c.Src0.IsBank() && c.Src1.IsBank() {
			t.Errorf("%s %s,%s,%s: two bank operands allowed", c.Op, c.Dst, c.Src0, c.Src1)
		}
		if !c.Dst.IsGRF() {
			t.Errorf("%s: non-GRF destination %s", c.Op, c.Dst)
		}
		if (c.Op == MAC || c.Op == MAD) && c.Src0.IsGRF() && c.Src0 == c.Src1 {
			t.Errorf("%s: SRC0 and SRC1 both %s", c.Op, c.Src0)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Instruction{
		{Op: MUL, Dst: EvenBank, Src0: GRFA, Src1: GRFB},         // bank dst
		{Op: MUL, Dst: GRFA, Src0: EvenBank, Src1: OddBank},      // two banks
		{Op: MUL, Dst: GRFA, Src0: SRFM, Src1: GRFA},             // scalar SRC0
		{Op: MUL, Dst: GRFA, Src0: GRFA, Src1: SRFA},             // wrong SRF port
		{Op: ADD, Dst: GRFA, Src0: SRFA, Src1: SRFA},             // two scalars
		{Op: ADD, Dst: GRFA, Src0: SRFM, Src1: GRFA},             // wrong SRF port
		{Op: MAC, Dst: GRFB, Src0: GRFA, Src1: GRFA},             // same-GRF pair
		{Op: MAD, Dst: GRFA, Src0: GRFB, Src1: GRFB},             // same-GRF pair
		{Op: MOV, Dst: SRFM, Src0: GRFA},                         // MOV to SRF
		{Op: MOV, Dst: EvenBank, Src0: OddBank},                  // bank to bank
		{Op: MOV, Dst: GRFA, Src0: SRFM},                         // MOV from SRF (use FILL)
		{Op: FILL, Dst: GRFA, Src0: GRFB},                        // FILL from GRF
		{Op: FILL, Dst: GRFA, Src0: EvenBank, ReLU: true},        // ReLU on FILL
		{Op: ADD, Dst: GRFA, Src0: GRFA, Src1: GRFB, ReLU: true}, // ReLU on ALU
		{Op: JUMP, Imm0: 5, Imm1: 0},                             // zero offset
		{Op: JUMP, Imm0: 500, Imm1: 1},                           // count too big
		{Op: NOP, Imm0: 1000},                                    // NOP too long
		{Op: MUL, Dst: GRFA, Src0: GRFA, Src1: GRFB, DstIdx: 9},  // index range
		{Op: Opcode(7)}, // undefined opcode
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("case %d (%+v): Validate accepted invalid instruction", i, in)
		}
	}
}

func TestValidateAccepts(t *testing.T) {
	good := []Instruction{
		{Op: MAC, Dst: GRFB, Src0: GRFA, Src1: EvenBank, DstIdx: 7, Src0Idx: 3},
		{Op: MAC, Dst: GRFA, Src0: EvenBank, Src1: GRFA}, // the paper's GEMV kernel form
		{Op: MAD, Dst: GRFA, Src0: EvenBank, Src1: SRFM, Src1Idx: 2},
		{Op: ADD, Dst: GRFA, Src0: EvenBank, Src1: SRFA, Src1Idx: 1},
		{Op: MUL, Dst: GRFB, Src0: OddBank, Src1: SRFM},
		{Op: MOV, Dst: GRFA, Src0: GRFB, ReLU: true},
		{Op: MOV, Dst: EvenBank, Src0: GRFA, Src0Idx: 4}, // result store path
		{Op: FILL, Dst: SRFM, Src0: EvenBank, DstIdx: 5},
		Jump(7, 1),
		NopCycles(23),
		Exit(),
		{Op: MUL, Dst: GRFA, Src0: GRFA, Src1: EvenBank, AAM: true},
	}
	for i, in := range good {
		if err := in.Validate(); err != nil {
			t.Errorf("case %d (%s): %v", i, in, err)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	// Every legal instruction from the combination enumerators plus flow
	// control must round-trip through the 32-bit encoding exactly.
	var prog []Instruction
	for _, c := range ComputeCombos() {
		in := Instruction{Op: c.Op, Dst: c.Dst, Src0: c.Src0, Src1: c.Src1,
			DstIdx: 3, Src0Idx: 1, Src1Idx: 6}
		if !in.Src0.IsGRF() && !in.Src0.IsSRF() {
			in.Src0Idx = 0
		}
		if !in.Src1.IsGRF() && !in.Src1.IsSRF() {
			in.Src1Idx = 0
		}
		prog = append(prog, in)
		in.AAM = true
		in.DstIdx, in.Src0Idx, in.Src1Idx = 0, 0, 0
		prog = append(prog, in)
	}
	for _, c := range MoveCombos() {
		in := Instruction{Op: MOV, Dst: c.Dst, Src0: c.Src0, ReLU: c.ReLU}
		if in.Dst.IsGRF() {
			in.DstIdx = 2
		}
		if in.Src0.IsGRF() || in.Src0.IsSRF() {
			in.Src0Idx = 5
		}
		prog = append(prog, in)
	}
	prog = append(prog, Nop(), NopCycles(9), Jump(7, 2), Jump(0, 1), Exit(),
		Instruction{Op: FILL, Dst: SRFA, Src0: OddBank, DstIdx: 7})

	for i, in := range prog {
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("case %d (%s): encode: %v", i, in, err)
		}
		got, err := Decode(w)
		if err != nil {
			t.Fatalf("case %d (%s): decode %#08x: %v", i, in, w, err)
		}
		if got != in {
			t.Fatalf("case %d: round trip %s -> %#08x -> %s", i, in, w, got)
		}
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	if _, err := Encode(Instruction{Op: MUL, Dst: GRFA, Src0: EvenBank, Src1: OddBank}); err == nil {
		t.Error("Encode accepted a two-bank MUL")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, w := range []uint32{
		0x70000000, // undefined opcode 7
		0xF0000000, // undefined opcode 15
		0x00008000, // NOP with reserved bit 15 set
	} {
		if _, err := Decode(w); err == nil {
			t.Errorf("Decode(%#08x) accepted garbage", w)
		}
	}
}

func TestDecodeQuickNeverPanics(t *testing.T) {
	// Decoding arbitrary words must either fail cleanly or produce an
	// instruction that re-encodes to the same word.
	f := func(w uint32) bool {
		in, err := Decode(w)
		if err != nil {
			return true
		}
		w2, err := Encode(in)
		return err == nil && w2 == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestAssembleGEMVKernel(t *testing.T) {
	// The paper's GEMV microkernel: a MAC repeated 8 times by a JUMP.
	src := `
		; GEMV inner loop (Section V-A)
		MAC GRF_B[0], GRF_A[0], EVEN_BANK
		JUMP -1, 7
		EXIT
	`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 3 {
		t.Fatalf("got %d instructions, want 3", len(prog))
	}
	if prog[0].Op != MAC || prog[0].Dst != GRFB || prog[0].Src1 != EvenBank {
		t.Errorf("instruction 0 = %s", prog[0])
	}
	if prog[1].Op != JUMP || prog[1].Imm0 != 7 || prog[1].Imm1 != 1 {
		t.Errorf("instruction 1 = %s", prog[1])
	}
	if prog[2].Op != EXIT {
		t.Errorf("instruction 2 = %s", prog[2])
	}
}

func TestAssembleFormatRoundTrip(t *testing.T) {
	src := `
		MOV(RELU) GRF_A[1], GRF_B[1]
		MAD GRF_A[2], EVEN_BANK, SRF_M[2]
		MAC(AAM) GRF_B, GRF_A, ODD_BANK
		FILL SRF_M[0], EVEN_BANK
		NOP 7
		ADD GRF_A[0], EVEN_BANK, SRF_A[0]
		JUMP -3, 15
		EXIT
	`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := Assemble(FormatProgram(prog))
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, FormatProgram(prog))
	}
	if len(prog) != len(prog2) {
		t.Fatalf("length %d != %d", len(prog), len(prog2))
	}
	for i := range prog {
		if prog[i] != prog2[i] {
			t.Errorf("instruction %d: %s != %s", i, prog[i], prog2[i])
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"FROB GRF_A[0], GRF_B[0]",
		"MAC GRF_B[0], GRF_A[0]",               // missing operand
		"MOV GRF_A[99], GRF_B[0]",              // index out of range
		"MAC GRF_B[0], EVEN_BANK[3], GRF_A[0]", // indexed bank
		"JUMP 1, 7",                            // positive offset
		"EXIT now",
		"MAC(AAM) GRF_B[3], GRF_A, EVEN_BANK", // AAM takes indices from the address
		"MOV(AAM) GRF_A, GRF_B[1]",
		"NOP 4294967297",                          // would wrap to NOP 1
		"NOP 128",                                 // past the 7-bit field
		"JUMP -4294967297, 7",                     // would wrap to JUMP -1
		"JUMP -1, 4294967303",                     // would wrap to 7 iterations
		"ADD(RELU) GRF_A[0], EVEN_BANK, SRF_A[0]", // ReLU is MOV's only
		"EXIT(AAM)",
		"NOP(RELU) 3",
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
	// CRF capacity.
	long := strings.Repeat("NOP\n", CRFEntries+1)
	if _, err := Assemble(long); err == nil {
		t.Error("Assemble accepted a program longer than the CRF")
	}
}

func TestEncodeProgramBounds(t *testing.T) {
	prog := make([]Instruction, CRFEntries+1)
	for i := range prog {
		prog[i] = Nop()
	}
	if _, err := EncodeProgram(prog); err == nil {
		t.Error("EncodeProgram accepted an oversized program")
	}
	words, err := EncodeProgram(prog[:CRFEntries])
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != CRFEntries {
		t.Fatalf("got %d words", len(words))
	}
}

func TestDecodeProgramStopsAtExit(t *testing.T) {
	words, err := EncodeProgram([]Instruction{Nop(), Exit(), Nop(), Nop()})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := DecodeProgram(words)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 2 || prog[1].Op != EXIT {
		t.Fatalf("got %v", prog)
	}
}

func TestOpcodePredicates(t *testing.T) {
	for _, op := range []Opcode{NOP, JUMP, EXIT} {
		if !op.IsControl() || op.IsData() || op.IsArith() {
			t.Errorf("%s predicates wrong", op)
		}
	}
	for _, op := range []Opcode{MOV, FILL} {
		if op.IsControl() || !op.IsData() || op.IsArith() {
			t.Errorf("%s predicates wrong", op)
		}
	}
	for _, op := range []Opcode{ADD, MUL, MAC, MAD} {
		if op.IsControl() || op.IsData() || !op.IsArith() {
			t.Errorf("%s predicates wrong", op)
		}
	}
}
