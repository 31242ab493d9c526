package isa

import "fmt"

// Bit layout (a concrete realization of Table III).
//
//	            31:28   27:25 24:22 21:19 18:16  15  12  10:8  6:4   2:0
//	Control:    OPCODE  ----- 22:16 = IMM0 -----      -- 14:0 = IMM1 --
//	Data:       OPCODE  DST   SRC0  -     -      -   R   DST#  SRC0# SRC1#
//	ALU:        OPCODE  DST   SRC0  SRC1  SRC2   A   -   DST#  SRC0# SRC1#
//
// Bits marked 'U' in the paper are left zero; Decode rejects words whose
// unused bits are set, making every encodable instruction round-trip
// exactly.
const (
	opcodeShift = 28
	dstShift    = 25
	src0Shift   = 22
	src1Shift   = 19
	src2Shift   = 16
	aamBit      = 1 << 15
	reluBit     = 1 << 12
	dstIdxShift = 8
	s0IdxShift  = 4
	s1IdxShift  = 0
	fieldMask   = 0x7 // 3-bit source and index fields

	imm0Shift = 16
	imm0Mask  = 0x7F   // 7-bit IMM0
	imm1Mask  = 0x7FFF // 15-bit IMM1
)

// Encode serializes the instruction into its 32-bit CRF word. It returns
// an error if the instruction fails Validate.
func Encode(in Instruction) (uint32, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	w := uint32(in.Op) << opcodeShift
	switch {
	case in.Op.IsControl():
		w |= (in.Imm0 & imm0Mask) << imm0Shift
		w |= in.Imm1 & imm1Mask
	case in.Op.IsData():
		w |= uint32(in.Dst) << dstShift
		w |= uint32(in.Src0) << src0Shift
		if in.ReLU {
			w |= reluBit
		}
		if in.AAM {
			w |= aamBit
		} else {
			w |= uint32(in.DstIdx&fieldMask) << dstIdxShift
			w |= uint32(in.Src0Idx&fieldMask) << s0IdxShift
		}
	default: // arithmetic
		w |= uint32(in.Dst) << dstShift
		w |= uint32(in.Src0) << src0Shift
		w |= uint32(in.Src1) << src1Shift
		w |= uint32(src2Field(in)) << src2Shift
		if in.AAM {
			w |= aamBit
		}
		if !in.AAM {
			w |= uint32(in.DstIdx&fieldMask) << dstIdxShift
			w |= uint32(in.Src0Idx&fieldMask) << s0IdxShift
			w |= uint32(in.Src1Idx&fieldMask) << s1IdxShift
		}
	}
	return w, nil
}

// src2Field derives the SRC2 field: MAC reuses DST as the accumulator and
// MAD reads SRF_A at the SRC1 index (Section III-C); other arithmetic
// instructions have no third operand and encode DST again.
func src2Field(in Instruction) Src {
	switch in.Op {
	case MAD:
		return SRFA
	default:
		return in.Dst
	}
}

// Decode parses a 32-bit CRF word back into an Instruction. Invalid
// opcodes or operand combinations are rejected.
func Decode(w uint32) (Instruction, error) {
	op := Opcode(w >> opcodeShift)
	if !op.Valid() {
		return Instruction{}, fmt.Errorf("isa: decode: invalid opcode %d in %#08x", op, w)
	}
	var in Instruction
	in.Op = op
	switch {
	case op.IsControl():
		in.Imm0 = (w >> imm0Shift) & imm0Mask
		in.Imm1 = w & imm1Mask
		if w&^(uint32(0xF)<<opcodeShift|imm0Mask<<imm0Shift|imm1Mask) != 0 {
			return Instruction{}, fmt.Errorf("isa: decode: reserved bits set in %#08x", w)
		}
	case op.IsData():
		const dataMask = uint32(0xF)<<opcodeShift | fieldMask<<dstShift | fieldMask<<src0Shift |
			reluBit | aamBit | fieldMask<<dstIdxShift | fieldMask<<s0IdxShift
		if w&^dataMask != 0 {
			return Instruction{}, fmt.Errorf("isa: decode: reserved bits set in %#08x", w)
		}
		in.Dst = Src((w >> dstShift) & fieldMask)
		in.Src0 = Src((w >> src0Shift) & fieldMask)
		in.ReLU = w&reluBit != 0
		in.AAM = w&aamBit != 0
		if in.AAM {
			if w&(fieldMask<<dstIdxShift|fieldMask<<s0IdxShift) != 0 {
				return Instruction{}, fmt.Errorf("isa: decode: index bits set on AAM instruction %#08x", w)
			}
		} else {
			in.DstIdx = uint8((w >> dstIdxShift) & fieldMask)
			in.Src0Idx = uint8((w >> s0IdxShift) & fieldMask)
		}
	default:
		const aluMask = uint32(0xF)<<opcodeShift | fieldMask<<dstShift |
			fieldMask<<src0Shift | fieldMask<<src1Shift | fieldMask<<src2Shift |
			aamBit | fieldMask<<dstIdxShift | fieldMask<<s0IdxShift | fieldMask<<s1IdxShift
		if w&^aluMask != 0 {
			return Instruction{}, fmt.Errorf("isa: decode: reserved bits set in %#08x", w)
		}
		in.Dst = Src((w >> dstShift) & fieldMask)
		in.Src0 = Src((w >> src0Shift) & fieldMask)
		in.Src1 = Src((w >> src1Shift) & fieldMask)
		in.AAM = w&aamBit != 0
		if in.AAM {
			// AAM replaces the index fields with address sub-fields at
			// execution time; the encoder leaves them zero.
			if w&(fieldMask<<dstIdxShift|fieldMask<<s0IdxShift|fieldMask<<s1IdxShift) != 0 {
				return Instruction{}, fmt.Errorf("isa: decode: index bits set on AAM instruction %#08x", w)
			}
		} else {
			in.DstIdx = uint8((w >> dstIdxShift) & fieldMask)
			in.Src0Idx = uint8((w >> s0IdxShift) & fieldMask)
			in.Src1Idx = uint8((w >> s1IdxShift) & fieldMask)
		}
		if got, want := Src((w>>src2Shift)&fieldMask), src2Field(in); got != want {
			return Instruction{}, fmt.Errorf("isa: decode: SRC2 field %s inconsistent with %s (want %s)", got, in.Op, want)
		}
	}
	if err := in.Validate(); err != nil {
		return Instruction{}, fmt.Errorf("isa: decode %#08x: %w", w, err)
	}
	return in, nil
}

// EncodeProgram encodes a microkernel into CRF words; programs longer than
// the CRF are rejected.
func EncodeProgram(prog []Instruction) ([]uint32, error) {
	if len(prog) > CRFEntries {
		return nil, fmt.Errorf("isa: program of %d instructions exceeds CRF size %d", len(prog), CRFEntries)
	}
	words := make([]uint32, len(prog))
	for i, in := range prog {
		w, err := Encode(in)
		if err != nil {
			return nil, fmt.Errorf("isa: instruction %d: %w", i, err)
		}
		words[i] = w
	}
	return words, nil
}

// DecodeProgram decodes CRF words until an EXIT instruction (inclusive) or
// the end of the slice.
func DecodeProgram(words []uint32) ([]Instruction, error) {
	prog := make([]Instruction, 0, len(words))
	for i, w := range words {
		in, err := Decode(w)
		if err != nil {
			return nil, fmt.Errorf("isa: word %d: %w", i, err)
		}
		prog = append(prog, in)
		if in.Op == EXIT {
			break
		}
	}
	return prog, nil
}
