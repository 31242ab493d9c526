// Package fp16 implements IEEE 754 binary16 ("half precision") arithmetic
// in software. It is the number format of the PIM execution unit's SIMD
// datapath: the paper's PIM-HBM implements FP16 multiply and add units
// (Section III-C chooses FP16 over BFLOAT16 for compatibility with legacy
// FP16 libraries).
//
// Scalar arithmetic converts to float32, operates, and rounds back once.
// Because binary32 carries p' = 24 significand bits and binary16 needs
// p = 11, p' >= 2p+2 holds, so the double rounding is innocuous
// (Figueroa's theorem): every Add, Sub, Mul and Div below is correctly
// rounded to nearest-even in binary16. Mul is additionally exact in the
// intermediate (22-bit product in a 24-bit significand).
//
// The multiply-accumulate of the PIM pipeline (MAC, MAD, MACVec, MADVec)
// rounds twice, after the multiplier and after the adder. With the
// elementwise AddVec and MulVec it exists in three tiers, each checked
// against the one before:
//
//  1. The reference, macRef: the composition Add(acc, Mul(a, b)) of the
//     scalar operations above, themselves checked against fromFloat32Ref.
//     It is every other tier's oracle. The GEMV oracle above this
//     package, blas.RefGemvPIMOrder, calls the scalar MAC and Add only,
//     so tier 3 never checks a GEMV it computed itself.
//  2. The fused portable kernel, MAC: both roundings, but never leaving
//     the float32 domain in between. Because the float32 product is
//     exact, rounding its bit pattern to 11 significand bits in place
//     gives the float32 image of Mul(a, b) without narrowing to bits and
//     widening again, and the sum is narrowed once, by a branch-free
//     round-to-nearest-even (lut.go). It is the scalar MAC and MAD, every
//     lane of the typed vector forms (MACVec, MADVec, AddVec, MulVec) on
//     every platform, and every lane of the burst forms below that tier 3
//     does not take. The typed forms, which share no assembly with tier
//     3, are the burst forms' oracle, as macRef is the typed forms'.
//  3. The SIMD burst kernels (block_amd64.s): the PIM unit's 16-lane FPU
//     as 16 host lanes. One block of a burst form is widened to 2x8
//     float32 lanes (VCVTPH2PS), multiplied, narrowed to binary16 with
//     round-to-nearest-even and widened again (the 16-bit pipeline
//     register), added, and narrowed once more: the instructions whose
//     scalar forms tier 1 spells out, so the same exact product and the
//     same innocuous double rounding, bit for bit.
//
// The burst forms (MACVecBursts, MADVecBursts, AddVecBursts,
// MulVecBursts) are what one PIM trigger runs: a single call applies the
// operation for every unit of a pseudo channel, and every operand, the
// destination included, is a burst, the 32 bytes of one column access,
// 16 little-endian lanes. A PIM unit's registers hold bursts and its bank
// operand is the burst it read, so the simulator neither copies nor
// decodes an operand to compute on it and dispatches the operation once
// per trigger, not once per unit. Tier 3 runs a burst form as one
// assembly call per 64 units, as the PIM units run one instruction in
// lock step: the burst kernel reads every unit's slice headers itself,
// widens each burst where it lies and runs each unit's whole blocks, and
// returns a mask of the units it left unfinished, at a NaN block (not
// stored) or at a tail shorter than a block, with the lane each resumes
// at in the caller's resume buffer. Go visits only those, through tier 2
// from that lane on, the operands in the instruction's order, so no block
// runs twice. Tier 2 alone decodes and encodes each lane as it reaches
// it. For every unit the result is the typed form's on the decoded
// bursts, bit for bit on both tiers.
//
// Which tier runs a burst form is decided once, at init, from CPUID
// alone: tier 3 on amd64 when the CPU reports AVX and F16C and the
// operating system saves the YMM registers (OSXSAVE, XCR0 bits 1 and 2);
// tier 2 otherwise, on other architectures, and in a build with -tags
// purego, which compiles no assembly. No flag, environment variable or
// configuration reaches the choice, and no result depends on it.
//
// NaN results are what makes that last claim need care. When both
// operands of a float operation are NaN the hardware keeps the first
// one's payload, and the compiler may commute the operands, so a NaN's
// payload is stable only through one compiled expression. For the MAC
// that expression is macRef: a lane of tier 2 whose sum is Inf or NaN is
// recomputed there, and a block of tier 3 whose result has a NaN lane is
// not stored: its unit goes on in tier 2 from that block to its end. Inf
// results do not depend on operand order, so a block that merely
// saturates stays in tier 3 (tier 2 sends its Inf lanes to macRef only
// because one exponent test is cheaper than two).
//
// What pins it: for all 2^32 operand pairs tier 2's product stage equals
// the reference product (TestExhaustiveMulStage) and its sum stage equals
// the reference narrowing on every sum of two binary16 values
// (TestExhaustiveAddStage); since a rounded product is a binary16, the
// two together cover every value the kernel can produce, so every typed
// form. The same 2^32 pairs of both stages go through the burst kernels
// that ship, over 8 units (TestExhaustive*StageVec: MACVecBursts,
// MADVecBursts, and MulVecBursts or AddVecBursts). A seeded differential
// over 12 M triples, a directed table, ragged and aliased lengths, a
// block mixing NaN, Inf, subnormal and normal lanes and FuzzMACVec check
// the typed and the burst forms against macRef on both tiers in one
// binary, NaN payloads included; FuzzMACVec also runs the burst forms
// over 8 units at once against the typed forms, and TestBurstResume
// walks the unfinished-unit contract: NaN blocks and ragged tails in
// chosen units, 70 units across the mask width.
package fp16

import "math"

// F16 is an IEEE 754 binary16 value: 1 sign bit, 5 exponent bits,
// 10 fraction bits.
type F16 uint16

// Special values.
const (
	PosInf  F16 = 0x7C00
	NegInf  F16 = 0xFC00
	NaN     F16 = 0x7E00 // a quiet NaN
	Zero    F16 = 0x0000
	NegZero F16 = 0x8000
	One     F16 = 0x3C00
	MaxVal  F16 = 0x7BFF // 65504
	MinPos  F16 = 0x0001 // smallest positive subnormal, 2^-24
)

const (
	signMask = 0x8000
	expMask  = 0x7C00
	fracMask = 0x03FF
	expShift = 10
	expBias  = 15
)

// fromFloat32Ref is the branchy reference conversion to binary16 with
// round-to-nearest-even. Overflow produces an infinity; underflow produces
// a (possibly zero) subnormal. NaN payloads are quieted.
//
// The exported FromFloat32 (lut.go) is the table-driven fast path; this
// function is kept as the oracle that the tables are built from and
// exhaustively checked against in tests.
func fromFloat32Ref(f float32) F16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & signMask
	exp := int32(b>>23) & 0xFF
	frac := b & 0x7FFFFF

	switch {
	case exp == 0xFF: // Inf or NaN
		if frac != 0 {
			return F16(sign | expMask | 0x0200 | uint16(frac>>13)&fracMask&^0x0200 | 0x0200)
		}
		return F16(sign | expMask)
	case exp == 0 && frac == 0: // signed zero
		return F16(sign)
	}

	// Unbiased exponent of the float32 value. Subnormal float32 inputs are
	// far below the binary16 subnormal range (< 2^-126), so they flush to
	// zero through the generic underflow path below.
	e := exp - 127

	switch {
	case e > 15: // overflow to infinity
		return F16(sign | expMask)
	case e >= -14: // normal binary16 range
		// 24-bit significand (implicit leading 1) must be rounded to 11 bits:
		// shift out 13 bits with round-to-nearest-even.
		sig := frac | 0x800000 // 24-bit significand with hidden bit
		rounded := roundShift(uint64(sig), 13)
		// Rounding may carry out (e.g. 0x7FFFFF -> 0x800), bumping the
		// exponent; rounded occupies 11 or 12 bits.
		he := uint16(e+expBias) << expShift
		out := uint32(he) + uint32(rounded) - (1 << expShift) // fold hidden bit into exponent field
		if out >= uint32(expMask) {
			return F16(sign | expMask) // rounded up to infinity
		}
		return F16(sign | uint16(out))
	case e >= -25: // subnormal binary16 range (including rounding up to MinPos)
		// Denormalize: significand is shifted right by (-14 - e) extra bits.
		sig := uint64(frac | 0x800000)
		shift := uint32(13 + (-14 - e))
		rounded := roundShift(sig, shift)
		// rounded fits in 11 bits; a carry into bit 10 yields the smallest
		// normal number, which the plain bit pattern already encodes.
		return F16(sign | uint16(rounded))
	default: // underflow to signed zero
		return F16(sign)
	}
}

// roundShift shifts v right by s bits, rounding to nearest with ties to
// even. s must be in [1, 63].
func roundShift(v uint64, s uint32) uint64 {
	half := uint64(1) << (s - 1)
	mask := (uint64(1) << s) - 1
	q := v >> s
	r := v & mask
	if r > half || (r == half && q&1 == 1) {
		q++
	}
	return q
}

// float32Ref is the branchy reference widening to float32 (exact: binary16
// is a subset of binary32). The exported Float32 (lut.go) serves the same
// values from a table built by this function at init.
func (h F16) float32Ref() float32 {
	sign := uint32(h&signMask) << 16
	exp := uint32(h&expMask) >> expShift
	frac := uint32(h & fracMask)

	switch exp {
	case 0:
		if frac == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal: value = frac * 2^-24. Normalize into binary32: with the
		// leading 1 shifted up to bit 10, the value is 2^(-14-k) * 1.xxx
		// where k is the shift count, so the biased exponent is 113-k.
		e := uint32(113)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		frac &= fracMask
		return math.Float32frombits(sign | e<<23 | frac<<13)
	case 0x1F:
		if frac == 0 {
			return math.Float32frombits(sign | 0xFF<<23)
		}
		return math.Float32frombits(sign | 0xFF<<23 | frac<<13 | 1<<22) // quiet NaN
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | frac<<13)
	}
}

// Float64 converts to float64 exactly.
func (h F16) Float64() float64 { return float64(h.Float32()) }

// FromFloat64 converts a float64 to binary16, correctly rounded (nearest,
// ties to even). It narrows through float32 rounding to odd: truncate
// toward zero and set the last bit when anything was cut off, so that the
// second rounding, to binary16, still sees on which side of a binary16
// midpoint the float64 lay (float32 keeps 13 bits beyond binary16's 11,
// more than the 2 round-to-odd needs). A plain float32 narrowing rounds
// twice: 1 + 2^-11 + 2^-40 would become the midpoint 1 + 2^-11 and then 1.
func FromFloat64(f float64) F16 {
	r := float32(f)
	if float64(r) == f || f != f {
		return FromFloat32(r)
	}
	b := math.Float32bits(r)
	if math.Abs(float64(r)) > math.Abs(f) {
		b-- // rounded away from zero: step back toward it
	}
	return FromFloat32(math.Float32frombits(b | 1))
}

// IsNaN reports whether h is a NaN.
func (h F16) IsNaN() bool { return h&expMask == expMask && h&fracMask != 0 }

// IsInf reports whether h is an infinity. sign > 0 tests +Inf, sign < 0
// tests -Inf, sign == 0 tests either.
func (h F16) IsInf(sign int) bool {
	if h&expMask != expMask || h&fracMask != 0 {
		return false
	}
	switch {
	case sign > 0:
		return h&signMask == 0
	case sign < 0:
		return h&signMask != 0
	default:
		return true
	}
}

// IsZero reports whether h is +0 or -0.
func (h F16) IsZero() bool { return h&^signMask == 0 }

// IsSubnormal reports whether h is a nonzero subnormal.
func (h F16) IsSubnormal() bool { return h&expMask == 0 && h&fracMask != 0 }

// Sign reports the sign bit: true when negative (including -0 and -NaN).
func (h F16) Signbit() bool { return h&signMask != 0 }

// Neg returns h with the sign flipped (including for NaN, matching IEEE
// negate semantics).
func (h F16) Neg() F16 { return h ^ signMask }

// Abs returns h with the sign cleared.
func (h F16) Abs() F16 { return h &^ signMask }

// Add returns the correctly rounded binary16 sum a+b.
func Add(a, b F16) F16 { return FromFloat32(a.Float32() + b.Float32()) }

// Sub returns the correctly rounded binary16 difference a-b.
func Sub(a, b F16) F16 { return FromFloat32(a.Float32() - b.Float32()) }

// Mul returns the correctly rounded binary16 product a*b.
func Mul(a, b F16) F16 { return FromFloat32(a.Float32() * b.Float32()) }

// Div returns the correctly rounded binary16 quotient a/b.
func Div(a, b F16) F16 { return FromFloat32(a.Float32() / b.Float32()) }

// MAC returns acc + a*b the way the PIM pipeline computes it: the MULT
// stage rounds the product to binary16, then the ADD stage rounds the sum
// to binary16 (two rounding steps, matching a multiplier feeding an adder
// through a 16-bit pipeline register, Section IV-B).
//
// This is the fused portable kernel (tier 2 of the package comment): MAD,
// every MACVec and MADVec lane, and every lane of MACVecBursts and
// MADVecBursts the SIMD burst kernels do not take.
// The float32 product of two binary16 values is exact (22 significand
// bits in 24), so one rounding of its bit pattern to 11 significand bits
// is the correctly rounded product. For unbiased exponents -14..14 that
// result is a normal binary16, whose float32 image keeps the exponent and
// the top 10 fraction bits: round-to-nearest-even on the low 13 bits, in
// place, with no trip through binary16 bits and the widening table. A
// carry out of the fraction increments the exponent field, which is the
// right answer (at most 2^15, still finite in binary16). An exactly zero
// product (a zero operand: padding, a fresh LSTM state) is its own
// binary16 image, sign included. The products left over, which may round
// to a subnormal, to zero or to Inf, or are Inf or NaN, narrow and widen
// through the tables as Mul does.
func MAC(acc, a, b F16) F16 {
	p := f16to32[a] * f16to32[b]
	pb := math.Float32bits(p)
	// Biased float32 exponents 113..141 are unbiased -14..14.
	if (pb>>23)&0xFF-113 <= 141-113 {
		p = math.Float32frombits((pb + 0xFFF + (pb>>13)&1) &^ 0x1FFF)
	} else if pb<<1 != 0 {
		p = f16to32[FromFloat32(p)]
	}
	sb := math.Float32bits(f16to32[acc] + p)
	if sb>>23&0xFF == 0xFF {
		// Inf or NaN. A NaN must come from macRef: see there.
		return macRef(acc, a, b)
	}
	return roundFinite(sb)
}

// MAD returns a*b + c with the same two-step rounding as MAC.
func MAD(a, b, c F16) F16 { return MAC(c, a, b) }

// macRef is the two-rounding MAC spelled as the composition of the scalar
// operations: the oracle the fused kernel and the SIMD burst kernels are
// tested against, and the path of every lane whose sum is not finite.
// When both operands of a float add or multiply are NaN the hardware keeps the first one's payload, and
// the compiler is free to commute the operands, so which payload a NaN
// result carries is stable only within one compiled expression. Never
// inlined, this is that expression: every NaN MAC result in the program
// is computed here, whatever the kernel's own add made of the operands.
//
//go:noinline
func macRef(acc, a, b F16) F16 { return Add(acc, Mul(a, b)) }

// ReLU returns max(h, 0), implemented exactly as the hardware does: a
// 2-to-1 multiplexer controlled by the sign bit (Section III-C). Negative
// inputs, including -0 and negative NaNs, yield +0.
func ReLU(h F16) F16 {
	if h&signMask != 0 {
		return Zero
	}
	return h
}

// Eq reports numeric equality: +0 == -0, NaN != NaN.
func Eq(a, b F16) bool {
	if a.IsNaN() || b.IsNaN() {
		return false
	}
	if a.IsZero() && b.IsZero() {
		return true
	}
	return a == b
}

// Less reports a < b under IEEE ordering (false if either is NaN).
func Less(a, b F16) bool {
	if a.IsNaN() || b.IsNaN() {
		return false
	}
	return a.Float32() < b.Float32()
}

// Bits returns the raw 16-bit encoding.
func (h F16) Bits() uint16 { return uint16(h) }

// FromBits builds an F16 from its raw encoding.
func FromBits(b uint16) F16 { return F16(b) }

// String renders the value in decimal (via float32).
func (h F16) String() string {
	switch {
	case h.IsNaN():
		return "NaN"
	case h == PosInf:
		return "+Inf"
	case h == NegInf:
		return "-Inf"
	}
	return trimFloat(h.Float32())
}
