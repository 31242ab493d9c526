package fp16

import "math"

// Table-driven conversions. The simulator converts between binary16 and
// float32 on every lane the portable kernel computes, so these functions
// and the fused MAC built on them (MAC, fp16.go) are the functional-mode
// profile wherever the SIMD block kernels are absent, and the scalar
// oracles' everywhere. The package's arithmetic comes in three tiers
// (package comment): the reference macRef, which goes through FromFloat32
// and Float32 below twice per MAC; the fused portable kernel, which goes
// through them once and calls roundFinite directly; and the SIMD block
// kernels (block_amd64.s), which use none of this file, since VCVTPH2PS
// and VCVTPS2PH are the hardware's own widening and narrowing. Each tier
// is tested against the one before; tier 3 is selected at init from
// CPUID (AVX, F16C, OS-saved YMM state) and by nothing else. A NaN result
// leaves tier 3 for tier 2 and tier 2 for macRef, because its payload
// depends on the operand order of the instruction that made it; an Inf
// result carries no payload and stays in tier 3.
//
// Both conversions are exact replacements for the branchy reference
// implementations in fp16.go:
//
//   - F16 -> float32 is a single load from a 65,536-entry table built at
//     init by float32Ref, so it is bit-identical by construction.
//   - float32 -> F16 uses a 512-entry table indexed by the float32 sign and
//     exponent bits (Fabian Giesen's float-to-half trick): each exponent
//     class maps to a base bit pattern plus a right-shift applied to the
//     24-bit significand with round-to-nearest-even (roundFinite). The
//     rounding itself is arithmetic, not a compare: whether a value rounds
//     up is close to a coin flip on real data, and a branch on it was the
//     one the predictor could not learn. Only the Inf/NaN class stays on
//     a branch, a predictable one, because its result depends on the
//     fraction payload and not just the exponent. The fused kernel hoists
//     that branch (an Inf or NaN sum leaves the kernel altogether) and
//     calls roundFinite directly.
//
// The equivalence of both paths with the reference is enforced by an
// exhaustive 2^16 test plus a directed float32 sweep in lut_test.go, and
// for every float32 the MAC pipeline can hand to the narrowing (all 2^32
// sums of two binary16 values) by TestExhaustiveAddStage in mac_test.go.

// Concurrency: all three tables are written only by this package's
// init() and are read-only afterwards. The Go runtime completes every
// init() before main (or any test) starts, so concurrent readers — the
// serving layer drives many device shards from worker goroutines — need
// no sync.Once or other guard; this is audited by blas's
// TestConcurrentShardsGemv under -race.

// f16to32 holds float32(h) for every binary16 bit pattern (256 KiB).
var f16to32 [1 << 16]float32

// f32to16base/f32to16shift are indexed by the top 9 bits of a float32
// (sign + biased exponent). The conversion of a finite float32 b is
//
//	base[se] + roundToNearestEven(significand(b) >> shift[se])
//
// where significand includes the hidden bit. Overflow-to-infinity on
// rounding works out arithmetically: in the largest normal class the base
// plus a carried-out significand lands exactly on the infinity encoding.
var (
	f32to16base  [512]uint16
	f32to16shift [512]uint8
)

func init() {
	for i := range f16to32 {
		f16to32[i] = F16(i).float32Ref()
	}
	for se := 0; se < 512; se++ {
		sign := uint16(se>>8) << 15
		e := int32(se&0xFF) - 127 // unbiased float32 exponent
		switch {
		case se&0xFF == 0 || e < -25:
			// Signed zero, float32 subnormals (< 2^-126) and deep underflow
			// all round to signed zero: shifting the significand past its
			// round bit leaves nothing.
			f32to16base[se] = sign
			f32to16shift[se] = 26
		case e > 15:
			// Overflow to infinity (also covers the Inf/NaN exponent class,
			// which FromFloat32 handles on a branch before the table).
			f32to16base[se] = sign | expMask
			f32to16shift[se] = 26
		case e >= -14:
			// Normal binary16 range: shift out 13 significand bits and fold
			// the hidden bit into the exponent field by pre-subtracting it.
			f32to16base[se] = sign | (uint16(e+expBias) << expShift) - (1 << expShift)
			f32to16shift[se] = 13
		default:
			// Subnormal binary16 range, e in [-25, -15]: denormalize by
			// shifting (-14 - e) extra bits; the base is just the sign.
			f32to16base[se] = sign
			f32to16shift[se] = uint8(13 + (-14 - e))
		}
	}
}

// FromFloat32 converts a float32 to binary16 with round-to-nearest-even.
// Overflow produces an infinity; underflow produces a (possibly zero)
// subnormal. NaN payloads are quieted. Bit-identical to fromFloat32Ref.
func FromFloat32(f float32) F16 {
	b := math.Float32bits(f)
	if b>>23&0xFF == 0xFF {
		// Inf or NaN: the result depends on the fraction payload.
		sign := uint16(b>>16) & signMask
		if frac := b & 0x7FFFFF; frac != 0 {
			return F16(sign | expMask | 0x0200 | uint16(frac>>13)&fracMask)
		}
		return F16(sign | expMask)
	}
	return roundFinite(b)
}

// roundFinite narrows the finite float32 with bits b to binary16: the
// class base plus the 24-bit significand shifted right by the class shift
// s with round-to-nearest-even. Adding half-1 plus the quotient's own low
// bit carries into the quotient exactly when the remainder exceeds half,
// or equals half with an odd quotient. s <= 26 and sig < 2^24, so nothing
// overflows uint32 and the deep-underflow classes (s = 26) still come out
// as zero.
func roundFinite(b uint32) F16 {
	se := b >> 23
	sig := b&0x7FFFFF | 0x800000
	s := uint32(f32to16shift[se]) & 31 // 13..26; the mask spares the >= 32 shift fix-ups
	return F16(f32to16base[se] + uint16((sig+(1<<(s-1)-1)+(sig>>s)&1)>>s))
}

// Float32 converts a binary16 value to float32 exactly (binary16 is a
// subset of binary32). Served from a table built at init by float32Ref.
func (h F16) Float32() float32 { return f16to32[h] }
