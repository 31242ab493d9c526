//go:build !purego

#include "textflag.h"

// The SIMD tier of the fp16 vector operations (tier 3 of the package
// comment): the burst kernels (macBursts, madBursts, addBursts,
// mulBursts), each of which runs a burst form (MACVecBursts and the rest)
// for every unit of a PIM trigger in one call: up to 64 units, each
// unit's whole blocks in order.
//
// They widen the binary16 operands to two registers of eight float32
// lanes (VCVTPH2PS), do the arithmetic there, and narrow with
// round-to-nearest-even (VCVTPS2PH, rounding immediate 0, which does not
// consult MXCSR.RC). A block whose result has a NaN lane is not stored,
// so that every NaN comes from the portable loop's expression: the kernel
// stops that unit at the block and returns it in its mask of unfinished
// units with the lane to resume at, where the caller runs the portable
// loop to the unit's end. The mask also carries every unit whose length
// leaves a tail of fewer than 16 lanes, at the tail.

// WIDEN2 loads the 16 binary16 lanes of the block at lane AX of the
// burst at ptr as float32 into lo and hi.
#define WIDEN2(ptr, lo, hi) \
	VCVTPH2PS (ptr)(AX*2), lo   \
	VCVTPH2PS 16(ptr)(AX*2), hi

// ROUND2 rounds the float32 lanes of lo and hi to binary16 precision in
// place: the pipeline register between the MULT and the ADD stage.
#define ROUND2(lo, hi, xlo, xhi) \
	VCVTPS2PH $0, lo, xlo \
	VCVTPS2PH $0, hi, xhi \
	VCVTPH2PS xlo, lo     \
	VCVTPH2PS xhi, hi

// func hasF16C() bool
TEXT ·hasF16C(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<27 | 1<<28 | 1<<29), CX // OSXSAVE, AVX, F16C
	CMPL CX, $(1<<27 | 1<<28 | 1<<29)
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// The burst kernels run one burst form of vector.go for every unit of a
// trigger in one call, reading each unit's slice headers themselves: 24
// bytes a header, base then length. Every operand, dst included, is a
// burst, so unit u's common length n is the shortest of its bursts'
// len/2, and its whole 16-lane blocks go through the arithmetic in
// order. A block whose result has a NaN lane is not stored, and the unit
// stops there. A unit that stops at a NaN block, or whose n
// leaves a tail of fewer than 16 lanes, is unfinished: the kernel sets
// bit u of the mask it returns and resume[u] to the lane its first
// unfinished block starts at, and the caller runs the portable loop from
// there. Bits and resume entries of finished units are left alone.
// len(dst) is at most 64 and the other slices are at least as long
// (vector.go guarantees both).
//
// Registers: BX is u, R8 u*24 (the offset of unit u's headers), R13 the
// dst headers, R9 and R10 the a and b headers, CX n, R11 n rounded down
// to whole blocks, AX the first lane of the block, DI, SI and DX unit
// u's dst, a and b, R12 the mask, Y4 MAD's addend.

// UNIT starts unit u: it returns the mask when u reaches len(dst), loads
// unit u's dst into DI and its length in lanes into CX.
#define UNIT(units, ret) \
unit:                       \
	CMPQ BX, units           \
	JEQ  done                \
	MOVQ (R13)(R8*1), DI     \
	MOVQ 8(R13)(R8*1), CX    \
	SHRQ $1, CX              \
	JMP  operands            \
done:                       \
	VZEROUPPER               \
	MOVQ R12, ret            \
	RET                      \
operands:

// OPERAND loads unit u's operand from the headers at hdr into ptr and
// cuts CX to its length in lanes.
#define OPERAND(hdr, ptr) \
	MOVQ (hdr)(R8*1), ptr    \
	MOVQ 8(hdr)(R8*1), AX    \
	SHRQ $1, AX              \
	CMPQ AX, CX              \
	CMOVQLT AX, CX

// BLOCKS opens the block loop of unit u at lane 0.
#define BLOCKS \
	MOVQ CX, R11             \
	ANDQ $-16, R11           \
	XORQ AX, AX              \
block:                      \
	CMPQ AX, R11             \
	JEQ  tail

// NEXT closes the block loop: it stores the block Y0, Y1 at lane AX of
// dst and goes on to the next block, or, if a lane is NaN, leaves dst as
// it was and marks unit u unfinished at AX, as it does a unit with a
// tail; then it goes on to unit u+1.
#define NEXT(resume) \
	VCMPPS $3, Y1, Y0, Y2          \
	VPTEST Y2, Y2                  \
	JNZ    unfinished              \
	VCVTPS2PH $0, Y0, (DI)(AX*2)   \
	VCVTPS2PH $0, Y1, 16(DI)(AX*2) \
	ADDQ   $16, AX                 \
	JMP    block                   \
tail:                             \
	CMPQ   AX, CX                  \
	JEQ    next                    \
unfinished:                       \
	BTSQ   BX, R12                 \
	MOVQ   resume, R11             \
	MOVL   AX, (R11)(BX*4)         \
next:                             \
	INCQ   BX                      \
	ADDQ   $24, R8                 \
	JMP    unit

// func macBursts(dst, a, b [][]byte, resume *[MaxBurstUnits]int32) (unfinished uint64)
TEXT ·macBursts(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), R13
	MOVQ a_base+24(FP), R9
	MOVQ b_base+48(FP), R10
	XORQ BX, BX
	XORQ R8, R8
	XORQ R12, R12
	UNIT(dst_len+8(FP), unfinished+80(FP))
	OPERAND(R9, SI)
	OPERAND(R10, DX)
	BLOCKS
	WIDEN2(SI, Y0, Y1)
	WIDEN2(DX, Y2, Y3)
	VMULPS Y2, Y0, Y0
	VMULPS Y3, Y1, Y1
	ROUND2(Y0, Y1, X0, X1)
	WIDEN2(DI, Y2, Y3)
	VADDPS Y0, Y2, Y0
	VADDPS Y1, Y3, Y1
	NEXT(resume+72(FP))

// madBursts widens unit u's addend c[u] into all eight lanes of Y4 with
// AVX and F16C alone: two copies in a dword, the dword in all four of X4,
// then VCVTPH2PS of the eight halves.
//
// func madBursts(dst, a, b [][]byte, c []F16, resume *[MaxBurstUnits]int32) (unfinished uint64)
TEXT ·madBursts(SB), NOSPLIT, $0-112
	MOVQ dst_base+0(FP), R13
	MOVQ a_base+24(FP), R9
	MOVQ b_base+48(FP), R10
	XORQ BX, BX
	XORQ R8, R8
	XORQ R12, R12
	UNIT(dst_len+8(FP), unfinished+104(FP))
	MOVQ c_base+72(FP), AX
	MOVWLZX (AX)(BX*2), AX
	IMULL $0x10001, AX
	VMOVD AX, X4
	VPSHUFD $0, X4, X4
	VCVTPH2PS X4, Y4
	OPERAND(R9, SI)
	OPERAND(R10, DX)
	BLOCKS
	WIDEN2(SI, Y0, Y1)
	WIDEN2(DX, Y2, Y3)
	VMULPS Y2, Y0, Y0
	VMULPS Y3, Y1, Y1
	ROUND2(Y0, Y1, X0, X1)
	VADDPS Y0, Y4, Y0
	VADDPS Y1, Y4, Y1
	NEXT(resume+96(FP))

// func addBursts(dst, a, b [][]byte, resume *[MaxBurstUnits]int32) (unfinished uint64)
TEXT ·addBursts(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), R13
	MOVQ a_base+24(FP), R9
	MOVQ b_base+48(FP), R10
	XORQ BX, BX
	XORQ R8, R8
	XORQ R12, R12
	UNIT(dst_len+8(FP), unfinished+80(FP))
	OPERAND(R9, SI)
	OPERAND(R10, DX)
	BLOCKS
	WIDEN2(SI, Y0, Y1)
	WIDEN2(DX, Y2, Y3)
	VADDPS Y2, Y0, Y0
	VADDPS Y3, Y1, Y1
	NEXT(resume+72(FP))

// func mulBursts(dst, a, b [][]byte, resume *[MaxBurstUnits]int32) (unfinished uint64)
TEXT ·mulBursts(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), R13
	MOVQ a_base+24(FP), R9
	MOVQ b_base+48(FP), R10
	XORQ BX, BX
	XORQ R8, R8
	XORQ R12, R12
	UNIT(dst_len+8(FP), unfinished+80(FP))
	OPERAND(R9, SI)
	OPERAND(R10, DX)
	BLOCKS
	WIDEN2(SI, Y0, Y1)
	WIDEN2(DX, Y2, Y3)
	VMULPS Y2, Y0, Y0
	VMULPS Y3, Y1, Y1
	NEXT(resume+72(FP))
