//go:build !purego

#include "textflag.h"

// The 16-lane block kernels of block_amd64.go. Each widens its binary16
// operands to two registers of eight float32 lanes (VCVTPH2PS), does the
// arithmetic there, and narrows with round-to-nearest-even (VCVTPS2PH,
// rounding immediate 0, which does not consult MXCSR.RC). A result with
// a NaN lane is not stored: the kernel returns false with dst untouched
// and the caller recomputes the block with the portable loop.

// WIDEN2 loads the 16 binary16 lanes at ptr as float32 into lo and hi.
#define WIDEN2(ptr, lo, hi) \
	VCVTPH2PS (ptr), lo   \
	VCVTPH2PS 16(ptr), hi

// ROUND2 rounds the float32 lanes of lo and hi to binary16 precision in
// place: the pipeline register between the MULT and the ADD stage.
#define ROUND2(lo, hi, xlo, xhi) \
	VCVTPS2PH $0, lo, xlo \
	VCVTPS2PH $0, hi, xhi \
	VCVTPH2PS xlo, lo     \
	VCVTPH2PS xhi, hi

// FINISH stores the float32 results Y0, Y1 as 16 binary16 lanes at DI and
// returns true, unless a lane is NaN: an unordered compare of the two
// registers with each other flags a NaN in either.
#define FINISH(ret) \
	VCMPPS $3, Y1, Y0, Y2     \
	VPTEST Y2, Y2             \
	JNZ    nan                \
	VCVTPS2PH $0, Y0, (DI)    \
	VCVTPS2PH $0, Y1, 16(DI)  \
	VZEROUPPER                \
	MOVB   $1, ret            \
	RET                       \
nan:                          \
	VZEROUPPER                \
	MOVB   $0, ret            \
	RET

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

// func macBlock(dst, a, b *block) bool
TEXT ·macBlock(SB), NOSPLIT, $0-25
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	WIDEN2(SI, Y0, Y1)
	WIDEN2(DX, Y2, Y3)
	VMULPS Y2, Y0, Y0
	VMULPS Y3, Y1, Y1
	ROUND2(Y0, Y1, X0, X1)
	WIDEN2(DI, Y2, Y3)
	VADDPS Y0, Y2, Y0
	VADDPS Y1, Y3, Y1
	FINISH(ret+24(FP))

// func madBlock(dst, a, b *block, c float32) bool
TEXT ·madBlock(SB), NOSPLIT, $0-33
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	VBROADCASTSS c+24(FP), Y4
	WIDEN2(SI, Y0, Y1)
	WIDEN2(DX, Y2, Y3)
	VMULPS Y2, Y0, Y0
	VMULPS Y3, Y1, Y1
	ROUND2(Y0, Y1, X0, X1)
	VADDPS Y0, Y4, Y0
	VADDPS Y1, Y4, Y1
	FINISH(ret+32(FP))

// func addBlock(dst, a, b *block) bool
TEXT ·addBlock(SB), NOSPLIT, $0-25
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	WIDEN2(SI, Y0, Y1)
	WIDEN2(DX, Y2, Y3)
	VADDPS Y2, Y0, Y0
	VADDPS Y3, Y1, Y1
	FINISH(ret+24(FP))

// func mulBlock(dst, a, b *block) bool
TEXT ·mulBlock(SB), NOSPLIT, $0-25
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	WIDEN2(SI, Y0, Y1)
	WIDEN2(DX, Y2, Y3)
	VMULPS Y2, Y0, Y0
	VMULPS Y3, Y1, Y1
	FINISH(ret+24(FP))
