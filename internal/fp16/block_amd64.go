//go:build !purego

package fp16

// The SIMD tier of the vector operations (see the package comment): the
// PIM unit's 16-lane FPU as 16 host lanes. block_amd64.s holds the
// kernels; vector.go walks operands through them when simd is set.

func init() { simd = hasF16C() }

// hasF16C reports whether the CPU executes AVX and F16C instructions and
// the operating system saves the YMM registers they use: CPUID.1:ECX
// bits OSXSAVE, AVX and F16C, then XCR0 bits 1 and 2.
func hasF16C() bool

// The block kernels compute one 16-lane block of MACVec, MADVec, AddVec
// and MulVec. They return false, leaving dst as it was, when a lane of
// the result is NaN. All 16 lanes of every operand are loaded before dst
// is stored, so dst may be one of the operands.

//go:noescape
func macBlock(dst, a, b *block) bool

// madBlock takes the addend already widened: it is the same float32 in
// every lane.
//
//go:noescape
func madBlock(dst, a, b *block, c float32) bool

//go:noescape
func addBlock(dst, a, b *block) bool

//go:noescape
func mulBlock(dst, a, b *block) bool

// The byte-operand kernels are the four above with the bank operand typed
// as a burst: block_amd64.s jumps to the kernel, whose VCVTPH2PS reads the
// burst's 32 bytes where they lie.

//go:noescape
func macBlockBytes(dst, a *block, b *burst) bool

//go:noescape
func madBlockBytes(dst *block, a *burst, b *block, c float32) bool

//go:noescape
func addBlockBytes(dst, a *block, b *burst) bool

//go:noescape
func mulBlockBytes(dst, a *block, b *burst) bool
