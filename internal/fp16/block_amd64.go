//go:build !purego

package fp16

// The SIMD tier of the burst forms (see the package comment): the PIM
// unit's 16-lane FPU as 16 host lanes. block_amd64.s holds the kernels;
// vector.go walks the units of a burst form through them when simd is set.

func init() { simd = hasF16C() }

// hasF16C reports whether the CPU executes AVX and F16C instructions and
// the operating system saves the YMM registers they use: CPUID.1:ECX
// bits OSXSAVE, AVX and F16C, then XCR0 bits 1 and 2.
func hasF16C() bool

// The burst kernels run MACVecBursts, MADVecBursts, AddVecBursts and
// MulVecBursts for up to 64 units in one call, every unit's whole blocks
// at once. They return the mask of units left unfinished, at a NaN block,
// which is not stored, or at a tail shorter than a block, with resume[u]
// the lane unit u's portable loop starts at (block_amd64.s has the whole
// contract).

//go:noescape
func macBursts(dst, a, b [][]byte, resume *[MaxBurstUnits]int32) (unfinished uint64)

//go:noescape
func madBursts(dst, a, b [][]byte, c []F16, resume *[MaxBurstUnits]int32) (unfinished uint64)

//go:noescape
func addBursts(dst, a, b [][]byte, resume *[MaxBurstUnits]int32) (unfinished uint64)

//go:noescape
func mulBursts(dst, a, b [][]byte, resume *[MaxBurstUnits]int32) (unfinished uint64)
