package fp16

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// eachPath runs f against both tiers of the vector operations in this
// binary: as subtest "portable" with the SIMD block kernels switched off,
// then as subtest "simd" with them on, which is skipped where init found
// none to switch on.
func eachPath(t *testing.T, f func(t *testing.T)) {
	host := simd
	defer func() { simd = host }()
	simd = false
	t.Run("portable", f)
	t.Run("simd", func(t *testing.T) {
		needSIMD(t, host)
		simd = true
		f(t)
	})
}

// needSIMD skips a test of the SIMD block kernels where there are none.
func needSIMD(t testing.TB, have bool) {
	t.Helper()
	if !have {
		t.Skip("no SIMD block kernels here (they need amd64 with AVX and F16C, and a build without -tags purego); the portable kernel is all this binary runs")
	}
}

// forAllX calls check(x) for all 2^16 binary16 values, dealt round-robin
// to GOMAXPROCS goroutines. check returns false to report a mismatch
// (after t.Errorf); its goroutine then stops.
func forAllX(t *testing.T, check func(x F16) bool) {
	t.Helper()
	if testing.Short() {
		t.Skip("2^32 pairs; skipped under -short (make fp16-exhaustive runs it)")
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for x := w; x <= 0xFFFF; x += workers {
				if !check(F16(x)) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// forAllPairs calls check(x, y) for all 2^32 binary16 pairs.
func forAllPairs(t *testing.T, check func(x, y F16) bool) {
	t.Helper()
	forAllX(t, func(x F16) bool {
		for y := 0; y <= 0xFFFF; y++ {
			if !check(x, F16(y)) {
				return false
			}
		}
		return true
	})
}

// TestExhaustiveMulStage pins the MULT stage of the fused kernel for all
// 2^32 operand pairs. Accumulating into -0 isolates it: -0 + p is p, sign
// of zero included, and narrowing a float32 that already is a binary16
// is exact, so MAC(-0, a, b) must be the reference product, bit for bit.
// Only a NaN product is left to compare as a NaN: its payload is macRef's
// business, whichever expression computes it.
func TestExhaustiveMulStage(t *testing.T) {
	forAllPairs(t, func(a, b F16) bool {
		got, want := MAC(NegZero, a, b), fromFloat32Ref(f16to32[a]*f16to32[b])
		if got != want && !(got.IsNaN() && want.IsNaN()) {
			t.Errorf("MAC(-0, 0x%04x, 0x%04x) = 0x%04x, reference product 0x%04x",
				uint16(a), uint16(b), uint16(got), uint16(want))
			return false
		}
		return true
	})
}

// TestExhaustiveAddStage pins the ADD stage: the branch-free narrowing of
// every float32 that is the sum of two binary16 values equals the branchy
// reference. Together with TestExhaustiveMulStage this covers every value
// the fused kernel can produce, since a rounded product is a binary16.
// (y = -0 makes the sums every binary16 itself: the exact narrowing the
// MULT-stage test leans on.)
func TestExhaustiveAddStage(t *testing.T) {
	forAllPairs(t, func(x, y F16) bool {
		s := f16to32[x] + f16to32[y]
		if got, want := FromFloat32(s), fromFloat32Ref(s); got != want {
			t.Errorf("FromFloat32(0x%04x + 0x%04x = %08x) = 0x%04x, reference 0x%04x",
				uint16(x), uint16(y), math.Float32bits(s), uint16(got), uint16(want))
			return false
		}
		return true
	})
}

// forAllBlocks runs the 2^32 pairs through the SIMD block kernels: for
// every x and every block y of 16 consecutive values, ops fills the rows
// of got from x splatted against y, and each lane of each row must be
// ref(x, y[lane]), or a NaN where that is one (payloads are the
// differential test's business). All but a few hundred blocks per x hold
// no NaN, so this is the kernels' arithmetic and not the fallback's.
func forAllBlocks(t *testing.T, ref func(x, y F16) F16, ops func(got []Vector, xs, y Vector)) {
	t.Helper()
	needSIMD(t, simd)
	forAllX(t, func(x F16) bool {
		xs, y, want := splatVec(x, Lanes), NewVector(Lanes), NewVector(Lanes)
		got := []Vector{NewVector(Lanes), NewVector(Lanes), NewVector(Lanes)}
		for y0 := 0; y0 <= 0xFFFF; y0 += Lanes {
			for i := range y {
				y[i] = F16(y0 + i)
				want[i] = ref(x, y[i])
			}
			ops(got, xs, y)
			for op, g := range got {
				if *(*block)(g) == *(*block)(want) {
					continue
				}
				for i := range g {
					if g[i] != want[i] && !(g[i].IsNaN() && want[i].IsNaN()) {
						t.Errorf("op %d, x=0x%04x, y=0x%04x (lane %d): 0x%04x, reference 0x%04x",
							op, uint16(x), uint16(y[i]), i, uint16(g[i]), uint16(want[i]))
						return false
					}
				}
			}
		}
		return true
	})
}

func splatVec(h F16, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = h
	}
	return v
}

// TestExhaustiveMulStageVec is TestExhaustiveMulStage through the 16-lane
// entry points on the SIMD path: x*y accumulated into -0 by MACVec and by
// MADVec, and MulVec's own kernel, against the reference product.
func TestExhaustiveMulStageVec(t *testing.T) {
	negZeros := splatVec(NegZero, Lanes)
	forAllBlocks(t,
		func(x, y F16) F16 { return fromFloat32Ref(f16to32[x] * f16to32[y]) },
		func(got []Vector, xs, y Vector) {
			MACVec(copyInto(got[0], negZeros), xs, y)
			MADVec(got[1], xs, y, NegZero)
			MulVec(got[2], xs, y)
		})
}

// TestExhaustiveAddStageVec is the ADD stage the same way: y*1 is y, so
// MACVec into x and MADVec onto x are x+y, as is AddVec, against the
// reference narrowing of the float32 sum.
func TestExhaustiveAddStageVec(t *testing.T) {
	ones := splatVec(One, Lanes)
	forAllBlocks(t,
		func(x, y F16) F16 { return fromFloat32Ref(f16to32[x] + f16to32[y]) },
		func(got []Vector, xs, y Vector) {
			MACVec(copyInto(got[0], xs), y, ones)
			MADVec(got[1], y, ones, xs[0])
			AddVec(got[2], xs, y)
		})
}

func copyInto(dst, src Vector) Vector {
	copy(dst, src)
	return dst
}

// checkMACVec compares all four entry points of the MAC with the
// reference composition on every lane: MAC, MAD and MACVec on the triple
// (acc[i], a[i], b[i]), MADVec with acc[0] as its addend.
func checkMACVec(t testing.TB, acc, a, b Vector) bool {
	t.Helper()
	c := acc[0]
	mac := MACVec(append(Vector(nil), acc...), a, b)
	mad := MADVec(make(Vector, len(acc)), a, b, c)
	for i := range acc {
		want := macRef(acc[i], a[i], b[i])
		for _, k := range []struct {
			name      string
			got, want F16
		}{
			{"MAC", MAC(acc[i], a[i], b[i]), want},
			{"MACVec", mac[i], want},
			{"MAD", MAD(a[i], b[i], acc[i]), want},
			{"MADVec", mad[i], macRef(c, a[i], b[i])},
		} {
			if k.got != k.want {
				t.Errorf("%s lane %d of %d (acc=0x%04x, a=0x%04x, b=0x%04x, MADVec addend 0x%04x) = 0x%04x, reference 0x%04x",
					k.name, i, len(acc), uint16(acc[i]), uint16(a[i]), uint16(b[i]), uint16(c), uint16(k.got), uint16(k.want))
				return false
			}
		}
	}
	return true
}

// checkMAC is checkMACVec on one operand triple in every lane of a block
// and a tail.
func checkMAC(t testing.TB, acc, a, b F16) bool {
	t.Helper()
	const n = Lanes + 3
	return checkMACVec(t, splatVec(acc, n), splatVec(a, n), splatVec(b, n))
}

// unitOperand draws a binary16 in [-1, 1), the magnitude of weights and
// activations in the workloads the simulator runs.
func unitOperand(rng *rand.Rand) F16 { return FromFloat32(rng.Float32()*2 - 1) }

// TestMACDifferential runs the kernels against the reference on 10 M
// uniformly random raw-bit triples (a tenth of which carry a NaN
// somewhere, and many a subnormal or overflowing product) and on 2 M
// triples of realistic magnitude, where the accumulator is a running sum;
// a block of 16 triples and a tail of 3 at a time. Raw bits leave few
// blocks without a NaN lane, and a NaN lane sends its block to the
// portable loop, so every other raw-bit round has its Inf and NaN
// operands made finite (exponent 30 for 31) and stays in the block kernel.
func TestMACDifferential(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		const n = Lanes + 3
		rng := rand.New(rand.NewSource(20210614))
		acc, a, b := NewVector(n), NewVector(n), NewVector(n)
		for round := 0; round < 10_000_000/n; round++ {
			for i := range acc {
				r := rng.Uint64()
				acc[i], a[i], b[i] = F16(r), F16(r>>16), F16(r>>32)
				if round%2 == 1 {
					acc[i], a[i], b[i] = finite(acc[i]), finite(a[i]), finite(b[i])
				}
			}
			if !checkMACVec(t, acc, a, b) {
				return
			}
		}
		clear(acc)
		for round := 0; round < 2_000_000/n; round++ {
			if round%64 == 0 {
				clear(acc)
			}
			for i := range a {
				a[i], b[i] = unitOperand(rng), unitOperand(rng)
			}
			if !checkMACVec(t, acc, a, b) {
				return
			}
			MACVec(acc, a, b)
		}
	})
}

// finite maps an Inf or NaN to the finite value one exponent below it.
func finite(h F16) F16 {
	if h&expMask == expMask {
		return h &^ (1 << expShift)
	}
	return h
}

// TestMACDirected walks the cases the kernel's range checks and the
// reference fallback exist for. want is the MAC result where IEEE fixes
// it; NaN results are compared with the reference only, payload and all.
func TestMACDirected(t *testing.T) {
	const anyNaN = F16(0xFFFF)
	cases := []struct {
		name      string
		acc, a, b F16
		want      F16
	}{
		{"plain", One, 0x4000, 0x4200, 0x4700}, // 1 + 2*3
		{"NaN acc keeps its payload and sign", 0xFF4A, 0x3C00, 0x3C00, 0xFF4A},
		{"NaN a", One, 0x7E01, One, 0x7E01},
		{"NaN b, negative", One, One, 0xFE02, 0xFE02},
		{"signalling NaN is quieted", One, 0x7C01, One, 0x7E01},
		{"NaN acc and NaN product", 0xFF4A, 0xE3AB, 0x7F03, anyNaN},
		{"NaN a and NaN b", One, 0x7E11, 0xFE22, anyNaN},
		{"0 * Inf", One, Zero, PosInf, anyNaN},
		{"+Inf acc", PosInf, One, One, PosInf},
		{"-Inf acc", NegInf, One, One, NegInf},
		{"Inf product", One, PosInf, 0xC000, NegInf},
		{"Inf - Inf", PosInf, NegInf, One, anyNaN},
		// 65504*2 overflows at the MULT stage, so the ADD stage sees Inf - Inf:
		// the two-rounding pipeline's answer, where a fused MAC would say -Inf.
		{"overflowing product meets -Inf", NegInf, 0x7BFF, 0x4000, anyNaN},
		{"product exactly 65504", Zero, One, MaxVal, MaxVal},
		{"product 65517.9 rounds to 65504", Zero, 0x3C11, 0x7BDE, MaxVal},
		{"product 65520 ties to Inf", Zero, 0x3C10, 0x7BE0, PosInf},
		{"product 65535.9 overflows", Zero, 0x3C01, 0x7BFE, PosInf},
		{"negative overflow", Zero, 0xBC01, 0x7BFE, NegInf},
		{"sum overflows", MaxVal, 0x7000, 0x4000, PosInf}, // 65504 + 8192*2
		{"sum 65519 stays finite", MaxVal, 0x4B80, One, MaxVal},
		{"product below half MinPos", Zero, 0x0401, 0x0401, Zero},
		{"product ties at half MinPos to zero", Zero, 0x0800, 0x0C00, Zero},
		{"product just above half MinPos", Zero, 0x0401, 0x0FFF, MinPos},
		{"product ties at 1.5 MinPos to even", Zero, 0x0600, 0x1400, 0x0002},
		{"inexact subnormal product", Zero, 0x0401, 0x37FF, 0x0200},
		{"subnormal operand, normal product", Zero, 0x0001, 0x6400, 0x0400},
		{"product tie, odd quotient rounds up", Zero, 0x3C01, 0x3E00, 0x3E02},
		{"product tie, even quotient stays", Zero, 0x3C03, 0x3E00, 0x3E04},
		{"product carry into the exponent", Zero, 0x3DA8, 0x3DA8, 0x4000}, // 1.4140625^2 = 1.99957
		{"product carry to 2^15", Zero, 0x59A8, 0x59A8, 0x7800},           // 181^2 = 32761
		{"sum tie to even, down", 0x6800, One, One, 0x6800},               // 2048 + 1
		{"sum tie to even, up", 0x6801, One, One, 0x6802},                 // 2050 + 1
		{"exact cancellation is +0", 0xBC00, One, One, Zero},
		{"-0 + -0", NegZero, NegZero, One, NegZero},
		{"+0 + -0", Zero, NegZero, One, Zero},
		{"-0 acc, +0 product", NegZero, Zero, One, Zero},
		{"underflowing negative product is -0", NegZero, 0x8001, 0x0001, NegZero},
	}
	eachPath(t, func(t *testing.T) {
		for _, c := range cases {
			got := MAC(c.acc, c.a, c.b)
			if c.want == anyNaN {
				if !got.IsNaN() {
					t.Errorf("%s: MAC = 0x%04x, want a NaN", c.name, uint16(got))
				}
			} else if got != c.want {
				t.Errorf("%s: MAC(0x%04x, 0x%04x, 0x%04x) = 0x%04x, want 0x%04x",
					c.name, uint16(c.acc), uint16(c.a), uint16(c.b), uint16(got), uint16(c.want))
			}
			checkMAC(t, c.acc, c.a, c.b)
			checkMAC(t, c.acc, c.b, c.a)
			checkMAC(t, c.acc.Neg(), c.a.Neg(), c.b)
		}
	})
}

// TestMADVecRagged checks the common-length rule MADVec shares with the
// other vector operations: a block, a tail, and dst left alone past them.
func TestMADVecRagged(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		const n = 2*Lanes + 5
		rng := rand.New(rand.NewSource(3))
		a, b := randVec(rng, n), randVec(rng, n-3)
		dst := splatVec(0x1234, n)
		c := FromFloat32(0.75)
		MADVec(dst, a, b, c)
		for i := range dst {
			want := F16(0x1234)
			if i < len(b) {
				want = macRef(c, a[i], b[i])
			}
			if dst[i] != want {
				t.Errorf("lane %d = 0x%04x, want 0x%04x", i, uint16(dst[i]), uint16(want))
			}
		}
	})
}

// FuzzMACVec feeds raw operand bits through MACVec and MADVec, on both
// paths, and checks every lane against the reference composition. Input:
// 6 bytes per lane (acc, a, b little-endian); the first lane's acc is
// also MADVec's addend.
func FuzzMACVec(f *testing.F) {
	lane := func(acc, a, b F16) []byte {
		return binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint16(
			binary.LittleEndian.AppendUint16(nil, uint16(acc)), uint16(a)), uint16(b))
	}
	f.Add(lane(One, 0x4000, 0x4200))
	f.Add(lane(0xFF4A, 0xE3AB, 0x7F03))
	f.Add(append(lane(Zero, 0x3C10, 0x7BE0), lane(NegInf, 0x7BFF, 0x4000)...))
	host := simd
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 6
		if n == 0 {
			return
		}
		acc, a, b := make(Vector, n), make(Vector, n), make(Vector, n)
		for i := 0; i < n; i++ {
			acc[i] = F16(binary.LittleEndian.Uint16(data[6*i:]))
			a[i] = F16(binary.LittleEndian.Uint16(data[6*i+2:]))
			b[i] = F16(binary.LittleEndian.Uint16(data[6*i+4:]))
		}
		defer func() { simd = host }()
		simd = false
		checkMACVec(t, acc, a, b)
		if simd = host; simd {
			checkMACVec(t, acc, a, b)
		}
	})
}

// macPool is the benchmarks' operand pool: seeded values in [-1, 1), 256
// vectors of each operand. A fixed operand pair accumulated forever
// saturates to Inf within a few thousand iterations and then times the
// Inf branch, so the benchmarks rotate through the pool and clear the
// accumulator every 64 calls, like a GEMV row.
func macPool() (a, b Vector) {
	const vectors = 256
	rng := rand.New(rand.NewSource(7))
	a, b = make(Vector, vectors*Lanes), make(Vector, vectors*Lanes)
	for i := range a {
		a[i], b[i] = unitOperand(rng), unitOperand(rng)
	}
	return a, b
}

func BenchmarkMAC(bm *testing.B) {
	a, b := macPool()
	acc := Zero
	for i := 0; i < bm.N; i++ {
		if i%64 == 0 {
			acc = Zero
		}
		acc = MAC(acc, a[i%len(a)], b[i%len(b)])
	}
	_ = acc
}

// BenchmarkMACVec is one PIM MAC instruction's datapath work on realistic
// operands, on each path; `make bench` records both in BENCH_gemv.json.
func BenchmarkMACVec(bm *testing.B) {
	host := simd
	defer func() { simd = host }()
	a, b := macPool()
	run := func(bm *testing.B) {
		acc := NewVector(Lanes)
		for i := 0; i < bm.N; i++ {
			if i%64 == 0 {
				clear(acc)
			}
			o := i % (len(a) / Lanes) * Lanes
			MACVec(acc, a[o:o+Lanes], b[o:o+Lanes])
		}
	}
	simd = false
	bm.Run("portable", run)
	bm.Run("simd", func(bm *testing.B) {
		needSIMD(bm, host)
		simd = true
		run(bm)
	})
}
