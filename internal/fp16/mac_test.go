package fp16

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// eachPath runs f against both tiers of the burst forms in this binary:
// as subtest "portable" with the SIMD burst kernels switched off, then as
// subtest "simd" with them on, which is skipped where init found none to
// switch on. The typed forms run the portable kernels on both.
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

// needSIMD skips a test of the SIMD burst kernels where there are none.
func needSIMD(t testing.TB, have bool) {
	t.Helper()
	if !have {
		t.Skip("no SIMD burst kernels here (they need amd64 with AVX and F16C, and a build without -tags purego); the portable kernel is all this binary runs")
	}
}

// forAllX calls check(x) for all 2^16 binary16 values, dealt round-robin
// to GOMAXPROCS goroutines; a race build walks every xStride-th value
// only (see stride_race_test.go). check returns false to report a
// mismatch (after t.Errorf); its goroutine then stops. Every caller
// pairs each x with all 2^16 values of y, so a clean walk logs the pairs
// it covered: 2^32 outside a race build.
func forAllX(t *testing.T, check func(x F16) bool) {
	t.Helper()
	if testing.Short() {
		t.Skip("2^32 pairs; skipped under -short (make fp16-exhaustive runs it)")
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var walked atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for x := w * xStride; x <= 0xFFFF; x += workers * xStride {
				if !check(F16(x)) {
					return
				}
				walked.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if want := int64(0xFFFF/xStride + 1); !t.Failed() && walked.Load() != want {
		t.Fatalf("walked %d values of x, want %d", walked.Load(), want)
	}
	t.Logf("checked %d operand pairs", walked.Load()<<16)
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

// forAllBlocks runs the 2^32 pairs through the SIMD burst kernels: for
// every x and every group of blockUnits blocks of 16 consecutive values,
// ops fills g.got[row][u] from x splatted against g.y[u], block u of the
// group, and each lane of each unit of each row must be ref(x, y), or a
// NaN where that is one (payloads are the differential test's business).
// All but a few hundred blocks per x hold no NaN, so this is the kernels'
// arithmetic and not the portable loop's.
func forAllBlocks(t *testing.T, ref func(x, y F16) F16, ops func(g *blockGroup)) {
	t.Helper()
	needSIMD(t, simd)
	forAllX(t, func(x F16) bool {
		g := newBlockGroup(x)
		want := unitVecs(blockUnits, Lanes)
		for y0 := 0; y0 <= 0xFFFF; y0 += blockUnits * Lanes {
			for u, y := range g.y {
				for i := range y {
					y[i] = F16(y0 + u*Lanes + i)
					want[u][i] = ref(x, y[i])
				}
				y.PutBytes(g.yBursts[u])
			}
			ops(g)
			for row, units := range g.got {
				for u, got := range units {
					if slices.Equal(got, want[u]) {
						continue
					}
					for i, y := range g.y[u] {
						if got[i] != want[u][i] && !(got[i].IsNaN() && want[u][i].IsNaN()) {
							t.Errorf("row %d unit %d, x=0x%04x, y=0x%04x (lane %d): 0x%04x, reference 0x%04x",
								row, u, uint16(x), uint16(y), i, uint16(got[i]), uint16(want[u][i]))
							return false
						}
					}
				}
			}
		}
		return true
	})
}

// blockUnits is the number of units in a forAllBlocks group, a pseudo
// channel's worth, and blockRows the rows ops fills: three burst forms
// over all units at once.
const blockUnits, blockRows = 8, 3

// blockGroup is one forAllBlocks group in the shapes the burst forms
// take: x splatted as a burst and as a scalar per unit, each unit's y
// block as a Vector and as a burst, the destination bursts and resume
// buffer, and the result rows.
type blockGroup struct {
	xBursts [][]byte
	xc      []F16
	y       []Vector
	yBursts [][]byte
	d       [][]byte
	resume  [MaxBurstUnits]int32
	got     [][]Vector
}

func newBlockGroup(x F16) *blockGroup {
	g := &blockGroup{
		xBursts: make([][]byte, blockUnits),
		xc:      make([]F16, blockUnits),
		y:       unitVecs(blockUnits, Lanes),
		yBursts: make([][]byte, blockUnits),
		d:       make([][]byte, blockUnits),
		got:     make([][]Vector, blockRows),
	}
	xb := splatVec(x, Lanes).Bytes()
	for u := range g.xBursts {
		g.xBursts[u], g.xc[u] = xb, x
		g.yBursts[u], g.d[u] = make([]byte, 2*Lanes), make([]byte, 2*Lanes)
	}
	for row := range g.got {
		g.got[row] = unitVecs(blockUnits, Lanes)
	}
	return g
}

// setD sets every unit's destination burst to src.
func (g *blockGroup) setD(src []byte) {
	for _, d := range g.d {
		copy(d, src)
	}
}

// unload decodes the destination bursts into result row row.
func (g *blockGroup) unload(row int) {
	for u, d := range g.d {
		g.got[row][u].DecodeBytes(d)
	}
}

// unitVecs allocates units zeroed vectors of n lanes.
func unitVecs(units, n int) []Vector {
	vs := make([]Vector, units)
	for u := range vs {
		vs[u] = NewVector(n)
	}
	return vs
}

func splatVec(h F16, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = h
	}
	return v
}

// TestExhaustiveMulStageVec is TestExhaustiveMulStage through the SIMD
// burst kernels over blockUnits units, every operand a burst: x*y
// accumulated into -0 by MACVecBursts and by MADVecBursts, and
// MulVecBursts' own kernel, against the reference product. y[u] is in
// unit u's bank operand position (SRC0 of MAD, so its product is y*x
// there).
func TestExhaustiveMulStageVec(t *testing.T) {
	negZeroBurst := splatVec(NegZero, Lanes).Bytes()
	addends := make([]F16, blockUnits)
	for u := range addends {
		addends[u] = NegZero
	}
	forAllBlocks(t,
		func(x, y F16) F16 { return fromFloat32Ref(f16to32[x] * f16to32[y]) },
		func(g *blockGroup) {
			g.setD(negZeroBurst)
			MACVecBursts(g.d, g.xBursts, g.yBursts, &g.resume)
			g.unload(0)
			MADVecBursts(g.d, g.yBursts, g.xBursts, addends, &g.resume)
			g.unload(1)
			MulVecBursts(g.d, g.xBursts, g.yBursts, &g.resume)
			g.unload(2)
		})
}

// TestExhaustiveAddStageVec is the ADD stage the same way: y*1 is y, so
// MACVecBursts into x and MADVecBursts onto x are x+y, as is
// AddVecBursts, against the reference narrowing of the float32 sum, y[u]
// unit u's bank operand.
func TestExhaustiveAddStageVec(t *testing.T) {
	one := splatVec(One, Lanes)
	ones := make([][]byte, blockUnits)
	for u := range ones {
		ones[u] = one.Bytes()
	}
	forAllBlocks(t,
		func(x, y F16) F16 { return fromFloat32Ref(f16to32[x] + f16to32[y]) },
		func(g *blockGroup) {
			g.setD(g.xBursts[0])
			MACVecBursts(g.d, ones, g.yBursts, &g.resume)
			g.unload(0)
			MADVecBursts(g.d, g.yBursts, ones, g.xc, &g.resume)
			g.unload(1)
			AddVecBursts(g.d, g.xBursts, g.yBursts, &g.resume)
			g.unload(2)
		})
}

// checkMACVec compares the entry points of the MAC with the reference
// composition on every lane: MAC, MAD, MACVec and MACVecBursts (one unit)
// on the triple (acc[i], a[i], b[i]), MADVec and MADVecBursts with acc[0]
// as their addend.
func checkMACVec(t testing.TB, acc, a, b Vector) bool {
	t.Helper()
	c := acc[0]
	mac := MACVec(append(Vector(nil), acc...), a, b)
	mad := MADVec(make(Vector, len(acc)), a, b, c)
	var resume [MaxBurstUnits]int32
	ab, bb := [][]byte{a.Bytes()}, [][]byte{b.Bytes()}
	macB := [][]byte{acc.Bytes()}
	MACVecBursts(macB, ab, bb, &resume)
	madB := [][]byte{make([]byte, 2*len(acc))}
	MADVecBursts(madB, ab, bb, []F16{c}, &resume)
	for i := range acc {
		want := macRef(acc[i], a[i], b[i])
		for _, k := range []struct {
			name      string
			got, want F16
		}{
			{"MAC", MAC(acc[i], a[i], b[i]), want},
			{"MACVec", mac[i], want},
			{"MACVecBursts", lane(macB[0], i), want},
			{"MAD", MAD(a[i], b[i], acc[i]), want},
			{"MADVec", mad[i], macRef(c, a[i], b[i])},
			{"MADVecBursts", lane(madB[0], i), macRef(c, a[i], b[i])},
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
// operands made finite (exponent 30 for 31) and stays in the burst
// kernel.
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

// TestMADVecRagged checks the common-length rule MADVec and MADVecBursts
// share with the other vector operations: a block, a tail, and dst left
// alone past them.
func TestMADVecRagged(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		const n = 2*Lanes + 5
		rng := rand.New(rand.NewSource(3))
		a, b := randVec(rng, n), randVec(rng, n-3)
		c := FromFloat32(0.75)
		for _, op := range vecOps {
			if !strings.HasPrefix(op.name, "MADVec") {
				continue
			}
			dst := splatVec(0x1234, n)
			op.vec(dst, a, b, c)
			for i := range dst {
				want := F16(0x1234)
				if i < len(b) {
					want = macRef(c, a[i], b[i])
				}
				if dst[i] != want {
					t.Errorf("%s lane %d = 0x%04x, want 0x%04x", op.name, i, uint16(dst[i]), uint16(want))
				}
			}
		}
	})
}

// checkBursts runs the four burst forms over units at once and compares
// every unit with its typed form: unit u's operands are acc, a and b
// rotated left by u lanes and cut to n-u%n lanes, so the units differ in
// data and length.
func checkBursts(t testing.TB, units int, acc, a, b Vector) bool {
	t.Helper()
	n := len(acc)
	unit := func(v Vector, u int) Vector {
		r := append(append(Vector(nil), v[u%n:]...), v[:u%n]...)
		return r[:n-u%n]
	}
	accs, as, bs := make([]Vector, units), make([]Vector, units), make([]Vector, units)
	for u := range accs {
		accs[u], as[u], bs[u] = unit(acc, u), unit(a, u), unit(b, u)
	}
	return checkBurstUnits(t, accs, as, bs)
}

// checkBurstUnits runs the four burst forms over the units of accs, as
// and bs at once, every operand given as a burst, and compares every lane
// of every unit with the typed form on that unit alone, NaN payloads
// included. Unit u's MADVec addend is its first accumulator lane. Each
// call finds the resume buffer stale, every entry a lane some earlier
// call could have left there, as a caller's reused buffer is.
func checkBurstUnits(t testing.TB, accs, as, bs []Vector) bool {
	t.Helper()
	units := len(accs)
	aBursts, bBursts, cs := make([][]byte, units), make([][]byte, units), make([]F16, units)
	for u := range accs {
		aBursts[u], bBursts[u], cs[u] = as[u].Bytes(), bs[u].Bytes(), accs[u][0]
	}
	var resume [MaxBurstUnits]int32
	for _, op := range []struct {
		name  string
		burst func(dst [][]byte)
		typed func(dst Vector, u int) Vector
	}{
		{"AddVecBursts", func(dst [][]byte) { AddVecBursts(dst, aBursts, bBursts, &resume) }, func(dst Vector, u int) Vector { return AddVec(dst, as[u], bs[u]) }},
		{"MulVecBursts", func(dst [][]byte) { MulVecBursts(dst, aBursts, bBursts, &resume) }, func(dst Vector, u int) Vector { return MulVec(dst, as[u], bs[u]) }},
		{"MACVecBursts", func(dst [][]byte) { MACVecBursts(dst, aBursts, bBursts, &resume) }, func(dst Vector, u int) Vector { return MACVec(dst, as[u], bs[u]) }},
		{"MADVecBursts", func(dst [][]byte) { MADVecBursts(dst, aBursts, bBursts, cs, &resume) }, func(dst Vector, u int) Vector { return MADVec(dst, as[u], bs[u], cs[u]) }},
	} {
		got := make([][]byte, units)
		for u := range got {
			got[u] = accs[u].Bytes()
		}
		for u := range resume {
			resume[u] = int32(1 + u%Lanes)
		}
		op.burst(got)
		for u := range got {
			want := op.typed(append(Vector(nil), accs[u]...), u)
			for i := range want {
				if g := lane(got[u], i); g != want[i] {
					t.Errorf("%s over %d units: unit %d lane %d of %d = 0x%04x, typed form 0x%04x",
						op.name, units, u, i, len(want), uint16(g), uint16(want[i]))
					return false
				}
			}
		}
	}
	return true
}

// TestBurstResume walks the contract between a burst kernel and the Go
// loop around it, on both paths: a unit the kernel leaves unfinished, at
// a NaN block or a ragged tail, resumes in the portable loop at that
// block, and only there. Every case checks all four burst forms against
// the typed forms unit by unit. Operands are of realistic magnitude, so
// a block run twice (a resume from block 0, or a NaN block stored and
// then resumed) moves the MAC accumulators, and a unit left unfinished
// keeps lanes the typed form overwrites. A planted NaN lane carries NaN
// accumulator, a and b with distinct payloads, so its result depends on
// the operand order of the expression that computes it.
func TestBurstResume(t *testing.T) {
	type nanAt struct{ unit, lane int }
	same := func(units, n int) []int {
		lens := make([]int, units)
		for u := range lens {
			lens[u] = n
		}
		return lens
	}
	wide := same(70, 3*Lanes)
	wide[1], wide[64], wide[66], wide[69] = 17, 31, 2*Lanes, 17
	cases := []struct {
		name string
		lens []int
		nans []nanAt
	}{
		{"NaN in block 2 of unit 5", same(8, 3*Lanes), []nanAt{{5, 2*Lanes + 9}}},
		{"NaN in block 0 of units 0 and 7", same(8, 3*Lanes), []nanAt{{0, 0}, {7, Lanes - 1}}},
		{"ragged lengths 17 and 31", []int{17, 3 * Lanes, 31, 17, 3 * Lanes, 31, 2 * Lanes, 17}, nil},
		{"ragged with NaN in the tail", []int{31, 31, 17, 17, 31, 31, 17, 17}, []nanAt{{0, 20}, {3, 16}, {4, 3}}},
		{"70 units across the mask width", wide, []nanAt{{2, Lanes}, {63, 2*Lanes + 1}, {64, 5}, {65, 0}, {67, 3*Lanes - 1}, {69, 16}}},
	}
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(28))
		for _, c := range cases {
			accs, as, bs := make([]Vector, len(c.lens)), make([]Vector, len(c.lens)), make([]Vector, len(c.lens))
			for u, n := range c.lens {
				accs[u], as[u], bs[u] = NewVector(n), NewVector(n), NewVector(n)
				for i := 0; i < n; i++ {
					accs[u][i], as[u][i], bs[u][i] = unitOperand(rng), unitOperand(rng), unitOperand(rng)
				}
			}
			for _, at := range c.nans {
				accs[at.unit][at.lane], as[at.unit][at.lane], bs[at.unit][at.lane] = 0xFF4A, 0x7E11, 0xFE22
			}
			if !checkBurstUnits(t, accs, as, bs) {
				t.Errorf("case %q failed", c.name)
			}
		}
	})
}

// TestBurstFormsMultiUnit is checkBursts over 1 and 8 units on seeded
// raw bits (NaN, Inf and subnormal lanes included), every other round
// made finite so that whole blocks stay in the SIMD kernel, at every
// length 1..40, on both paths.
func TestBurstFormsMultiUnit(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(27))
		for n := 1; n <= 40; n++ {
			for round := 0; round < 4; round++ {
				acc, a, b := NewVector(n), NewVector(n), NewVector(n)
				for i := range acc {
					r := rng.Uint64()
					acc[i], a[i], b[i] = F16(r), F16(r>>16), F16(r>>32)
					if round%2 == 1 {
						acc[i], a[i], b[i] = finite(acc[i]), finite(a[i]), finite(b[i])
					}
				}
				for _, units := range []int{1, 8} {
					if !checkBursts(t, units, acc, a, b) {
						return
					}
				}
			}
		}
	})
}

// FuzzMACVec feeds raw operand bits through the MAC and MAD entry points,
// the burst forms on both paths, and checks every lane against the
// reference composition, then the four burst forms over 1 and 8 units
// against the typed forms. Input: 6 bytes per lane (acc, a, b
// little-endian); the first lane's acc is also MADVec's addend.
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
		for _, on := range []bool{false, true} {
			if simd = on; on && !host {
				break
			}
			if !checkMACVec(t, acc, a, b) || !checkBursts(t, 1, acc, a, b) || !checkBursts(t, 8, acc, a, b) {
				return
			}
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

// BenchmarkMACVecBursts is one PIM MAC trigger's datapath work across a
// pseudo channel: MACVecBursts over 8 units, each on its own 16 lanes of
// realistic operands, every operand a burst, on each path;
// `make bench` records both in BENCH_gemv.json. It allocates nothing.
func BenchmarkMACVecBursts(bm *testing.B) {
	const units = 8
	host := simd
	defer func() { simd = host }()
	a, b := macPool()
	ab, bb := a.Bytes(), b.Bytes()
	groups := len(a) / (units * Lanes)
	as, bs := make([][][]byte, groups), make([][][]byte, groups)
	for g := range as {
		as[g], bs[g] = make([][]byte, units), make([][]byte, units)
		for u := range as[g] {
			o := 2 * (g*units + u) * Lanes
			as[g][u], bs[g][u] = ab[o:o+2*Lanes], bb[o:o+2*Lanes]
		}
	}
	run := func(bm *testing.B) {
		acc := make([][]byte, units)
		for u := range acc {
			acc[u] = make([]byte, 2*Lanes)
		}
		var resume [MaxBurstUnits]int32
		bm.ReportAllocs()
		for i := 0; i < bm.N; i++ {
			if i%64 == 0 {
				for _, d := range acc {
					clear(d)
				}
			}
			MACVecBursts(acc, as[i%groups], bs[i%groups], &resume)
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
