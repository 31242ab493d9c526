package fp16

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Special values the tests name; the package itself needs none of them.
const (
	nan     F16 = 0x7E00 // a quiet NaN
	negZero F16 = 0x8000
	maxVal  F16 = 0x7BFF // 65504
	minPos  F16 = 0x0001 // smallest positive subnormal, 2^-24
)

func TestRoundTripAllValues(t *testing.T) {
	// Every binary16 bit pattern except NaNs must survive a round trip
	// through float32 unchanged.
	for i := 0; i <= 0xFFFF; i++ {
		h := F16(i)
		if h.IsNaN() {
			continue
		}
		got := FromFloat32(h.Float32())
		if got != h {
			t.Fatalf("round trip 0x%04x -> %v -> 0x%04x", i, h.Float32(), uint16(got))
		}
	}
}

func TestNaNRoundTrip(t *testing.T) {
	for _, h := range []F16{nan, 0x7C01, 0xFE00, 0xFFFF} {
		if !h.IsNaN() {
			t.Fatalf("0x%04x should be NaN", uint16(h))
		}
		f := h.Float32()
		if f == f {
			t.Fatalf("0x%04x.Float32() = %v, want NaN", uint16(h), f)
		}
		if !FromFloat32(f).IsNaN() {
			t.Fatalf("FromFloat32(NaN) not NaN")
		}
	}
}

// nearestRef finds the correctly rounded binary16 for f by brute force over
// all finite encodings, breaking ties toward the even significand.
func nearestRef(f float32) F16 {
	if math.IsNaN(float64(f)) {
		return nan
	}
	best := F16(0)
	bestDiff := math.Inf(1)
	for i := 0; i <= 0xFFFF; i++ {
		h := F16(i)
		if h.IsNaN() || h.IsInf(0) {
			continue
		}
		d := math.Abs(float64(f) - h.Float64())
		switch {
		case d < bestDiff:
			best, bestDiff = h, d
		case d == bestDiff:
			// ties-to-even on the significand (lower magnitude encoding is
			// even iff its last bit is 0)
			if best&1 == 1 && h&1 == 0 {
				best = h
			}
		}
	}
	// Values at or beyond the halfway point past maxVal round to infinity:
	// the tie candidate 65536 has an even significand, so RNE rounds up.
	limit := maxVal.Float64() + (maxVal.Float64()-F16(0x7BFE).Float64())/2
	if float64(f) >= limit {
		return PosInf
	}
	if float64(f) <= -limit {
		return NegInf
	}
	if bestDiff == math.Inf(1) {
		if f > 0 {
			return PosInf
		}
		return NegInf
	}
	// Preserve the sign of zero.
	if best.IsZero() && math.Signbit(float64(f)) {
		return negZero
	}
	return best
}

func TestFromFloat32MatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(f float32) {
		t.Helper()
		want := nearestRef(f)
		got := FromFloat32(f)
		if got != want {
			t.Fatalf("FromFloat32(%v) = 0x%04x (%v), want 0x%04x (%v)",
				f, uint16(got), got, uint16(want), want)
		}
	}
	// Targeted edge values.
	for _, f := range []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 65504, 65505, 65519, 65520, 65536,
		-65520, 5.96e-8, 2.98e-8, 2.9802322e-8, 6.1e-5, 6.097e-5,
		1.0009765625, 1.0004883, 0.333333333, 1e-30, -1e-30, 1e30,
	} {
		check(f)
	}
	// Random halves perturbed slightly (stresses rounding boundaries).
	for i := 0; i < 400; i++ {
		h := F16(rng.Intn(0x7C00)) // random positive finite
		base := h.Float32()
		for _, eps := range []float32{0, 1e-5, -1e-5, 1e-4, -1e-4} {
			check(base * (1 + eps))
			check(-base * (1 + eps))
		}
	}
	// Random uniform floats across the binary16 range.
	for i := 0; i < 300; i++ {
		f := float32(rng.NormFloat64() * 100)
		check(f)
	}
}

func TestExactHalfwayTies(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1.0 (even) and 1+2^-10; it must
	// round down to 1.0.
	f := float32(1) + float32(math.Ldexp(1, -11))
	if got := FromFloat32(f); got != One {
		t.Fatalf("halfway tie: got 0x%04x want 0x%04x", uint16(got), uint16(One))
	}
	// 1 + 3*2^-11 is halfway between 1+2^-10 (odd) and 1+2^-9 (even); it
	// must round up.
	f = float32(1) + 3*float32(math.Ldexp(1, -11))
	if got, want := FromFloat32(f), F16(0x3C02); got != want {
		t.Fatalf("halfway tie up: got 0x%04x want 0x%04x", uint16(got), uint16(want))
	}
}

func TestOverflowUnderflow(t *testing.T) {
	cases := []struct {
		in   float32
		want F16
	}{
		{math.MaxFloat32, PosInf},
		{-math.MaxFloat32, NegInf},
		{float32(math.Inf(1)), PosInf},
		{float32(math.Inf(-1)), NegInf},
		{1e-10, Zero},
		{-1e-10, negZero},
		{float32(math.Ldexp(1, -24)), minPos},          // smallest subnormal exactly
		{float32(math.Ldexp(1, -25)), Zero},            // halfway to zero: ties to even -> 0
		{float32(math.Ldexp(1, -25)) * 1.0001, minPos}, // just above halfway
		{65504, maxVal},
		{65519, maxVal}, // just below the rounding boundary to Inf
		{65520, PosInf}, // exactly halfway; 0x7BFF is odd so ties round up to Inf
	}
	for _, c := range cases {
		if got := FromFloat32(c.in); got != c.want {
			t.Errorf("FromFloat32(%v) = 0x%04x, want 0x%04x", c.in, uint16(got), uint16(c.want))
		}
	}
}

func TestSubnormals(t *testing.T) {
	for i := 1; i <= 0x3FF; i++ {
		h := F16(i)
		want := float64(i) * math.Ldexp(1, -24)
		if got := h.Float64(); got != want {
			t.Fatalf("subnormal 0x%04x = %g, want %g", i, got, want)
		}
	}
	if got := F16(0x400).Float64(); got != math.Ldexp(1, -14) {
		t.Fatalf("0x0400 = %g, want the smallest normal 2^-14", got)
	}
}

func TestArithmeticBasics(t *testing.T) {
	two := FromFloat32(2)
	three := FromFloat32(3)
	if got := Add(two, three); got.Float32() != 5 {
		t.Errorf("2+3 = %v", got)
	}
	if got := Mul(two, three); got.Float32() != 6 {
		t.Errorf("2*3 = %v", got)
	}
	if got := MAC(One, two, three); got.Float32() != 7 {
		t.Errorf("1+2*3 = %v", got)
	}
	if got := MAD(two, three, One); got.Float32() != 7 {
		t.Errorf("2*3+1 = %v", got)
	}
}

func TestAddCorrectlyRounded(t *testing.T) {
	// Exhaustive-ish check of correct rounding for Add over random pairs:
	// the exact sum is computed in float64 (exact for any two binary16
	// values) and rounded by the brute-force reference.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := F16(rng.Intn(0x7C00))
		b := F16(rng.Intn(0x7C00))
		if rng.Intn(2) == 0 {
			a ^= signMask
		}
		if rng.Intn(2) == 0 {
			b ^= signMask
		}
		exact := a.Float64() + b.Float64()
		want := nearestRef(float32(exact)) // exact fits float32: |sum| < 2^17
		got := Add(a, b)
		if !Eq(got, want) && got != want {
			t.Fatalf("Add(%v,%v) = %v (0x%04x), want %v (0x%04x)",
				a, b, got, uint16(got), want, uint16(want))
		}
	}
}

func TestSpecialArithmetic(t *testing.T) {
	if !Add(PosInf, NegInf).IsNaN() {
		t.Error("Inf + -Inf should be NaN")
	}
	if !Mul(Zero, PosInf).IsNaN() {
		t.Error("0 * Inf should be NaN")
	}
	if got := Add(PosInf, One); got != PosInf {
		t.Errorf("Inf + 1 = %v", got)
	}
}

func TestReLU(t *testing.T) {
	cases := []struct {
		in, want F16
	}{
		{FromFloat32(3.5), FromFloat32(3.5)},
		{FromFloat32(-3.5), Zero},
		{Zero, Zero},
		{negZero, Zero}, // sign-bit mux: -0 -> +0
		{PosInf, PosInf},
		{NegInf, Zero},
		{nan, nan},             // positive NaN passes through the mux
		{nan | signMask, Zero}, // negative NaN is squashed by the sign bit
	}
	for _, c := range cases {
		if got := ReLU(c.in); got != c.want {
			t.Errorf("ReLU(0x%04x) = 0x%04x, want 0x%04x", uint16(c.in), uint16(got), uint16(c.want))
		}
	}
}

func TestQuickProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}

	// Addition commutes for non-NaN values.
	comm := func(x, y uint16) bool {
		a, b := F16(x), F16(y)
		if a.IsNaN() || b.IsNaN() {
			return true
		}
		s1, s2 := Add(a, b), Add(b, a)
		return s1 == s2 || (s1.IsNaN() && s2.IsNaN())
	}
	if err := quick.Check(comm, cfg); err != nil {
		t.Error(err)
	}

	// Multiplication commutes.
	mcomm := func(x, y uint16) bool {
		a, b := F16(x), F16(y)
		if a.IsNaN() || b.IsNaN() {
			return true
		}
		p1, p2 := Mul(a, b), Mul(b, a)
		return p1 == p2 || (p1.IsNaN() && p2.IsNaN())
	}
	if err := quick.Check(mcomm, cfg); err != nil {
		t.Error(err)
	}

	// x + 0 == x for non-NaN x (except -0 + 0 == +0).
	ident := func(x uint16) bool {
		a := F16(x)
		if a.IsNaN() {
			return true
		}
		got := Add(a, Zero)
		if a == negZero {
			return got == Zero
		}
		return got == a
	}
	if err := quick.Check(ident, cfg); err != nil {
		t.Error(err)
	}

	// ReLU is idempotent.
	relu := func(x uint16) bool {
		a := F16(x)
		return ReLU(ReLU(a)) == ReLU(a)
	}
	if err := quick.Check(relu, cfg); err != nil {
		t.Error(err)
	}

	// Conversion monotonicity: for finite a <= b, FromFloat32 preserves order.
	mono := func(x, y float32) bool {
		if math.IsNaN(float64(x)) || math.IsNaN(float64(y)) {
			return true
		}
		if x > y {
			x, y = y, x
		}
		hx, hy := FromFloat32(x), FromFloat32(y)
		return hx.Float32() <= hy.Float32()
	}
	if err := quick.Check(mono, cfg); err != nil {
		t.Error(err)
	}
}

func TestPredicates(t *testing.T) {
	if !PosInf.IsInf(1) || !PosInf.IsInf(0) || PosInf.IsInf(-1) {
		t.Error("PosInf predicates wrong")
	}
	if !NegInf.IsInf(-1) || !NegInf.IsInf(0) || NegInf.IsInf(1) {
		t.Error("NegInf predicates wrong")
	}
	if One.IsInf(0) || One.IsNaN() || One.IsZero() {
		t.Error("One predicates wrong")
	}
	if !Zero.IsZero() || !negZero.IsZero() {
		t.Error("zero predicates wrong")
	}
	if !Eq(Zero, negZero) {
		t.Error("+0 must equal -0")
	}
	if Eq(nan, nan) {
		t.Error("NaN must not equal NaN")
	}
}

func TestStrings(t *testing.T) {
	cases := []struct {
		h    F16
		want string
	}{
		{One, "1"},
		{FromFloat32(-2.5), "-2.5"},
		{PosInf, "+Inf"},
		{NegInf, "-Inf"},
		{nan, "NaN"},
	}
	for _, c := range cases {
		if got := c.h.String(); got != c.want {
			t.Errorf("String(0x%04x) = %q, want %q", uint16(c.h), got, c.want)
		}
	}
}
