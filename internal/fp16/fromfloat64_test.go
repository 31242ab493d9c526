package fp16

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// halfLadder lists the non-negative finite binary16 values as float64 in
// encoding order, then 65536, the value the next encoding (+Inf) would
// have: from the midpoint 65520 on, everything rounds to Inf.
func halfLadder() []float64 {
	vals := make([]float64, 0x7C01)
	for i := range vals[:0x7C00] {
		vals[i] = F16(i).Float64()
	}
	vals[0x7C00] = 65536
	return vals
}

// nearestHalf rounds f to binary16 by an exact rule that shares nothing
// with the conversion code: find the two neighbouring binary16 values,
// compare f with their midpoint (exact in float64), ties to the even
// encoding.
func nearestHalf(ladder []float64, f float64) F16 {
	var sign F16
	if math.Signbit(f) {
		sign, f = signMask, -f
	}
	k := sort.SearchFloat64s(ladder, f) // first k with ladder[k] >= f
	switch {
	case k == len(ladder):
		return sign | PosInf
	case ladder[k] == f:
		return sign | F16(k)
	}
	lo, hi := k-1, k
	switch mid := (ladder[lo] + ladder[hi]) / 2; {
	case f < mid, f == mid && lo&1 == 0:
		return sign | F16(lo)
	default:
		return sign | F16(hi)
	}
}

// TestFromFloat64CorrectlyRounded holds FromFloat64 to the exact rule on
// every binary16 midpoint and its neighbours 1..4 float64 ulps away and
// half a float32 ulp away (where a narrowing through float32 rounds
// twice), both signs, the subnormal/normal and overflow boundaries among
// them, and on 10 M random float64.
func TestFromFloat64CorrectlyRounded(t *testing.T) {
	if got := FromFloat64(1 + 0x1p-11 + 0x1p-40); got != 0x3C01 {
		t.Errorf("FromFloat64(1 + 2^-11 + 2^-40) = 0x%04x, want 0x3c01", uint16(got))
	}
	ladder := halfLadder()
	check := func(f float64) bool {
		if f != f {
			if !FromFloat64(f).IsNaN() {
				t.Errorf("FromFloat64(NaN %016x) is not a NaN", math.Float64bits(f))
				return false
			}
			return true
		}
		if got, want := FromFloat64(f), nearestHalf(ladder, f); got != want {
			t.Errorf("FromFloat64(%v = %016x) = 0x%04x, want 0x%04x", f, math.Float64bits(f), uint16(got), uint16(want))
			return false
		}
		return true
	}
	for k := 0; k+1 < len(ladder); k++ {
		mid := (ladder[k] + ladder[k+1]) / 2
		half32 := float64(math.Nextafter32(float32(mid), float32(math.Inf(1)))-float32(mid)) / 2
		for _, f0 := range []float64{mid, mid + half32, mid - half32} {
			up, down := f0, f0
			for i := 0; i <= 4; i++ {
				for _, f := range []float64{up, -up, down, -down} {
					if !check(f) {
						return
					}
				}
				up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
			}
		}
	}
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < 10_000_000; i++ {
		var f float64
		switch i % 3 {
		case 0: // any bits: mostly far outside the binary16 range
			f = math.Float64frombits(rng.Uint64())
		case 1: // between two neighbouring binary16 values
			k := rng.Intn(len(ladder) - 1)
			f = ladder[k] + rng.Float64()*(ladder[k+1]-ladder[k])
		default: // across the binary16 range, subnormals to overflow
			f = rng.NormFloat64() * math.Ldexp(1, rng.Intn(44)-28)
		}
		if rng.Intn(2) == 0 {
			f = -f
		}
		if !check(f) {
			return
		}
	}
}
