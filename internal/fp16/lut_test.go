package fp16

import (
	"math"
	"math/rand"
	"testing"
)

// TestFloat32LUTExhaustive checks the 65,536-entry widening table against
// the reference conversion for every binary16 bit pattern, comparing raw
// float32 bits so NaN payloads are included.
func TestFloat32LUTExhaustive(t *testing.T) {
	for i := 0; i <= 0xFFFF; i++ {
		h := F16(i)
		got := math.Float32bits(h.Float32())
		want := math.Float32bits(h.float32Ref())
		if got != want {
			t.Fatalf("Float32(0x%04x) = 0x%08x, reference 0x%08x", i, got, want)
		}
	}
}

// TestFromFloat32TableExhaustiveF16 narrows every exactly-representable
// binary16 value through both conversion paths. Together with the directed
// sweep below this exercises every exponent class and rounding case of the
// shift-indexed tables.
func TestFromFloat32TableExhaustiveF16(t *testing.T) {
	for i := 0; i <= 0xFFFF; i++ {
		f := F16(i).float32Ref()
		got, want := FromFloat32(f), fromFloat32Ref(f)
		if got != want {
			t.Fatalf("FromFloat32(%v from 0x%04x) = 0x%04x, reference 0x%04x",
				f, i, uint16(got), uint16(want))
		}
	}
}

// directedFracs returns fraction patterns that hit every rounding decision:
// all-zero/all-one fractions, and for every shift amount the tables use,
// the exact tie (round bit set, sticky clear) with even and odd quotients,
// plus one-above and one-below the tie.
func directedFracs() []uint32 {
	fracs := []uint32{0, 1, 2, 0x3FF, 0x400, 0x401, 0x3FFFFF, 0x400000, 0x400001, 0x555555, 0x2AAAAA, 0x7FFFFE, 0x7FFFFF}
	for s := uint32(13); s <= 26; s++ {
		half := uint32(1) << (s - 1)
		for _, v := range []uint32{half, half - 1, half + 1, half | 1<<s, 3 * half} {
			fracs = append(fracs, v&0x7FFFFF)
		}
	}
	return fracs
}

// TestFromFloat32TableDirected sweeps all 512 sign+exponent classes —
// including float32 subnormals, ±Inf and NaN payloads — crossed with the
// directed fraction patterns, proving the table path matches the reference
// on every class boundary and round-to-nearest-even tie.
func TestFromFloat32TableDirected(t *testing.T) {
	fracs := directedFracs()
	for se := uint32(0); se < 512; se++ {
		for _, fr := range fracs {
			b := se<<23 | fr
			f := math.Float32frombits(b)
			got, want := FromFloat32(f), fromFloat32Ref(f)
			if got != want {
				t.Fatalf("FromFloat32(bits 0x%08x) = 0x%04x, reference 0x%04x",
					b, uint16(got), uint16(want))
			}
		}
	}
}

// TestFromFloat32TableRandom fuzzes uniformly random float32 bit patterns
// through both paths.
func TestFromFloat32TableRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 2_000_000
	if testing.Short() {
		n = 100_000
	}
	for i := 0; i < n; i++ {
		b := rng.Uint32()
		f := math.Float32frombits(b)
		got, want := FromFloat32(f), fromFloat32Ref(f)
		if got != want {
			t.Fatalf("FromFloat32(bits 0x%08x) = 0x%04x, reference 0x%04x",
				b, uint16(got), uint16(want))
		}
	}
}

func BenchmarkFromFloat32(b *testing.B) {
	fs := make([]float32, 4096)
	rng := rand.New(rand.NewSource(7))
	for i := range fs {
		fs[i] = float32(rng.NormFloat64())
	}
	b.ResetTimer()
	var acc F16
	for i := 0; i < b.N; i++ {
		acc ^= FromFloat32(fs[i&4095])
	}
	_ = acc
}

func BenchmarkFloat32(b *testing.B) {
	var acc float32
	for i := 0; i < b.N; i++ {
		acc += F16(i & 0x7BFF).Float32()
	}
	_ = acc
}
