package fp16

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = FromFloat32(float32(rng.NormFloat64()))
	}
	return v
}

func TestVectorBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 15, 16, 33} {
		v := randVec(rng, n)
		got := VectorFromBytes(v.Bytes())
		if len(got) != len(v) {
			t.Fatalf("n=%d: length %d", n, len(got))
		}
		for i := range v {
			if got[i] != v[i] {
				t.Fatalf("n=%d lane %d: 0x%04x != 0x%04x", n, i, uint16(got[i]), uint16(v[i]))
			}
		}
	}
}

func TestVectorBytesLittleEndian(t *testing.T) {
	v := Vector{F16(0x1234)}
	b := v.Bytes()
	if b[0] != 0x34 || b[1] != 0x12 {
		t.Fatalf("bytes = %x, want 3412", b)
	}
}

func TestPutBytesMatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	v := randVec(rng, Lanes)
	buf := make([]byte, 2*Lanes)
	v.PutBytes(buf)
	want := v.Bytes()
	for i := range buf {
		if buf[i] != want[i] {
			t.Fatalf("byte %d: %02x != %02x", i, buf[i], want[i])
		}
	}
}

// TestElementwiseOps: one block of every operation of vecOps, typed and
// burst form, and of ReLUVec against its scalar reference.
func TestElementwiseOps(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		a, b, acc := randVec(rng, Lanes), randVec(rng, Lanes), randVec(rng, Lanes)
		for _, op := range vecOps {
			got := append(Vector(nil), acc...)
			op.vec(got, a, b, acc[0])
			for i := range got {
				if want := op.ref(acc[i], a[i], b[i], acc[0]); got[i] != want {
					t.Errorf("%s lane %d: 0x%04x, want 0x%04x", op.name, i, uint16(got[i]), uint16(want))
				}
			}
		}
		r := ReLUVec(NewVector(Lanes), a)
		for i := range r {
			if r[i] != ReLU(a[i]) {
				t.Errorf("ReLUVec lane %d mismatch", i)
			}
		}
	})
}

// TestReLUBurst: in bursts of 0..19 lanes (whole words and a tail), in
// place and not, every binary16 value passes through every lane position
// (lane i holds x + 7919*i for all x), every lane is ReLU of its input,
// and a byte past the last whole lane stays as it was.
func TestReLUBurst(t *testing.T) {
	for n := 0; n < 20; n++ {
		for _, inPlace := range []bool{false, true} {
			for x := 0; x <= 0xFFFF; x++ {
				a := make(Vector, n)
				for i := range a {
					a[i] = F16(x + 7919*i)
				}
				src := append(a.Bytes(), 0xA5)
				dst := bytes.Repeat([]byte{0x5A}, len(src))
				if inPlace {
					dst = src
				}
				ReLUBurst(dst[:2*n+1], src)
				for i, h := range a {
					if got := lane(dst, i); got != ReLU(h) {
						t.Fatalf("n=%d in place %v lane %d of 0x%04x: 0x%04x, want 0x%04x", n, inPlace, i, uint16(h), uint16(got), uint16(ReLU(h)))
					}
				}
				if want := map[bool]byte{false: 0x5A, true: 0xA5}[inPlace]; dst[2*n] != want {
					t.Fatalf("n=%d in place %v: byte past the lanes 0x%02x, want 0x%02x", n, inPlace, dst[2*n], want)
				}
			}
		}
	}
}

// vecOps is the four vector operations, typed and burst form (one unit),
// behind one signature, each beside its scalar reference: acc is MACVec's
// accumulator on the way in (dst starts as a copy of it) and c is MADVec's
// addend.
var vecOps = []struct {
	name string
	vec  func(dst, a, b Vector, c F16)
	ref  func(acc, a, b, c F16) F16
}{
	{"AddVec", func(dst, a, b Vector, _ F16) { AddVec(dst, a, b) }, func(_, a, b, _ F16) F16 { return Add(a, b) }},
	{"MulVec", func(dst, a, b Vector, _ F16) { MulVec(dst, a, b) }, func(_, a, b, _ F16) F16 { return Mul(a, b) }},
	{"MACVec", func(dst, a, b Vector, _ F16) { MACVec(dst, a, b) }, func(acc, a, b, _ F16) F16 { return macRef(acc, a, b) }},
	{"MADVec", func(dst, a, b Vector, c F16) { MADVec(dst, a, b, c) }, func(_, a, b, c F16) F16 { return macRef(c, a, b) }},
	{"AddVecBursts", burstForm(func(d, a, b [][]byte, _ F16) { AddVecBursts(d, a, b, &burstResume) }), func(_, a, b, _ F16) F16 { return Add(a, b) }},
	{"MulVecBursts", burstForm(func(d, a, b [][]byte, _ F16) { MulVecBursts(d, a, b, &burstResume) }), func(_, a, b, _ F16) F16 { return Mul(a, b) }},
	{"MACVecBursts", burstForm(func(d, a, b [][]byte, _ F16) { MACVecBursts(d, a, b, &burstResume) }), func(acc, a, b, _ F16) F16 { return macRef(acc, a, b) }},
	{"MADVecBursts", burstForm(func(d, a, b [][]byte, c F16) { MADVecBursts(d, a, b, []F16{c}, &burstResume) }), func(_, a, b, c F16) F16 { return macRef(c, a, b) }},
}

// burstScratch backs burstForm: dst, a and b are encoded into a scratch
// burst each, or share dst's when they alias it, so the burst forms see
// the aliasing the typed forms do, and the no-allocation test measures
// them and not the encoding. burstResume is their resume buffer.
var (
	burstScratch [3][2 * 64]byte
	burstResume  [MaxBurstUnits]int32
)

// burstForm runs a burst form over one unit behind vecOps' signature:
// the operands encoded as bursts, the result decoded back into dst.
func burstForm(f func(d, a, b [][]byte, c F16)) func(dst, a, b Vector, c F16) {
	enc := func(i int, v Vector) []byte {
		b := burstScratch[i][:2*len(v)]
		v.PutBytes(b)
		return b
	}
	return func(dst, a, b Vector, c F16) {
		d := enc(0, dst)
		x, y := d[:2*len(a)], d[:2*len(b)]
		if !sameBacking(a, dst) {
			x = enc(1, a)
		}
		if !sameBacking(b, dst) {
			y = enc(2, b)
		}
		f([][]byte{d}, [][]byte{x}, [][]byte{y}, c)
		dst.DecodeBytes(d)
	}
}

// sameBacking reports whether a and b start at the same element.
func sameBacking(a, b Vector) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// TestVecRaggedAndAliased runs the four operations at every common length
// 0..40 (no block, blocks, blocks and a tail), with dst apart from its
// operands, dst being a and dst being b, against the scalar operation on
// copies taken beforehand; dst is longer than the common length and must
// keep what it held past it.
func TestVecRaggedAndAliased(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		const extra = 3
		for n := 0; n <= 40; n++ {
			for _, op := range vecOps {
				for _, alias := range []string{"none", "a", "b"} {
					a, b, dst := randVec(rng, n+extra), randVec(rng, n+extra), randVec(rng, n+extra)
					switch alias {
					case "a":
						dst = a
					case "b":
						dst = b
					}
					a0, b0, d0 := append(Vector(nil), a...), append(Vector(nil), b...), append(Vector(nil), dst...)
					c := d0[0]
					op.vec(dst, a[:n], b[:n+1], c)
					for i := range dst {
						want := d0[i]
						if i < n {
							want = op.ref(d0[i], a0[i], b0[i], c)
						}
						if dst[i] != want {
							t.Fatalf("%s n=%d dst=%s lane %d: 0x%04x, want 0x%04x",
								op.name, n, alias, i, uint16(dst[i]), uint16(want))
						}
					}
				}
			}
		}
	})
}

// TestVecMixedBlock pins the rule for a block the SIMD burst kernel gives
// up on: with NaN lanes next to Inf, subnormal and normal ones, every
// lane, the untouched-looking ones included, is what the portable path
// returns.
// The second block has no NaN (its Inf and overflowing lanes stay in the
// kernel); the third is a tail.
func TestVecMixedBlock(t *testing.T) {
	needSIMD(t, simd)
	defer func() { simd = true }()
	special := Vector{0x7E01, PosInf, 0x0001, One, 0xFE02, NegInf, 0x83FF, 0x3555,
		Zero, 0x7C01, MaxVal, NegZero, 0x0400, 0xFBFF, 0x7F03, 0x4200}
	rng := rand.New(rand.NewSource(13))
	a, b, acc := randVec(rng, 2*Lanes+5), randVec(rng, 2*Lanes+5), randVec(rng, 2*Lanes+5)
	for i, h := range special {
		a[i], b[(i+5)%Lanes], acc[(i+11)%Lanes] = h, h, h
		a[Lanes+i], acc[Lanes+i] = finite(h), finite(special[(i+3)%Lanes])
	}
	a[Lanes+1], b[Lanes+1] = MaxVal, MaxVal // overflows to Inf in the kernel
	acc[Lanes+2], a[Lanes+2], b[Lanes+2] = PosInf, One, One
	for _, op := range vecOps {
		var got [2]Vector
		for path, on := range []bool{false, true} {
			simd = on
			got[path] = append(Vector(nil), acc...)
			op.vec(got[path], a, b, One)
		}
		for i := range acc {
			if got[0][i] != got[1][i] {
				t.Errorf("%s lane %d (acc=0x%04x, a=0x%04x, b=0x%04x): SIMD path 0x%04x, portable 0x%04x",
					op.name, i, uint16(acc[i]), uint16(a[i]), uint16(b[i]), uint16(got[1][i]), uint16(got[0][i]))
			}
			if i >= Lanes && i < 2*Lanes && got[1][i].IsNaN() {
				t.Errorf("%s lane %d: the NaN-free block has a NaN result; fix the operands", op.name, i)
			}
		}
	}
}

// TestVecNoAllocs: the four operations, typed and burst form, allocate
// nothing on either path.
func TestVecNoAllocs(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		a, b, dst := randVec(rng, 2*Lanes+5), randVec(rng, 2*Lanes+5), randVec(rng, 2*Lanes+5)
		a[3] = NaN // one block through the fallback
		for _, op := range vecOps {
			if n := testing.AllocsPerRun(100, func() { op.vec(dst, a, b, One) }); n != 0 {
				t.Errorf("%s: %v allocations per call, want 0", op.name, n)
			}
		}
	})
}

func TestReduceAddOrder(t *testing.T) {
	// Left-to-right order matters in fp16; verify against explicit folding.
	v := FromFloat32s([]float32{1000, 1, 1, 1, 1, 1, 1, 1})
	acc := Zero
	for _, h := range v {
		acc = Add(acc, h)
	}
	if got := v.ReduceAdd(); got != acc {
		t.Fatalf("ReduceAdd = %v, want %v", got, acc)
	}
}

func TestFromFloat32sRoundTrip(t *testing.T) {
	fs := []float32{0, 1, -1, 0.5, 1024, -65504}
	v := FromFloat32s(fs)
	back := v.Float32s()
	for i := range fs {
		if back[i] != fs[i] {
			t.Errorf("element %d: %v != %v", i, back[i], fs[i])
		}
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromFloat32s([]float32{1, 2, 3})
	b := FromFloat32s([]float32{1, 2.5, 3})
	if got := MaxAbsDiff(a, b); got != 0.5 {
		t.Fatalf("MaxAbsDiff = %v", got)
	}
	if got := MaxAbsDiff(a, a); got != 0 {
		t.Fatalf("self diff = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	MaxAbsDiff(a, a[:2])
}

func TestVectorQuickRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		v := make(Vector, len(raw))
		for i, r := range raw {
			v[i] = F16(r)
		}
		got := VectorFromBytes(v.Bytes())
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
