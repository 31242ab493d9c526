package fp16

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Vector is a slice of binary16 values, the unit of data the 256-bit PIM
// datapath moves and computes on (16 lanes x 16 bits).
type Vector []F16

// Lanes is the SIMD width of one PIM execution unit.
const Lanes = 16

// NewVector allocates a zeroed vector of n elements.
func NewVector(n int) Vector { return make(Vector, n) }

// FromFloat32s converts a float32 slice elementwise.
func FromFloat32s(fs []float32) Vector {
	v := make(Vector, len(fs))
	for i, f := range fs {
		v[i] = FromFloat32(f)
	}
	return v
}

// Float32s converts back to float32 elementwise.
func (v Vector) Float32s() []float32 {
	fs := make([]float32, len(v))
	for i, h := range v {
		fs[i] = h.Float32()
	}
	return fs
}

// block is one PIM instruction's worth of lanes, the unit the SIMD
// kernels work in.
type block = [Lanes]F16

// simd selects the SIMD block kernels (block_amd64.go) for whole blocks
// of the four vector operations below. It is set once, at init, from
// what the CPU reports, and only there: nothing a user can pass reaches
// it. The tests flip it to run both tiers in one binary.
var simd bool

// The four operations below work over the shortest common length. dst
// may be a or b themselves (nn accumulates with AddVec(z, z, b)); any
// other overlap between dst and an operand is not supported. With simd
// set, whole 16-lane blocks go through the block kernel, and the tail,
// as well as every block whose result has a NaN lane, through the
// portable loop: a NaN's payload depends on the operand order of the
// instruction that produced it, so every NaN these operations return
// comes from the portable loop's expression, on every platform (for
// MACVec and MADVec that expression is macRef). Inf results do not
// depend on operand order and stay in the kernel.

// AddVec computes dst[i] = a[i] + b[i] and returns dst.
func AddVec(dst, a, b Vector) Vector {
	n := min(len(dst), len(a), len(b))
	d, a, b := dst[:n], a[:n], b[:n]
	i := 0
	if simd {
		for ; i+Lanes <= n; i += Lanes {
			if !addBlock((*block)(d[i:]), (*block)(a[i:]), (*block)(b[i:])) {
				addLoop(d[i:i+Lanes], a[i:i+Lanes], b[i:i+Lanes])
			}
		}
	}
	addLoop(d[i:], a[i:], b[i:])
	return dst
}

func addLoop(d, a, b Vector) {
	a, b = a[:len(d)], b[:len(d)]
	for i := range d {
		d[i] = Add(a[i], b[i])
	}
}

// MulVec computes dst[i] = a[i] * b[i].
func MulVec(dst, a, b Vector) Vector {
	n := min(len(dst), len(a), len(b))
	d, a, b := dst[:n], a[:n], b[:n]
	i := 0
	if simd {
		for ; i+Lanes <= n; i += Lanes {
			if !mulBlock((*block)(d[i:]), (*block)(a[i:]), (*block)(b[i:])) {
				mulLoop(d[i:i+Lanes], a[i:i+Lanes], b[i:i+Lanes])
			}
		}
	}
	mulLoop(d[i:], a[i:], b[i:])
	return dst
}

func mulLoop(d, a, b Vector) {
	a, b = a[:len(d)], b[:len(d)]
	for i := range d {
		d[i] = Mul(a[i], b[i])
	}
}

// MACVec computes dst[i] += a[i] * b[i] with the PIM pipeline's two-step
// rounding.
func MACVec(dst, a, b Vector) Vector {
	n := min(len(dst), len(a), len(b))
	d, a, b := dst[:n], a[:n], b[:n]
	i := 0
	if simd {
		for ; i+Lanes <= n; i += Lanes {
			if !macBlock((*block)(d[i:]), (*block)(a[i:]), (*block)(b[i:])) {
				macLoop(d[i:i+Lanes], a[i:i+Lanes], b[i:i+Lanes])
			}
		}
	}
	macLoop(d[i:], a[i:], b[i:])
	return dst
}

func macLoop(d, a, b Vector) {
	a, b = a[:len(d)], b[:len(d)]
	for i := range d {
		d[i] = MAC(d[i], a[i], b[i])
	}
}

// MADVec computes dst[i] = a[i]*b[i] + c with the same two-step rounding,
// the scalar addend feeding every lane (the PIM unit's MAD takes it from
// the scalar register file).
func MADVec(dst, a, b Vector, c F16) Vector {
	n := min(len(dst), len(a), len(b))
	d, a, b := dst[:n], a[:n], b[:n]
	i := 0
	if simd {
		for c32 := c.Float32(); i+Lanes <= n; i += Lanes {
			if !madBlock((*block)(d[i:]), (*block)(a[i:]), (*block)(b[i:]), c32) {
				madLoop(d[i:i+Lanes], a[i:i+Lanes], b[i:i+Lanes], c)
			}
		}
	}
	madLoop(d[i:], a[i:], b[i:], c)
	return dst
}

func madLoop(d, a, b Vector, c F16) {
	a, b = a[:len(d)], b[:len(d)]
	for i := range d {
		d[i] = MAC(c, a[i], b[i])
	}
}

// ReLUVec computes dst[i] = ReLU(a[i]).
func ReLUVec(dst, a Vector) Vector {
	n := min(len(dst), len(a))
	for i := 0; i < n; i++ {
		dst[i] = ReLU(a[i])
	}
	return dst
}

// ReduceAdd sums the vector left to right in binary16 (the reduction order
// the host uses when folding GRF partial sums).
func (v Vector) ReduceAdd() F16 {
	acc := Zero
	for _, h := range v {
		acc = Add(acc, h)
	}
	return acc
}

// Bytes serializes the vector little-endian, 2 bytes per lane, the DRAM
// burst layout.
func (v Vector) Bytes() []byte {
	b := make([]byte, 2*len(v))
	for i, h := range v {
		binary.LittleEndian.PutUint16(b[2*i:], uint16(h))
	}
	return b
}

// PutBytes serializes into an existing buffer; it panics if b is shorter
// than 2*len(v).
func (v Vector) PutBytes(b []byte) {
	for i, h := range v {
		binary.LittleEndian.PutUint16(b[2*i:], uint16(h))
	}
}

// VectorFromBytes parses little-endian 16-bit lanes from b (len(b)/2
// elements).
func VectorFromBytes(b []byte) Vector {
	v := make(Vector, len(b)/2)
	return v.DecodeBytes(b)
}

// DecodeBytes fills v in place from little-endian 16-bit lanes in b,
// decoding min(len(v), len(b)/2) elements, and returns v. It is the
// allocation-free counterpart of VectorFromBytes for reusable buffers.
func (v Vector) DecodeBytes(b []byte) Vector {
	n := min(len(v), len(b)/2)
	for i := 0; i < n; i++ {
		v[i] = F16(binary.LittleEndian.Uint16(b[2*i:]))
	}
	return v
}

// String renders the vector like "[1 2.5 -0.125]".
func (v Vector) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, h := range v {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(h.String())
	}
	sb.WriteByte(']')
	return sb.String()
}

func trimFloat(f float32) string {
	s := strconv.FormatFloat(float64(f), 'g', -1, 32)
	return s
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b interpreted as float64, useful for approximate comparisons in
// tests. It panics if the lengths differ.
func MaxAbsDiff(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("fp16: MaxAbsDiff length mismatch %d != %d", len(a), len(b)))
	}
	var m float64
	for i := range a {
		d := a[i].Float64() - b[i].Float64()
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}
