package fp16

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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

// simd selects the SIMD burst kernels (block_amd64.go) for whole blocks
// of the burst forms below. It is set once, at init, from what the CPU
// reports, and only there: nothing a user can pass reaches it. The tests
// flip it to run both tiers in one binary.
var simd bool

// The four typed operations below work over the shortest common length,
// lane by lane through the portable kernels on every platform: they are
// the burst forms' oracle, and share none of their assembly. dst may be a
// or b themselves (nn accumulates with AddVec(z, z, b)); any other
// overlap between dst and an operand is not supported.

// AddVec computes dst[i] = a[i] + b[i] and returns dst.
func AddVec(dst, a, b Vector) Vector {
	n := min(len(dst), len(a), len(b))
	d, a, b := dst[:n], a[:n], b[:n]
	for i := range d {
		d[i] = Add(a[i], b[i])
	}
	return dst
}

// MulVec computes dst[i] = a[i] * b[i].
func MulVec(dst, a, b Vector) Vector {
	n := min(len(dst), len(a), len(b))
	d, a, b := dst[:n], a[:n], b[:n]
	for i := range d {
		d[i] = Mul(a[i], b[i])
	}
	return dst
}

// MACVec computes dst[i] += a[i] * b[i] with the PIM pipeline's two-step
// rounding.
func MACVec(dst, a, b Vector) Vector {
	n := min(len(dst), len(a), len(b))
	d, a, b := dst[:n], a[:n], b[:n]
	for i := range d {
		d[i] = MAC(d[i], a[i], b[i])
	}
	return dst
}

// MADVec computes dst[i] = a[i]*b[i] + c with the same two-step rounding,
// the scalar addend feeding every lane (the PIM unit's MAD takes it from
// the scalar register file).
func MADVec(dst, a, b Vector, c F16) Vector {
	n := min(len(dst), len(a), len(b))
	d, a, b := dst[:n], a[:n], b[:n]
	for i := range d {
		d[i] = MAC(c, a[i], b[i])
	}
	return dst
}

// lane decodes lane i of a burst, the 32 bytes of one column access as a
// PIM unit holds them: 16 lanes, 2 bytes a lane, little-endian (what
// Bytes writes).
func lane(b []byte, i int) F16 { return F16(binary.LittleEndian.Uint16(b[2*i:])) }

// setLane encodes h into lane i of a burst.
func setLane(b []byte, i int, h F16) { binary.LittleEndian.PutUint16(b[2*i:], uint16(h)) }

// The burst forms of the four operations are what a PIM trigger runs: one
// call applies the operation for n units at once, unit u computing on
// dst[u], a[u] and b[u], every one a burst: a unit's registers hold the
// words a column access carries, and its bank operand is the burst it
// read, so nothing is staged as a Vector. For every u the result is
// exactly what the typed form returns on the decoded bursts, NaN payloads
// included, because the operands keep the instruction's order. Units are
// taken in order, and every burst counts len/2 lanes towards its unit's
// common length; n is len(dst), and the other slices must be at least
// that long. dst[u] may be a[u] or b[u] themselves; no other overlap is
// supported.
//
// On the SIMD path a burst form is one call of its burst kernel per
// MaxBurstUnits units: the kernel widens every burst where it lies, runs
// every unit's whole blocks, and hands back the mask of units it left
// unfinished, at a NaN block or a tail, writing the lane each resumes at
// into the caller's resume buffer. Only those units come back to Go, each
// through the portable loop from its resume lane to its end, operands in
// the instruction's order, so a stored block is never run twice and every
// NaN comes from the portable expression. On the portable path every unit
// resumes at lane 0. The resume buffer is scratch the caller owns so that
// a call zeroes nothing it does not use; it holds nothing between calls.

// MaxBurstUnits is the most units one burst kernel call takes, one bit
// each of the mask it returns, and the length of a resume buffer.
const MaxBurstUnits = 64

// fromLaneZero is the portable path's mask of a chunk's n units: all of
// them, each resuming at lane 0, which it writes over whatever the caller's
// buffer held.
func fromLaneZero(n int, resume *[MaxBurstUnits]int32) uint64 {
	clear(resume[:n])
	return ^uint64(0) >> (MaxBurstUnits - n)
}

// AddVecBursts is AddVec for each unit u.
func AddVecBursts(dst, a, b [][]byte, resume *[MaxBurstUnits]int32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for lo := 0; lo < len(dst); lo += MaxBurstUnits {
		hi := min(lo+MaxBurstUnits, len(dst))
		var todo uint64
		if simd {
			todo = addBursts(dst[lo:hi], a[lo:hi], b[lo:hi], resume)
		} else {
			todo = fromLaneZero(hi-lo, resume)
		}
		for ; todo != 0; todo &= todo - 1 {
			u := bits.TrailingZeros64(todo)
			d, x, y := dst[lo+u], a[lo+u], b[lo+u]
			addLoopBursts(d, x, y, int(resume[u]), min(len(d), len(x), len(y))/2)
		}
	}
}

func addLoopBursts(d, a, b []byte, lo, n int) {
	for i := lo; i < n; i++ {
		setLane(d, i, Add(lane(a, i), lane(b, i)))
	}
}

// MulVecBursts is MulVec for each unit u.
func MulVecBursts(dst, a, b [][]byte, resume *[MaxBurstUnits]int32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for lo := 0; lo < len(dst); lo += MaxBurstUnits {
		hi := min(lo+MaxBurstUnits, len(dst))
		var todo uint64
		if simd {
			todo = mulBursts(dst[lo:hi], a[lo:hi], b[lo:hi], resume)
		} else {
			todo = fromLaneZero(hi-lo, resume)
		}
		for ; todo != 0; todo &= todo - 1 {
			u := bits.TrailingZeros64(todo)
			d, x, y := dst[lo+u], a[lo+u], b[lo+u]
			mulLoopBursts(d, x, y, int(resume[u]), min(len(d), len(x), len(y))/2)
		}
	}
}

func mulLoopBursts(d, a, b []byte, lo, n int) {
	for i := lo; i < n; i++ {
		setLane(d, i, Mul(lane(a, i), lane(b, i)))
	}
}

// MACVecBursts is MACVec for each unit u.
func MACVecBursts(dst, a, b [][]byte, resume *[MaxBurstUnits]int32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for lo := 0; lo < len(dst); lo += MaxBurstUnits {
		hi := min(lo+MaxBurstUnits, len(dst))
		var todo uint64
		if simd {
			todo = macBursts(dst[lo:hi], a[lo:hi], b[lo:hi], resume)
		} else {
			todo = fromLaneZero(hi-lo, resume)
		}
		for ; todo != 0; todo &= todo - 1 {
			u := bits.TrailingZeros64(todo)
			d, x, y := dst[lo+u], a[lo+u], b[lo+u]
			macLoopBursts(d, x, y, int(resume[u]), min(len(d), len(x), len(y))/2)
		}
	}
}

func macLoopBursts(d, a, b []byte, lo, n int) {
	for i := lo; i < n; i++ {
		setLane(d, i, MAC(lane(d, i), lane(a, i), lane(b, i)))
	}
}

// MADVecBursts is MADVec for each unit u, c[u] its addend.
func MADVecBursts(dst, a, b [][]byte, c []F16, resume *[MaxBurstUnits]int32) {
	a, b, c = a[:len(dst)], b[:len(dst)], c[:len(dst)]
	for lo := 0; lo < len(dst); lo += MaxBurstUnits {
		hi := min(lo+MaxBurstUnits, len(dst))
		var todo uint64
		if simd {
			todo = madBursts(dst[lo:hi], a[lo:hi], b[lo:hi], c[lo:hi], resume)
		} else {
			todo = fromLaneZero(hi-lo, resume)
		}
		for ; todo != 0; todo &= todo - 1 {
			u := bits.TrailingZeros64(todo)
			d, x, y := dst[lo+u], a[lo+u], b[lo+u]
			madLoopBursts(d, x, y, c[lo+u], int(resume[u]), min(len(d), len(x), len(y))/2)
		}
	}
}

func madLoopBursts(d, a, b []byte, c F16, lo, n int) {
	for i := lo; i < n; i++ {
		setLane(d, i, MAC(c, lane(a, i), lane(b, i)))
	}
}

// ReLUBurst computes ReLU on every lane of burst a into burst dst, which
// may be a itself, over len(dst)/2 lanes. Four lanes at a time it is
// ReLU's multiplexer on one 64-bit word: every lane whose sign bit is set
// is cleared to +0.
func ReLUBurst(dst, a []byte) {
	n, i := len(dst)/2, 0
	for ; i+4 <= n; i += 4 {
		w := binary.LittleEndian.Uint64(a[2*i:])
		neg := w >> 15 & 0x0001_0001_0001_0001
		binary.LittleEndian.PutUint64(dst[2*i:], w&^(neg*0xFFFF))
	}
	for ; i < n; i++ {
		setLane(dst, i, ReLU(lane(a, i)))
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
