package macmodel

import (
	"math"
	"testing"
)

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / want
}

// TestTableIWithinTolerance checks every model estimate against the
// paper's published Table I within 10%.
func TestTableIWithinTolerance(t *testing.T) {
	for _, row := range TableI() {
		if e := relErr(row.Area, row.PaperArea); e > 0.10 {
			t.Errorf("%s area: model %.3f vs paper %.2f (%.1f%% off)",
				row.Format.Name, row.Area, row.PaperArea, 100*e)
		}
		if e := relErr(row.Energy, row.PaperEnergy); e > 0.10 {
			t.Errorf("%s energy: model %.3f vs paper %.2f (%.1f%% off)",
				row.Format.Name, row.Energy, row.PaperEnergy, 100*e)
		}
	}
}

// TestNormalization: INT16/48 is the unit of both scales.
func TestNormalization(t *testing.T) {
	if a := Area(INT16Acc48); math.Abs(a-1) > 1e-9 {
		t.Errorf("Area(INT16) = %v", a)
	}
	if e := Energy(INT16Acc48); math.Abs(e-1) > 1e-9 {
		t.Errorf("Energy(INT16) = %v", e)
	}
}

// TestPaperConclusions verifies the architectural arguments the paper
// draws from Table I hold in the model.
func TestPaperConclusions(t *testing.T) {
	// FP32 is too large for DRAM integration: ~3-4x an INT16 MAC.
	if r := Area(FP32) / Area(INT16Acc48); r < 3 {
		t.Errorf("FP32/INT16 area ratio %.2f, want > 3", r)
	}
	// BFLOAT16 is slightly smaller and more energy-efficient than FP16.
	if Area(BFLOAT16) >= Area(FP16) {
		t.Error("BFLOAT16 should be smaller than FP16")
	}
	if Energy(BFLOAT16) >= Energy(FP16) {
		t.Error("BFLOAT16 should use less energy than FP16")
	}
	// FP16 remains comparable to INT16 (within ~40%), which is why it is
	// implementable at all.
	if r := Area(FP16) / Area(INT16Acc48); r > 1.5 {
		t.Errorf("FP16/INT16 area ratio %.2f, want < 1.5", r)
	}
	// Wider accumulators cost area: INT8/48 > INT8/32.
	if Area(INT8Acc48) <= Area(INT8Acc32) {
		t.Error("48-bit accumulator should cost more than 32-bit")
	}
}

func TestMonotonicity(t *testing.T) {
	// Area grows with significand width for FP formats.
	if !(Area(BFLOAT16) < Area(FP16) && Area(FP16) < Area(FP32)) {
		t.Error("FP area not monotone in mantissa width")
	}
	// Energy grows with area across the integer family.
	if !(Energy(INT8Acc32) < Energy(INT8Acc48) && Energy(INT8Acc48) < Energy(INT16Acc48)) {
		t.Error("INT energy not monotone")
	}
}

func TestTableIRowOrder(t *testing.T) {
	rows := TableI()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Format.Name != INT16Acc48.Name || rows[5].Format.Name != FP32.Name {
		t.Error("rows not in the paper's order")
	}
}
