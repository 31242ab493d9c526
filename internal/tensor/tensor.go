// Package tensor is a minimal ML-framework layer in the spirit of the
// paper's TensorFlow integration (Section V, Fig. 6): applications build a
// graph of ops once, and the *same unmodified graph* runs on the host or
// on PIM. The native execution path lets the runtime preprocessor pick
// memory-bound ops and route them to the PIM BLAS automatically; PIM
// custom ops (Fig. 7) force explicit offload.
package tensor

import "pimsim/internal/fp16"

// Tensor is a dense FP16 tensor.
type Tensor struct {
	Shape []int
	Data  fp16.Vector
}

// New allocates a zero tensor.
func New(shape ...int) *Tensor {
	return &Tensor{Shape: shape, Data: fp16.NewVector(numel(shape))}
}

// Numel returns the element count.
func (t *Tensor) Numel() int { return numel(t.Shape) }

// SameShape reports shape equality.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}
