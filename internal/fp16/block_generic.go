//go:build !amd64 || purego

package fp16

// No SIMD tier in this build: simd stays false, so vector.go never calls
// these, and every lane runs the portable kernel.

func macBlock(dst, a, b *block) bool            { panic("fp16: no block kernel in this build") }
func madBlock(dst, a, b *block, c float32) bool { panic("fp16: no block kernel in this build") }
func addBlock(dst, a, b *block) bool            { panic("fp16: no block kernel in this build") }
func mulBlock(dst, a, b *block) bool            { panic("fp16: no block kernel in this build") }

func macBursts(dst, a, b [][]byte, resume *[MaxBurstUnits]int32) uint64 {
	panic("fp16: no burst kernel in this build")
}
func madBursts(dst, a, b [][]byte, c []F16, resume *[MaxBurstUnits]int32) uint64 {
	panic("fp16: no burst kernel in this build")
}
func addBursts(dst, a, b [][]byte, resume *[MaxBurstUnits]int32) uint64 {
	panic("fp16: no burst kernel in this build")
}
func mulBursts(dst, a, b [][]byte, resume *[MaxBurstUnits]int32) uint64 {
	panic("fp16: no burst kernel in this build")
}
