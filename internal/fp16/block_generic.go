//go:build !amd64 || purego

package fp16

// No SIMD tier in this build: simd stays false, so vector.go never calls
// these, and every unit of a burst form runs the portable loop.

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
