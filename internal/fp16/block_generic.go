//go:build !amd64 || purego

package fp16

// No SIMD tier in this build: simd stays false, so vector.go never calls
// these, and every lane runs the portable kernel.

func macBlock(dst, a, b *block) bool            { panic("fp16: no block kernel in this build") }
func madBlock(dst, a, b *block, c float32) bool { panic("fp16: no block kernel in this build") }
func addBlock(dst, a, b *block) bool            { panic("fp16: no block kernel in this build") }
func mulBlock(dst, a, b *block) bool            { panic("fp16: no block kernel in this build") }
