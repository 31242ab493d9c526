//go:build !amd64 || purego

package fp16

// No SIMD tier in this build: simd stays false, so vector.go never calls
// these, and every lane runs the portable kernel.

func macBlock(dst, a, b *block) bool            { panic("fp16: no block kernel in this build") }
func madBlock(dst, a, b *block, c float32) bool { panic("fp16: no block kernel in this build") }
func addBlock(dst, a, b *block) bool            { panic("fp16: no block kernel in this build") }
func mulBlock(dst, a, b *block) bool            { panic("fp16: no block kernel in this build") }

func macBlockBytes(dst, a *block, b *burst) bool { panic("fp16: no block kernel in this build") }
func madBlockBytes(dst *block, a *burst, b *block, c float32) bool {
	panic("fp16: no block kernel in this build")
}
func addBlockBytes(dst, a *block, b *burst) bool { panic("fp16: no block kernel in this build") }
func mulBlockBytes(dst, a *block, b *burst) bool { panic("fp16: no block kernel in this build") }
