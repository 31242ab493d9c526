//go:build !race

package fp16

// xStride is forAllX's step: every binary16 value of x.
const xStride = 1
