//go:build race

package fp16

// xStride is forAllX's step under the race detector, which runs the
// 2^32-pair walks some ten times slower: every 251st value of x (261 of
// them, each against all 2^16 values of y). The full walk stays in
// `go test ./...` and `make fp16-exhaustive`.
const xStride = 251
