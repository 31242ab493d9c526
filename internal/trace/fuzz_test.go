package trace_test

import (
	"slices"
	"strings"
	"testing"

	"pimsim/internal/blas"
	"pimsim/internal/hbm"
	"pimsim/internal/runtime"
	"pimsim/internal/trace"
)

// gemvTrace is the text a Recorder dumps for a short timing-only GEMV
// (32x32 on one device): mode switches, register-space writes, PIM
// triggers and the SB-mode unload, as cmd/pimsim -trace writes them.
func gemvTrace(tb testing.TB) string {
	tb.Helper()
	cfg := hbm.PIMHBMConfig(1000)
	cfg.Functional = false
	rt, _, err := runtime.NewStack(cfg, 1)
	if err != nil {
		tb.Fatal(err)
	}
	rt.Chans[0].Trace = trace.NewRecorder(256)
	if _, _, err := blas.PimGemv(rt, nil, 32, 32, nil); err != nil {
		tb.Fatal(err)
	}
	var sb strings.Builder
	if err := rt.Chans[0].Trace.Dump(&sb); err != nil {
		tb.Fatal(err)
	}
	return sb.String()
}

// FuzzParse feeds arbitrary text to Parse, which must never panic. A
// trace it accepts must re-format through Event.String and re-parse to
// the same events, and Validate must judge it without panicking.
func FuzzParse(f *testing.F) {
	var sb strings.Builder
	for _, e := range roundTripEvents {
		sb.WriteString(e.String() + "\n")
	}
	f.Add(sb.String())
	f.Add(commentedTrace)
	for _, src := range malformedTraces {
		f.Add(src)
	}
	f.Add(gemvTrace(f))
	cfg := hbm.PIMHBMConfig(1000)
	f.Fuzz(func(t *testing.T, src string) {
		events, err := trace.Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		var sb strings.Builder
		for _, e := range events {
			sb.WriteString(e.String() + "\n")
		}
		back, err := trace.Parse(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("accepted trace re-formats to text Parse rejects: %v\n%s", err, sb.String())
		}
		if !slices.Equal(back, events) {
			t.Fatalf("re-parsed events differ:\n%v\nwant\n%v", back, events)
		}
		_ = trace.Validate(events, cfg, 2)
	})
}
