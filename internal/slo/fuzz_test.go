package slo

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzParseObjective feeds arbitrary -slo strings to ParseObjective. An
// accepted objective must be one the engine can evaluate and /debug/ops
// can encode: a positive p99, a finite availability in (0, 1], no literal
// "*" left in the selectors (wildcards are empty), and a JSON encoding.
// Nothing may panic.
func FuzzParseObjective(f *testing.F) {
	for _, seed := range []string{
		// The grammar's documented forms.
		"p99=20ms",
		"p99=20ms,avail=0.999",
		"p99=1s,avail=99.9",
		"gold:p99=5ms",
		"gold/m1:p99=5ms,avail=0.99",
		"*/m1:p99=5ms",
		"*:p99=5ms",
		"*/*:p99=5ms",
		// Non-finite, boundary and unusual numbers.
		"p99=5ms,avail=NaN",
		"p99=5ms,avail=Inf",
		"p99=5ms,avail=-Inf",
		"p99=5ms,avail=0",
		"p99=5ms,avail=100",
		"p99=5ms,avail=0x1p-1",
		"p99=5ms,avail=1e-320",
		// Duplicate keys and empty parts.
		"p99=5ms,p99=7ms",
		"p99=5ms,avail=0.9,avail=0.5",
		"p99=5ms,",
		",p99=5ms",
		":p99=5ms",
		"",
		"p99=",
		"p99=-1ms",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		o, err := ParseObjective(s)
		if err != nil {
			return
		}
		if o.LatencyP99 <= 0 {
			t.Errorf("%q: accepted p99 %v", s, o.LatencyP99)
		}
		if a := o.Availability; math.IsNaN(a) || math.IsInf(a, 0) || a <= 0 || a > 1 {
			t.Errorf("%q: accepted availability %v", s, a)
		}
		if o.Tenant == "*" || o.Model == "*" {
			t.Errorf("%q: wildcard left literal: tenant %q model %q", s, o.Tenant, o.Model)
		}
		if _, err := json.Marshal(o); err != nil {
			t.Errorf("%q: accepted objective does not encode: %v", s, err)
		}
	})
}
