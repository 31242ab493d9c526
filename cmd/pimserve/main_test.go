package main

import "testing"

// FuzzTenantFlag feeds arbitrary -tenant values to tenantFlags.Set: it
// must not panic, an accepted value must carry a positive weight, and its
// String form must parse back to the same lane spec.
func FuzzTenantFlag(f *testing.F) {
	for _, s := range []string{"gold=3", "gold=3:1", "bronze=1:-2", "a:b=2:0", "=1", "x=0", "x=1:", "x=+07:-0", "x=1:2:3", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var tf tenantFlags
		if err := tf.Set(s); err != nil {
			if len(tf) != 0 {
				t.Fatalf("Set(%q) failed with %v but appended %+v", s, err, tf)
			}
			return
		}
		if len(tf) != 1 {
			t.Fatalf("Set(%q) appended %d specs, want 1", s, len(tf))
		}
		if tf[0].Weight <= 0 {
			t.Fatalf("Set(%q) accepted weight %d", s, tf[0].Weight)
		}
		var back tenantFlags
		if err := back.Set(tf.String()); err != nil {
			t.Fatalf("Set(%q) = %+v, but its String %q does not parse: %v", s, tf[0], tf.String(), err)
		}
		if back[0] != tf[0] {
			t.Fatalf("Set(%q) = %+v, String %q parses to %+v", s, tf[0], tf.String(), back[0])
		}
	})
}
