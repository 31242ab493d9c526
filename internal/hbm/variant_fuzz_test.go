package hbm

import (
	"strings"
	"testing"
)

// FuzzParseVariant: ParseVariant never panics, and a name it accepts
// names a variant whose String it accepts as the same variant, and whose
// device PIMHBMVariantConfig builds valid.
func FuzzParseVariant(f *testing.F) {
	for _, name := range []string{"base", "2X", "2ba", "srw", "", "PIM-HBM", "Variant(4)", "sRw "} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		v, err := ParseVariant(name)
		if err != nil {
			if !strings.Contains(err.Error(), "unknown variant") {
				t.Errorf("ParseVariant(%q): %v", name, err)
			}
			return
		}
		back, err := ParseVariant(v.String())
		if err != nil || back != v {
			t.Errorf("ParseVariant(%q) = %s, which parses back as %d, %v", name, v, back, err)
		}
		if err := PIMHBMVariantConfig(v, 1000).Validate(); err != nil {
			t.Errorf("ParseVariant(%q) = %s, whose device is invalid: %v", name, v, err)
		}
	})
}
