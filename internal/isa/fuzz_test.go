package isa

import "testing"

// FuzzISARoundTrip checks the ISA's binary and textual forms against each
// other on arbitrary input. A word either fails to decode, or encodes
// back to a word that decodes to the same instruction, and that
// instruction's assembly parses back to it. A line never panics the
// parser; if it parses, the instruction encodes, and its formatted
// assembly parses back to it.
func FuzzISARoundTrip(f *testing.F) {
	seeds := []string{
		"MAC(AAM) GRF_B, GRF_A, EVEN_BANK",
		"MAD GRF_A[2], EVEN_BANK, SRF_M[3]",
		"MOV(RELU) GRF_A[1], GRF_B[1]",
		"FILL SRF_M[0], ODD_BANK ; load scalars",
		"NOP 7",
		"JUMP -1, 7",
		"EXIT",
	}
	for _, line := range seeds {
		in, _, err := Parse(line)
		if err != nil {
			f.Fatalf("seed %q: %v", line, err)
		}
		f.Add(MustEncode(in), line)
	}
	f.Add(uint32(0x20000048), "MAC(AAM) GRF_B[3], GRF_A, EVEN_BANK")
	f.Fuzz(func(t *testing.T, w uint32, line string) {
		if in, err := Decode(w); err == nil {
			w2, err := Encode(in)
			if err != nil {
				t.Fatalf("Decode(%#08x) = %s, which does not encode: %v", w, in, err)
			}
			if got, err := Decode(w2); err != nil || got != in {
				t.Fatalf("Decode(%#08x) = %#v, re-encoded %#08x decodes to %#v (%v)", w, in, w2, got, err)
			}
			reparse(t, in)
		}
		in, ok, err := Parse(line)
		if err != nil || !ok {
			return
		}
		if _, err := Encode(in); err != nil {
			t.Fatalf("Parse(%q) = %#v, which does not encode: %v", line, in, err)
		}
		reparse(t, in)
	})
}

// reparse fails t unless Format(in) parses back to in.
func reparse(t *testing.T, in Instruction) {
	t.Helper()
	text := Format(in)
	got, ok, err := Parse(text)
	if err != nil || !ok || got != in {
		t.Fatalf("%#v formats as %q, which parses to %#v (ok %v, err %v)", in, text, got, ok, err)
	}
}
