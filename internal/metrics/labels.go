package metrics

// Dimensional series in this registry are flat: labels are baked into the
// metric name (`serve_shed_total{tenant="gold",reason="queue-full"}`), so
// the registry stays a plain map and every export path inherits the
// dimensions for free. Labels is the one sanctioned way to build such a
// name — it escapes label values per the Prometheus exposition format
// (`\\`, `\"`, `\n`) and sanitizes label names, so hostile tenant or model
// strings can't corrupt the scrape output or smuggle extra series.

import "strings"

// Labels builds `name{k1="v1",k2="v2",...}` from alternating key/value
// pairs. Values are escaped for the exposition format; keys are sanitized
// to [a-zA-Z_][a-zA-Z0-9_]* and the name to [a-zA-Z_:][a-zA-Z0-9_:]*
// (offending bytes become '_', an empty one is "_"). An odd trailing key
// is dropped. With no pairs the bare (sanitized) name is returned.
func Labels(name string, kv ...string) string {
	if len(kv) < 2 && validName(name, true) {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 16*len(kv))
	writeName(&b, name, true)
	if len(kv) < 2 {
		return b.String()
	}
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		writeName(&b, kv[i], false)
		b.WriteString(`="`)
		writeLabelValue(&b, kv[i+1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// validName reports whether s is a valid metric name (colon true) or
// label name.
func validName(s string, colon bool) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !nameByte(s[i], i, colon) {
			return false
		}
	}
	return true
}

// nameByte reports whether c may stand at position i of a metric name
// (colon true) or label name.
func nameByte(c byte, i int, colon bool) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
		(colon && c == ':') || (i > 0 && c >= '0' && c <= '9')
}

// writeName writes s as a metric name (colon true) or label name, each
// offending byte replaced by '_', an empty s as "_".
func writeName(b *strings.Builder, s string, colon bool) {
	if s == "" {
		b.WriteByte('_')
		return
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; nameByte(c, i, colon) {
			b.WriteByte(c)
		} else {
			b.WriteByte('_')
		}
	}
}

func writeLabelValue(b *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
}
