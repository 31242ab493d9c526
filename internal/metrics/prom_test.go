package metrics

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestLabels(t *testing.T) {
	cases := []struct {
		name string
		kv   []string
		want string
	}{
		{"m", nil, "m"},
		{"m", []string{"tenant", "gold"}, `m{tenant="gold"}`},
		{"m", []string{"a", "1", "b", "2"}, `m{a="1",b="2"}`},
		// Escaping: quote, backslash, newline in values.
		{"m", []string{"t", `say "hi"`}, `m{t="say \"hi\""}`},
		{"m", []string{"t", `a\b`}, `m{t="a\\b"}`},
		{"m", []string{"t", "a\nb"}, `m{t="a\nb"}`},
		// Label-name sanitization: hostile key can't break the block.
		{"m", []string{`bad-key"`, "v"}, `m{bad_key_="v"}`},
		{"m", []string{"9lives", "v"}, `m{_lives="v"}`},
		{"m", []string{"", "v"}, `m{_="v"}`},
		// Odd trailing key dropped.
		{"m", []string{"a", "1", "orphan"}, `m{a="1"}`},
	}
	for _, c := range cases {
		if got := Labels(c.name, c.kv...); got != c.want {
			t.Errorf("Labels(%q, %v) = %q, want %q", c.name, c.kv, got, c.want)
		}
	}
}

// promSample is one parsed exposition line.
type promSample struct {
	base   string
	labels map[string]string
	value  int64
}

// parsePromStrict parses Prometheus text exposition with a deliberately
// unforgiving mini-parser: any malformed line (unescaped quote, label
// block after a suffix, bad HELP/TYPE ordering) fails the test. It
// returns samples plus the HELP/TYPE text per base name.
func parsePromStrict(t *testing.T, text string) (samples []promSample, help, typ map[string]string) {
	t.Helper()
	help, typ = map[string]string{}, map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, txt, _ := strings.Cut(rest, " ")
			if _, dup := help[name]; dup {
				t.Fatalf("duplicate HELP for %s", name)
			}
			help[name] = txt
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if _, dup := typ[fields[0]]; dup {
				t.Fatalf("duplicate TYPE for %s", fields[0])
			}
			typ[fields[0]] = fields[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line: %q", line)
		}
		samples = append(samples, parseSampleStrict(t, line))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples, help, typ
}

func parseSampleStrict(t *testing.T, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		t.Fatalf("no name terminator in %q", line)
	}
	s.base = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				t.Fatalf("malformed label in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			// Unescape the value up to the closing unescaped quote.
			var val strings.Builder
			j := 0
			for {
				if j >= len(rest) {
					t.Fatalf("unterminated label value in %q", line)
				}
				c := rest[j]
				if c == '"' {
					break
				}
				if c == '\\' {
					if j+1 >= len(rest) {
						t.Fatalf("dangling escape in %q", line)
					}
					switch rest[j+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						t.Fatalf("bad escape \\%c in %q", rest[j+1], line)
					}
					j += 2
					continue
				}
				val.WriteByte(c)
				j++
			}
			if _, dup := s.labels[key]; dup {
				t.Fatalf("duplicate label %q in %q", key, line)
			}
			s.labels[key] = val.String()
			rest = rest[j+1:]
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "} ") {
				rest = rest[2:]
				break
			}
			t.Fatalf("malformed label block tail %q in %q", rest, line)
		}
	} else {
		rest = rest[1:] // skip the space
	}
	v, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		t.Fatalf("bad value %q in %q: %v", rest, line, err)
	}
	s.value = v
	return s
}

// TestPrometheusRoundTrip builds a registry with hostile label values
// (quotes, backslashes, newlines), writes the exposition, re-parses it
// with the strict parser, and checks the original values come back
// byte-exact — the round trip the old writer failed.
func TestPrometheusRoundTrip(t *testing.T) {
	hostile := map[string]string{
		"plain":     "gold",
		"quoted":    `he said "now"`,
		"backslash": `c:\tmp`,
		"newline":   "line1\nline2",
	}
	r := New()
	r.SetHelp("serve_shed_total", "requests shed, by tenant")
	r.SetHelp("serve_wait_us", "queue wait in microseconds\nsecond line")
	for k, v := range hostile {
		r.Counter(Labels("serve_shed_total", "tenant", v, "kind", k)).Add(7)
	}
	h := r.Histogram(Labels("serve_wait_us", "tenant", `tricky"t`), []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	r.Gauge(Labels("serve_depth", "model", "m\n1")).Set(3)

	var out strings.Builder
	if err := r.Snapshot().WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	samples, help, typ := parsePromStrict(t, out.String())

	// HELP text survives (with its newline escaped on the wire).
	if help["serve_shed_total"] != "requests shed, by tenant" {
		t.Errorf("HELP serve_shed_total = %q", help["serve_shed_total"])
	}
	if help["serve_wait_us"] != `queue wait in microseconds\nsecond line` {
		t.Errorf("HELP serve_wait_us = %q", help["serve_wait_us"])
	}
	for base, kind := range map[string]string{
		"serve_shed_total": "counter",
		"serve_wait_us":    "histogram",
		"serve_depth":      "gauge",
	} {
		if typ[base] != kind {
			t.Errorf("TYPE %s = %q, want %q", base, typ[base], kind)
		}
	}

	// Every hostile value round-trips exactly.
	got := map[string]string{}
	for _, s := range samples {
		if s.base == "serve_shed_total" {
			got[s.labels["kind"]] = s.labels["tenant"]
			if s.value != 7 {
				t.Errorf("shed sample value = %d, want 7", s.value)
			}
		}
	}
	for k, v := range hostile {
		if got[k] != v {
			t.Errorf("round-trip %s: got %q, want %q", k, got[k], v)
		}
	}

	// Histogram buckets: le spliced INTO the label block, cumulative
	// counts, sum/count carry the labels too.
	var les []string
	var lastCum int64 = -1
	seen := map[string]int64{}
	for _, s := range samples {
		switch s.base {
		case "serve_wait_us_bucket":
			if s.labels["tenant"] != `tricky"t` {
				t.Errorf("bucket lost tenant label: %v", s.labels)
			}
			les = append(les, s.labels["le"])
			if s.value < lastCum {
				t.Errorf("bucket counts not cumulative: %v then %d", lastCum, s.value)
			}
			lastCum = s.value
		case "serve_wait_us_sum", "serve_wait_us_count":
			if s.labels["tenant"] != `tricky"t` {
				t.Errorf("%s lost tenant label: %v", s.base, s.labels)
			}
			seen[s.base] = s.value
		}
	}
	if want := []string{"10", "100", "+Inf"}; fmt.Sprint(les) != fmt.Sprint(want) {
		t.Errorf("le sequence = %v, want %v", les, want)
	}
	if seen["serve_wait_us_count"] != 3 || seen["serve_wait_us_sum"] != 555 {
		t.Errorf("sum/count = %v, want count 3 sum 555", seen)
	}
	if lastCum != 3 {
		t.Errorf("+Inf bucket = %d, want 3", lastCum)
	}
}

// FuzzPrometheusRoundTrip writes a counter, a gauge and a histogram named
// from an arbitrary name and labeled with arbitrary values through
// Labels and WritePrometheus, re-parses the exposition with the strict
// parser, and requires every series back: its base name as Labels
// sanitized it, its TYPE, its label values byte-exact and its values.
func FuzzPrometheusRoundTrip(f *testing.F) {
	f.Add("serve_shed_total", "gold", "queue-full")
	f.Add("m", `he said "now"`, `c:\tmp`)
	f.Add("9lives", "line1\nline2", "")
	f.Fuzz(func(t *testing.T, name, tenant, model string) {
		if len(name)+len(tenant)+len(model) > 1<<12 {
			t.Skip("longer than a scrape line should be")
		}
		r := New()
		r.Counter(Labels(name, "tenant", tenant, "model", model)).Add(7)
		r.Gauge(Labels(name+"_g", "tenant", tenant)).Set(-3)
		h := r.Histogram(Labels(name+"_h", "model", model), []int64{10})
		h.Observe(5)
		h.Observe(50)
		var out strings.Builder
		if err := r.Snapshot().WritePrometheus(&out); err != nil {
			t.Fatal(err)
		}
		samples, _, typ := parsePromStrict(t, out.String())

		base := Labels(name)
		want := map[string]promSample{
			base:              {base, map[string]string{"tenant": tenant, "model": model}, 7},
			base + "_g":       {base + "_g", map[string]string{"tenant": tenant}, -3},
			base + "_h_sum":   {base + "_h_sum", map[string]string{"model": model}, 55},
			base + "_h_count": {base + "_h_count", map[string]string{"model": model}, 2},
		}
		buckets := map[string]int64{"10": 1, "+Inf": 2}
		for _, s := range samples {
			if s.base == base+"_h_bucket" {
				le := s.labels["le"]
				delete(s.labels, "le")
				if n, ok := buckets[le]; !ok || n != s.value || fmt.Sprint(s.labels) != fmt.Sprint(map[string]string{"model": model}) {
					t.Fatalf("bucket %v = %d: want le in %v with model %q", s.labels, s.value, buckets, model)
				}
				delete(buckets, le)
				continue
			}
			w, ok := want[s.base]
			if !ok || s.value != w.value || fmt.Sprint(s.labels) != fmt.Sprint(w.labels) {
				t.Fatalf("sample %s%v = %d, want %v", s.base, s.labels, s.value, w)
			}
			delete(want, s.base)
		}
		if len(want) > 0 || len(buckets) > 0 {
			t.Fatalf("series missing from the exposition: %v, buckets %v\n%s", want, buckets, out.String())
		}
		for b, kind := range map[string]string{base: "counter", base + "_g": "gauge", base + "_h": "histogram"} {
			if typ[b] != kind {
				t.Errorf("TYPE %s = %q, want %q", b, typ[b], kind)
			}
		}
	})
}
