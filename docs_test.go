package pimsim

// Doc-consistency tests: docs/FAULTS.md is a contract document (the
// error taxonomy, the fault profiles, the runbook's metric names), so
// these tests pin its claims against the code. A rename that leaves the
// doc behind fails here instead of silently rotting the runbook.

import (
	"context"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"pimsim/internal/fault"
	"pimsim/internal/hbm"
	"pimsim/internal/metrics"
	"pimsim/internal/models"
	"pimsim/internal/serve"
	"pimsim/internal/slo"
)

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(b)
}

// TestFaultsDocTaxonomyMatchesTypes pins the taxonomy table to the
// typed errors the code actually raises, spelled exactly as a reader
// would import them.
func TestFaultsDocTaxonomyMatchesTypes(t *testing.T) {
	doc := readDoc(t, "docs/FAULTS.md")

	// Compile-time proof the types the doc names still exist.
	var _ *hbm.UncorrectableError
	var _ *fault.ShardDeadError

	for _, name := range []string{"hbm.UncorrectableError", "fault.ShardDeadError"} {
		if !strings.Contains(doc, name) {
			t.Errorf("docs/FAULTS.md does not name typed error %s", name)
		}
	}

	// Every profile the code exposes is documented.
	for _, p := range fault.ProfileNames() {
		if !strings.Contains(doc, "`"+p+"`") {
			t.Errorf("docs/FAULTS.md profile table missing %q (fault.ProfileNames)", p)
		}
	}

	// The HTTP statuses the taxonomy table documents.
	for _, code := range []string{"400", "429", "503", "504", "500"} {
		if !strings.Contains(doc, "| "+code+" ") {
			t.Errorf("docs/FAULTS.md taxonomy table missing status %s", code)
		}
	}
}

// TestFaultsDocMetricsExist boots a server with a corrupting fault
// profile and checks that every metric name the runbook tells an
// operator to watch is actually registered.
func TestFaultsDocMetricsExist(t *testing.T) {
	doc := readDoc(t, "docs/FAULTS.md")

	fc, err := fault.Profile("chaos-mild", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{Shards: 1, Channels: 2, ECC: true, Fault: &fc})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	snap := s.Metrics().Snapshot()
	known := make(map[string]bool)
	for name := range snap.Counters {
		known[name] = true
	}
	for name := range snap.Gauges {
		known[name] = true
	}

	// Every `serve_...` / `fault_...` name the runbook cites in backticks
	// must be registered under exactly that name.
	cited := 0
	for _, f := range strings.Fields(doc) {
		name := strings.Trim(f, "`,.")
		if !strings.HasPrefix(name, "serve_") && !strings.HasPrefix(name, "fault_") {
			continue
		}
		cited++
		if !known[name] {
			t.Errorf("docs/FAULTS.md cites metric %q, not registered by the server", name)
		}
	}
	if cited < 10 {
		t.Errorf("docs/FAULTS.md cites only %d serve_/fault_ metrics; runbook section missing?", cited)
	}
}

// TestReadmeLinksFaultsDoc keeps the fault story reachable from the
// front page.
func TestReadmeLinksFaultsDoc(t *testing.T) {
	readme := readDoc(t, "README.md")
	if !strings.Contains(readme, "docs/FAULTS.md") {
		t.Error("README.md does not link docs/FAULTS.md")
	}
}

// TestObservabilityDocMetricsExist boots a plain server and checks that
// every serve_ metric docs/OBSERVABILITY.md tells an operator to watch
// is registered (label-bearing citations like `serve_shard_state{...}`
// are matched by base name).
func TestObservabilityDocMetricsExist(t *testing.T) {
	doc := readDoc(t, "docs/OBSERVABILITY.md")

	s, err := serve.New(serve.Config{Shards: 1, Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	snap := s.Metrics().Snapshot()
	base := func(name string) string {
		if i := strings.IndexByte(name, '{'); i >= 0 {
			return name[:i]
		}
		return name
	}
	known := make(map[string]bool)
	for name := range snap.Counters {
		known[base(name)] = true
	}
	for name := range snap.Gauges {
		known[base(name)] = true
	}
	for name := range snap.Histograms {
		known[base(name)] = true
	}

	cited := 0
	for _, f := range strings.Fields(doc) {
		name := strings.Trim(f, "`,.")
		if !strings.HasPrefix(name, "serve_") {
			continue
		}
		cited++
		if !known[base(name)] {
			t.Errorf("docs/OBSERVABILITY.md cites metric %q, not registered by the server", name)
		}
	}
	if cited < 5 {
		t.Errorf("docs/OBSERVABILITY.md cites only %d serve_ metrics; health section missing?", cited)
	}
}

// TestObservabilityDocNamesSurface pins the flags, endpoints and headers
// the doc teaches against the strings the binaries actually define, so
// a flag rename cannot silently rot the page.
func TestObservabilityDocNamesSurface(t *testing.T) {
	doc := readDoc(t, "docs/OBSERVABILITY.md")
	for _, surface := range []string{
		"-timeline", "-trace-dir", "-trace-buf", "-slow-request", "-pprof-addr",
		"/debug/trace", "X-Request-ID", "spans.json",
	} {
		if !strings.Contains(doc, surface) {
			t.Errorf("docs/OBSERVABILITY.md does not mention %s", surface)
		}
	}

	// The flags the doc teaches must exist in the binaries' source.
	pimserve := readDoc(t, "cmd/pimserve/main.go")
	for _, flagName := range []string{`"trace"`, `"trace-dir"`, `"trace-buf"`, `"slow-request"`, `"pprof-addr"`} {
		if !strings.Contains(pimserve, flagName) {
			t.Errorf("cmd/pimserve does not define flag %s named by docs/OBSERVABILITY.md", flagName)
		}
	}
	pimsim := readDoc(t, "cmd/pimsim/main.go")
	if !strings.Contains(pimsim, `"timeline"`) {
		t.Error("cmd/pimsim does not define the -timeline flag named by docs/OBSERVABILITY.md")
	}
}

// TestReadmeLinksObservabilityDoc keeps the observability story
// reachable from the front page.
func TestReadmeLinksObservabilityDoc(t *testing.T) {
	readme := readDoc(t, "README.md")
	if !strings.Contains(readme, "docs/OBSERVABILITY.md") {
		t.Error("README.md does not link docs/OBSERVABILITY.md")
	}
}

// TestDesignDocSeqMetricsExist boots a server with a sequence model
// resident and checks that every serve_seq_ metric DESIGN.md's model
// serving section cites is registered under exactly that name.
func TestDesignDocSeqMetricsExist(t *testing.T) {
	doc := readDoc(t, "DESIGN.md")

	cfg, ok := models.ServingConfigByName("ds2-small")
	if !ok {
		t.Fatal("ds2-small missing from models.ServingConfigs")
	}
	s, err := serve.New(serve.Config{Shards: 1, Channels: 2, SeqModels: []models.Config{cfg}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	snap := s.Metrics().Snapshot()
	known := make(map[string]bool)
	for name := range snap.Counters {
		known[name] = true
	}
	for name := range snap.Histograms {
		known[name] = true
	}

	cited := 0
	for _, f := range strings.Fields(doc) {
		name := strings.Trim(f, "`,.")
		if !strings.HasPrefix(name, "serve_seq_") {
			continue
		}
		cited++
		if !known[name] {
			t.Errorf("DESIGN.md cites metric %q, not registered by the server", name)
		}
	}
	if cited < 5 {
		t.Errorf("DESIGN.md cites only %d serve_seq_ metrics; continuous batching section missing?", cited)
	}
}

// TestServingDocMetricsExist boots a multi-tenant server with hedging
// armed and checks that every serve_ metric the serving handbook tells
// an operator to watch is registered (label-bearing citations like
// `serve_tenant_shed_total{...}` are matched by base name).
func TestServingDocMetricsExist(t *testing.T) {
	doc := readDoc(t, "docs/SERVING.md")

	s, err := serve.New(serve.Config{
		Shards: 2, Channels: 2,
		HedgeDelay: time.Millisecond,
		Tenants: []serve.TenantSpec{
			{Name: "gold", Weight: 4, Priority: 10},
			{Name: "free", Weight: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	snap := s.Metrics().Snapshot()
	base := func(name string) string {
		if i := strings.IndexByte(name, '{'); i >= 0 {
			return name[:i]
		}
		return name
	}
	known := make(map[string]bool)
	for name := range snap.Counters {
		known[base(name)] = true
	}
	for name := range snap.Gauges {
		known[base(name)] = true
	}
	for name := range snap.Histograms {
		known[base(name)] = true
	}

	cited := 0
	for _, f := range strings.Fields(doc) {
		name := strings.Trim(f, "`,.")
		if !strings.HasPrefix(name, "serve_") {
			continue
		}
		cited++
		if !known[base(name)] {
			t.Errorf("docs/SERVING.md cites metric %q, not registered by the server", name)
		}
	}
	if cited < 8 {
		t.Errorf("docs/SERVING.md cites only %d serve_ metrics; what-to-watch section missing?", cited)
	}
}

// TestServingDocNamesSurface pins the flags, headers, shed reasons and
// make targets the serving handbook teaches against the strings the
// code actually defines, so a rename cannot silently rot the runbook.
func TestServingDocNamesSurface(t *testing.T) {
	doc := readDoc(t, "docs/SERVING.md")
	for _, surface := range []string{
		"-tenant", "-hedge-delay", "-queue-depth", "-batch-wait", "-timeout",
		"X-Tenant", "Retry-After", "make qos-drill", "qos_tenants.json",
		"`" + serve.DefaultTenant + "`",
	} {
		if !strings.Contains(doc, surface) {
			t.Errorf("docs/SERVING.md does not mention %s", surface)
		}
	}

	// The shed taxonomy the doc documents is exactly the one the code
	// attaches to rejections (compile-time: the constants must exist).
	for _, reason := range []string{serve.ShedQueueFull, serve.ShedByPriority, serve.ShedDeadlineExpired} {
		if !strings.Contains(doc, "`"+reason+"`") {
			t.Errorf("docs/SERVING.md does not document shed reason `%s`", reason)
		}
	}

	// Every drill scenario is described in both the handbook and the
	// README's QoS table.
	readme := readDoc(t, "README.md")
	for _, name := range serve.QoSScenarioNames() {
		if !strings.Contains(doc, name) {
			t.Errorf("docs/SERVING.md scenario table missing %q (serve.QoSScenarioNames)", name)
		}
		if !strings.Contains(readme, name) {
			t.Errorf("README.md QoS table missing scenario %q", name)
		}
	}

	pimserve := readDoc(t, "cmd/pimserve/main.go")
	for _, flagName := range []string{`"tenant"`, `"hedge-delay"`} {
		if !strings.Contains(pimserve, flagName) {
			t.Errorf("cmd/pimserve does not define flag %s named by docs/SERVING.md", flagName)
		}
	}
	pimload := readDoc(t, "cmd/pimload/main.go")
	for _, flagName := range []string{`"qos"`, `"scenario"`, `"out"`} {
		if !strings.Contains(pimload, flagName) {
			t.Errorf("cmd/pimload does not define flag %s named by docs/SERVING.md", flagName)
		}
	}
}

// TestDocsReadmeIndex keeps docs/README.md an honest index: every page
// in docs/ is listed, and the index never names a page that is gone.
func TestDocsReadmeIndex(t *testing.T) {
	index := readDoc(t, "docs/README.md")
	entries, err := os.ReadDir("docs")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if name == "README.md" || !strings.HasSuffix(name, ".md") {
			continue
		}
		if !strings.Contains(index, name) {
			t.Errorf("docs/README.md index does not list docs/%s", name)
		}
	}
	// Every page the index links must exist on disk.
	for _, page := range []string{"SERVING.md", "FAULTS.md", "OBSERVABILITY.md"} {
		if _, err := os.Stat("docs/" + page); err != nil {
			t.Errorf("docs/README.md links docs/%s: %v", page, err)
		}
	}
}

// TestReadmeLinksServingDoc keeps the QoS/serving-operations story
// reachable from the front page.
func TestReadmeLinksServingDoc(t *testing.T) {
	readme := readDoc(t, "README.md")
	for _, link := range []string{"docs/SERVING.md", "docs/README.md"} {
		if !strings.Contains(readme, link) {
			t.Errorf("README.md does not link %s", link)
		}
	}
}

// TestModelServingDocNamesSurface pins the flags and endpoints the
// model-serving docs teach against the strings the binaries define, and
// keeps the README's model-serving table present.
func TestModelServingDocNamesSurface(t *testing.T) {
	readme := readDoc(t, "README.md")
	for _, surface := range []string{
		"-seq-models", "/v1/models", "continuous batching", "make model-smoke",
	} {
		if !strings.Contains(readme, surface) {
			t.Errorf("README.md does not mention %s", surface)
		}
	}
	if !strings.Contains(readme, "| continuous batching |") {
		t.Error("README.md model-serving table missing its continuous batching row")
	}

	design := readDoc(t, "DESIGN.md")
	for _, surface := range []string{"internal/nn", "MaxBatch", "/v1/models", "HostOracle"} {
		if !strings.Contains(design, surface) {
			t.Errorf("DESIGN.md model serving section does not mention %s", surface)
		}
	}

	pimserve := readDoc(t, "cmd/pimserve/main.go")
	for _, flagName := range []string{`"seq-models"`, `"max-batch"`, `"max-seqlen"`, `"model-batch-wait"`} {
		if !strings.Contains(pimserve, flagName) {
			t.Errorf("cmd/pimserve does not define flag %s named by the docs", flagName)
		}
	}
	pimload := readDoc(t, "cmd/pimload/main.go")
	for _, flagName := range []string{`"seq"`, `"seqlen-dist"`, `"seqs"`, `"eos"`} {
		if !strings.Contains(pimload, flagName) {
			t.Errorf("cmd/pimload does not define flag %s named by the docs", flagName)
		}
	}
}

// TestSLODocMetricsExist checks every serve_ metric docs/SLO.md cites:
// the unconditional window metrics against a booted server, and the
// lazily-created serve_slo_ series against an engine that has seen one
// request (label-bearing citations are matched by base name).
func TestSLODocMetricsExist(t *testing.T) {
	doc := readDoc(t, "docs/SLO.md")

	s, err := serve.New(serve.Config{Shards: 1, Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	// serve_slo_ series are created on first record: drive one request
	// through a standalone engine with an objective and a hedge armed.
	reg := metrics.New()
	eng := slo.New(slo.Config{
		Objectives: []slo.Objective{{LatencyP99: 10 * time.Millisecond, Availability: 0.99}},
		EvalEvery:  -1,
		Hedge:      &slo.HedgeConfig{Initial: 2 * time.Millisecond},
	}, reg)
	eng.RecordRequest("default", "tiny", time.Millisecond, slo.OutcomeOK, "req-1")
	eng.Evaluate()

	base := func(name string) string {
		if i := strings.IndexByte(name, '{'); i >= 0 {
			return name[:i]
		}
		return name
	}
	known := make(map[string]bool)
	for _, snap := range []*metrics.Snapshot{s.Metrics().Snapshot(), reg.Snapshot()} {
		for name := range snap.Counters {
			known[base(name)] = true
		}
		for name := range snap.Gauges {
			known[base(name)] = true
		}
		for name := range snap.Histograms {
			known[base(name)] = true
		}
	}

	cited := 0
	for _, f := range strings.Fields(doc) {
		name := strings.Trim(f, "`,.()")
		if !strings.HasPrefix(name, "serve_") {
			continue
		}
		cited++
		if !known[base(name)] {
			t.Errorf("docs/SLO.md cites metric %q, not registered", name)
		}
	}
	if cited < 8 {
		t.Errorf("docs/SLO.md cites only %d serve_ metrics; metrics section missing?", cited)
	}
}

// TestSLODocNamesSurface pins the flags, endpoints and make targets
// docs/SLO.md teaches against the strings the binaries define.
func TestSLODocNamesSurface(t *testing.T) {
	doc := readDoc(t, "docs/SLO.md")
	for _, surface := range []string{
		"-slo", "-slo-hedge", "-slo-hedge-min", "-slo-hedge-max",
		"/debug/ops", "/debug/slow", "pimtop", "-once",
		"make slo-drill", "slo_ops.json",
	} {
		if !strings.Contains(doc, surface) {
			t.Errorf("docs/SLO.md does not mention %s", surface)
		}
	}

	pimserve := readDoc(t, "cmd/pimserve/main.go")
	for _, flagName := range []string{`"slo"`, `"slo-hedge"`, `"slo-hedge-min"`, `"slo-hedge-max"`} {
		if !strings.Contains(pimserve, flagName) {
			t.Errorf("cmd/pimserve does not define flag %s named by docs/SLO.md", flagName)
		}
	}
	pimload := readDoc(t, "cmd/pimload/main.go")
	if !strings.Contains(pimload, `"slo"`) {
		t.Error("cmd/pimload does not define the -slo flag named by docs/SLO.md")
	}
	pimtop := readDoc(t, "cmd/pimtop/main.go")
	for _, flagName := range []string{`"url"`, `"interval"`, `"once"`} {
		if !strings.Contains(pimtop, flagName) {
			t.Errorf("cmd/pimtop does not define flag %s named by docs/SLO.md", flagName)
		}
	}
}

// TestReadmeLinksSLODoc keeps the SLO story reachable from the front
// page.
func TestReadmeLinksSLODoc(t *testing.T) {
	readme := readDoc(t, "README.md")
	if !strings.Contains(readme, "docs/SLO.md") {
		t.Error("README.md does not link docs/SLO.md")
	}
}

// TestMetricCatalogueIsRead is the reverse of the doc tests above, which
// only check doc -> registry: every serve_/slo_/fault_ series a fully
// configured server registers (both model kinds, two tenants, SLO engine,
// a fault profile) must be named by something that reads it — a page
// under docs/, a drill (scripts/, cmd/pimload, the QoS scenario matrix),
// cmd/pimtop or bench/. A series nothing names is either undocumented or
// dead: document it or delete it (never one bench/ reads).
func TestMetricCatalogueIsRead(t *testing.T) {
	fc, err := fault.Profile("chaos-mild", 1)
	if err != nil {
		t.Fatal(err)
	}
	seqCfg, ok := models.ServingConfigByName("ds2-small")
	if !ok {
		t.Fatal("ds2-small missing from models.ServingConfigs")
	}
	s, err := serve.New(serve.Config{
		Shards: 1, Channels: 2,
		Models:    []serve.ModelSpec{{Name: "tiny", M: 16, K: 32, Seed: 1}},
		SeqModels: []models.Config{seqCfg},
		Tenants:   []serve.TenantSpec{{Name: "gold", Weight: 4, Priority: 10}, {Name: "free", Weight: 1}},
		Fault:     &fc,
		SLO: &slo.Config{
			Objectives: []slo.Objective{{LatencyP99: 10 * time.Millisecond, Availability: 0.99}},
			EvalEvery:  -1,
			Hedge:      &slo.HedgeConfig{Initial: 2 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	// serve_slo_ series are created on first record; one request through
	// the HTTP front door creates them the way production does.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"model":"tiny","tenant":"gold","input":[` + strings.Repeat("0.5,", 31) + `0.5]}`
	resp, err := ts.Client().Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("warm-up request: status %d", resp.StatusCode)
	}

	var readers strings.Builder
	for _, pattern := range []string{
		"docs/*.md", "scripts/*.sh", "cmd/pimload/*.go", "internal/serve/qosload.go",
		"cmd/pimtop/*.go", "bench/*.go", "bench/*.md",
	} {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Fatalf("no reader files match %s (%v)", pattern, err)
		}
		for _, f := range files {
			readers.WriteString(readDoc(t, f))
		}
	}
	read := readers.String()

	snap := s.Metrics().Snapshot()
	series := map[string]bool{}
	add := func(name string) {
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, prefix := range []string{"serve_", "slo_", "fault_"} {
			if strings.HasPrefix(name, prefix) {
				series[name] = true
			}
		}
	}
	for name := range snap.Counters {
		add(name)
	}
	for name := range snap.Gauges {
		add(name)
	}
	for name := range snap.Histograms {
		add(name)
	}
	if len(series) < 40 {
		t.Fatalf("only %d serve_/slo_/fault_ series registered; is the server fully configured?", len(series))
	}
	for name := range series {
		if !strings.Contains(read, name) {
			t.Errorf("series %s is registered but no doc, drill, pimtop pane or bench reads it: document it or delete it", name)
		}
	}
}

// TestOneDeviceDescription guards the single source of device facts:
// internal/hbm's variant table says what a Fig. 14 variant is, and the
// other packages read it through hbm.Config's accessors. A non-test file
// outside internal/hbm and internal/isa that compares an hbm.Variant, or
// doubles isa.GRFEntries to re-derive a GRF depth, is a second copy of the
// table.
// Two fixed sizes are not derivations and may stay: the oracle's
// accumulator buffer and ZeroGRF's command count.
func TestOneDeviceDescription(t *testing.T) {
	variantCompare := regexp.MustCompile(`(==|!=)\s*hbm\.Variant|hbm\.Variant\w+\s*(==|!=)|case\s+hbm\.Variant`)
	grfDoubled := regexp.MustCompile(`2\s*\*\s*isa\.GRFEntries`)
	fixedSize := map[string]string{
		"internal/blas/gemv.go":       "var buf [2 * isa.GRFEntries]fp16.F16",
		"internal/runtime/runtime.go": "col := end - 2*isa.GRFEntries",
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			switch path {
			case "bench", ".bench_build", ".git", "internal/hbm", "internal/isa":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for i, line := range strings.Split(readDoc(t, path), "\n") {
			if variantCompare.MatchString(line) {
				t.Errorf("%s:%d compares an hbm.Variant; read the fact from hbm.Config: %s", path, i+1, strings.TrimSpace(line))
			}
			fixed, ok := fixedSize[path]
			if grfDoubled.MatchString(line) && !(ok && strings.Contains(line, fixed)) {
				t.Errorf("%s:%d doubles isa.GRFEntries; use hbm.Config.GRFDepth: %s", path, i+1, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
