package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pimsim/internal/models"
	"pimsim/internal/obs"
)

// TestRequestTracing drives one request of each kind through a traced
// server and checks the span tree the flight recorder reconstructs for
// it: a root "request" span carrying the X-Request-ID the client saw,
// with a "queue" child and one "exec" child per executed step (one for a
// GEMV input, T for a T-frame sequence), each exec span bound to the
// serving shard and carrying the kernel phase breakdown.
func TestRequestTracing(t *testing.T) {
	tracer := obs.NewTracer(256)
	s := newTestServer(t, Config{
		Shards: 1, Channels: 2, Models: []ModelSpec{tiny},
		SeqModels: []models.Config{tinySeq},
		Tracer:    tracer,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in, _ := testInput(tiny.K, 3)
	_, frames := seqFrames(3, 3, tinySeq.Input)
	for _, tc := range []struct {
		model, body string
		steps       int
	}{
		{"tiny", inferBody(t, "tiny", in), 1},
		{"tinyseq", seqBody(t, "tinyseq", frames, nil), len(frames)},
	} {
		resp, _ := postInfer(t, ts, tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", tc.model, resp.StatusCode)
		}
		id := resp.Header.Get("X-Request-ID")
		if id == "" {
			t.Fatalf("%s: response missing X-Request-ID", tc.model)
		}

		tree := tracer.Tree(id)
		byName := map[string]obs.Span{}
		var execs []obs.Span
		for _, sp := range tree {
			byName[sp.Name] = sp
			if sp.Name == "exec" {
				execs = append(execs, sp)
			}
		}
		root, ok := byName["request"]
		if !ok {
			t.Fatalf("%s: no request root for %s (tree %v)", tc.model, id, tree)
		}
		if root.Parent != 0 {
			t.Errorf("%s: root has parent %d", tc.model, root.Parent)
		}
		q, ok := byName["queue"]
		if !ok {
			t.Fatalf("%s: no queue span", tc.model)
		}
		if q.Parent != root.ID {
			t.Errorf("%s: queue parent %d, want root %d", tc.model, q.Parent, root.ID)
		}
		if len(execs) != tc.steps {
			t.Fatalf("%s: %d exec spans, want one per step (%d)", tc.model, len(execs), tc.steps)
		}
		for _, ex := range execs {
			if ex.Parent != root.ID {
				t.Errorf("%s: exec parent %d, want root %d", tc.model, ex.Parent, root.ID)
			}
			if ex.Shard != 0 {
				t.Errorf("%s: exec span on shard %d, want 0", tc.model, ex.Shard)
			}
			if ex.Cycles <= 0 {
				t.Errorf("%s: exec span carries %d cycles, want > 0", tc.model, ex.Cycles)
			}
			if !strings.Contains(ex.Attrs, "trigger=") || !strings.Contains(ex.Attrs, "batch=") {
				t.Errorf("%s: exec attrs %q missing the phase breakdown", tc.model, ex.Attrs)
			}
		}
		if !strings.Contains(root.Attrs, "model="+tc.model+" ") || !strings.Contains(root.Attrs, "status=200") {
			t.Errorf("%s: root attrs %q missing model/status", tc.model, root.Attrs)
		}
	}
}

// TestDebugTraceEndpoint: GET /debug/trace serves the flight recorder as
// Chrome trace-event JSON; an untraced server 404s it.
func TestDebugTraceEndpoint(t *testing.T) {
	tracer := obs.NewTracer(256)
	s := newTestServer(t, Config{
		Shards: 1, Channels: 2, Models: []ModelSpec{tiny},
		Tracer: tracer,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in, _ := testInput(tiny.K, 3)
	postInfer(t, ts, inferBody(t, "tiny", in))

	resp, err := ts.Client().Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("Content-Type %q", ct)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&file); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	var sliceEvents int
	for _, ev := range file.TraceEvents {
		if ev["ph"] == "X" {
			sliceEvents++
		}
	}
	if sliceEvents == 0 {
		t.Error("trace holds no span slices after a served request")
	}

	// Untraced server: the endpoint must not pretend.
	s2 := newTestServer(t, Config{Shards: 1, Channels: 2, Models: []ModelSpec{tiny}})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp2, err := ts2.Client().Get(ts2.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("untraced /debug/trace: %d, want 404", resp2.StatusCode)
	}
}

// TestAccessLog: every request produces one structured JSON log record
// with the request ID, model, batch/shard placement and outcome.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	s := newTestServer(t, Config{
		Shards: 1, Channels: 2, Models: []ModelSpec{tiny},
		Logger: logger,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in, _ := testInput(tiny.K, 3)
	resp, _ := postInfer(t, ts, inferBody(t, "tiny", in))
	id := resp.Header.Get("X-Request-ID")

	var rec map[string]any
	found := false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if m["msg"] == "infer" {
			rec, found = m, true
		}
	}
	if !found {
		t.Fatalf("no infer access-log record in %q", buf.String())
	}
	if rec["req"] != id {
		t.Errorf("log req %v, want header ID %s", rec["req"], id)
	}
	if rec["model"] != "tiny" {
		t.Errorf("log model %v", rec["model"])
	}
	if st, _ := rec["status"].(float64); st != 200 {
		t.Errorf("log status %v", rec["status"])
	}
	if sh, _ := rec["shard"].(float64); sh != 0 {
		t.Errorf("log shard %v, want 0", rec["shard"])
	}
	for _, f := range []string{"batch", "queue_us", "wall_us", "inputs"} {
		if _, ok := rec[f]; !ok {
			t.Errorf("access log missing field %s", f)
		}
	}

	// A rejected request logs too, at warn, with its error.
	buf.Reset()
	resp2, _ := postInfer(t, ts, `{"model":"missing","input":[1]}`)
	if resp2.StatusCode == http.StatusOK {
		t.Fatalf("unknown model answered %d", resp2.StatusCode)
	}
	if !strings.Contains(buf.String(), `"level":"WARN"`) || !strings.Contains(buf.String(), `"err"`) {
		t.Errorf("failed request did not log a warning with err: %q", buf.String())
	}
}

// TestShardStateGauge: the per-shard health gauge tracks the state
// machine through eviction and revival.
func TestShardStateGauge(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, Channels: 2, Models: []ModelSpec{tiny}})

	read := func() map[string]int64 {
		snap := s.Metrics().Snapshot()
		out := map[string]int64{}
		for name, v := range snap.Gauges {
			if strings.HasPrefix(name, "serve_shard_state") {
				out[name] = v
			}
		}
		return out
	}
	g := read()
	if len(g) != 2 {
		t.Fatalf("got %d serve_shard_state gauges, want 2: %v", len(g), g)
	}
	for name, v := range g {
		if v != int64(shardHealthy) {
			t.Errorf("%s = %d at boot, want %d (healthy)", name, v, shardHealthy)
		}
	}

	// Drive shard 0 through the machine directly (hmu-guarded helper).
	sh := s.shards[0]
	s.hmu.Lock()
	s.setShardState(sh, shardSuspect)
	s.hmu.Unlock()
	if v := read()[`serve_shard_state{shard="0"}`]; v != int64(shardSuspect) {
		t.Errorf("gauge after suspect = %d, want %d", v, shardSuspect)
	}
	s.hmu.Lock()
	s.setShardState(sh, shardEvicted)
	s.hmu.Unlock()
	if v := read()[`serve_shard_state{shard="0"}`]; v != int64(shardEvicted) {
		t.Errorf("gauge after evict = %d, want %d", v, shardEvicted)
	}
	s.hmu.Lock()
	s.setShardState(sh, shardHealthy)
	s.hmu.Unlock()
	if v := read()[`serve_shard_state{shard="0"}`]; v != int64(shardHealthy) {
		t.Errorf("gauge after revive = %d, want %d", v, shardHealthy)
	}
	if v := read()[`serve_shard_state{shard="1"}`]; v != int64(shardHealthy) {
		t.Errorf("shard 1 gauge moved to %d, want untouched healthy", v)
	}
}

// TestSlowRequestHook: the tracer's slow hook fires with the request's
// full tree when a root span exceeds the threshold.
func TestSlowRequestHook(t *testing.T) {
	tracer := obs.NewTracer(256)
	trees := make(chan []obs.Span, 8)
	tracer.SetSlow(time.Nanosecond, func(tree []obs.Span) { trees <- tree })
	s := newTestServer(t, Config{
		Shards: 1, Channels: 2, Models: []ModelSpec{tiny},
		Tracer: tracer,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in, _ := testInput(tiny.K, 3)
	resp, _ := postInfer(t, ts, inferBody(t, "tiny", in))
	id := resp.Header.Get("X-Request-ID")

	select {
	case tree := <-trees:
		if len(tree) < 3 {
			t.Fatalf("slow tree has %d spans, want >= 3 (request, queue, exec)", len(tree))
		}
		if tree[0].Req != id || tree[0].Name != "request" {
			t.Errorf("slow tree root = %s/%s, want request/%s", tree[0].Name, tree[0].Req, id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slow hook never fired with a nanosecond threshold")
	}
}
