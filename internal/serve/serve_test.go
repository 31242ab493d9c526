package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pimsim/internal/blas"
	"pimsim/internal/fp16"
	"pimsim/internal/metrics"
)

// tiny is a fast model for pipeline tests: single block, single macro.
var tiny = ModelSpec{Name: "tiny", M: 16, K: 32, Seed: 42}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

func postInfer(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func inferBody(t *testing.T, model string, x []float64) string {
	t.Helper()
	b, err := json.Marshal(InferRequest{Model: model, Input: x})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func testInput(k int, seed int64) ([]float64, fp16.Vector) {
	x16 := fp16.NewVector(k)
	in := make([]float64, k)
	for i := range in {
		x16[i] = fp16.FromFloat32(float32((int64(i)*seed)%7) / 4)
		in[i] = float64(x16[i].Float32())
	}
	return in, x16
}

// TestInferCorrectness: a served output must be bit-exact against the
// software oracle all the way through the HTTP/JSON round trip.
func TestInferCorrectness(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, Channels: 2, Models: []ModelSpec{tiny}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in, x16 := testInput(tiny.K, 3)
	resp, body := postInfer(t, ts, inferBody(t, "tiny", in))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ir InferResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	want := blas.RefGemvPIMOrder(tiny.Weights(), tiny.M, tiny.K, x16, 8)
	if !slices.Equal(toF16(ir.Output), want) {
		t.Fatalf("served output mismatch: got %v", ir.Output)
	}
	if ir.BatchSize < 1 || ir.KernelCycles <= 0 {
		t.Errorf("missing kernel metadata: %+v", ir)
	}
}

// TestBatcherFlushOnSize: with the shard pool initially withheld, queued
// requests must pack into one full batch the moment a shard appears.
func TestBatcherFlushOnSize(t *testing.T) {
	s := newTestServer(t, Config{
		Shards: 1, Channels: 4, Models: []ModelSpec{tiny},
		BatchWait: time.Hour, // only size can flush a follower batch
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sh := <-s.pool // withhold the only shard so a backlog builds
	in, _ := testInput(tiny.K, 1)
	const n = 4 // == Channels == maxBatch
	var wg sync.WaitGroup
	codes := make([]int, n)
	batches := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postInfer(t, ts, inferBody(t, "tiny", in))
			codes[i] = resp.StatusCode
			var ir InferResponse
			_ = json.Unmarshal(body, &ir)
			batches[i] = ir.BatchSize
		}(i)
	}
	// Wait until all n are admitted (batcher holds 1, queue holds n-1),
	// then release the shard.
	waitFor(t, func() bool { return s.admitted.Value() == n })
	s.pool <- sh
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if batches[i] != n {
			t.Errorf("request %d rode batch of %d, want %d (flush on size)", i, batches[i], n)
		}
	}
}

// TestBatcherFlushOnWait: a lone request must not wait for a full batch —
// BatchWait flushes it.
func TestBatcherFlushOnWait(t *testing.T) {
	s := newTestServer(t, Config{
		Shards: 1, Channels: 4, Models: []ModelSpec{tiny},
		BatchWait: 5 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in, _ := testInput(tiny.K, 2)
	start := time.Now()
	resp, body := postInfer(t, ts, inferBody(t, "tiny", in))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ir InferResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.BatchSize != 1 {
		t.Errorf("lone request rode batch of %d, want 1", ir.BatchSize)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("lone request took %v; batch wait did not flush", took)
	}
}

// TestBackpressure429: with the shard withheld and the queue full, the
// next admission must be rejected 429 with Retry-After, and every
// accepted request must still complete once the shard returns.
func TestBackpressure429(t *testing.T) {
	const depth = 3
	s := newTestServer(t, Config{
		Shards: 1, Channels: 1, Models: []ModelSpec{tiny},
		QueueDepth: depth, BatchWait: time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sh := <-s.pool
	in, _ := testInput(tiny.K, 4)

	// First request: taken by the batcher (leaves the queue), which then
	// blocks waiting for the shard.
	var wg sync.WaitGroup
	results := make(chan int, depth+1)
	send := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postInfer(t, ts, inferBody(t, "tiny", in))
			results <- resp.StatusCode
		}()
	}
	send()
	waitFor(t, func() bool { return s.queueDepth.Value() == 0 && s.admitted.Value() == 1 })
	// Fill the queue exactly.
	for i := 0; i < depth; i++ {
		send()
	}
	waitFor(t, func() bool { return s.queueDepth.Value() == depth })

	// Queue full: this one must bounce with 429 + Retry-After.
	resp, body := postInfer(t, ts, inferBody(t, "tiny", in))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	s.pool <- sh
	wg.Wait()
	close(results)
	for code := range results {
		if code != 200 {
			t.Errorf("accepted request finished %d, want 200", code)
		}
	}
}

// TestDeadline504: a request whose deadline expires while queued gets 504
// and never reaches a shard.
func TestDeadline504(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, Channels: 1, Models: []ModelSpec{tiny}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sh := <-s.pool // no shard => the request can only wait
	in, _ := testInput(tiny.K, 5)
	body := fmt.Sprintf(`{"model":"tiny","timeout_ms":50,"input":%s}`, mustJSON(in))
	resp, raw := postInfer(t, ts, body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, raw)
	}
	s.pool <- sh
	// The expired request must be discarded by the worker, not executed.
	waitFor(t, func() bool { return s.codes[504].Value() == 1 })
	time.Sleep(20 * time.Millisecond) // give a wrong execution time to happen
	if got := s.served.Value(); got != 0 {
		t.Errorf("expired request reached a shard: served=%d", got)
	}
}

func mustJSON(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestTaxonomy400: malformed, oversized and wrong-shape requests are
// client errors (400), an unknown model is a 404 — never 500s.
func TestTaxonomy400(t *testing.T) {
	s := newTestServer(t, Config{
		Shards: 1, Channels: 2, Models: []ModelSpec{tiny},
		MaxBodyBytes: 4096,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in, _ := testInput(tiny.K, 6)
	big := make([]float64, 4096)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed", `{"model": "tiny", "input": [`, 400},
		{"unknown model", inferBody(t, "nope", in), 404},
		{"wrong length", inferBody(t, "tiny", in[:5]), 400},
		{"missing input", `{"model":"tiny"}`, 400},
		{"both inputs", fmt.Sprintf(`{"model":"tiny","input":%s,"inputs":[%s]}`, mustJSON(in), mustJSON(in)), 400},
		{"oversized", inferBody(t, "tiny", big), 400},
		{"empty batch", `{"model":"tiny","inputs":[]}`, 400},
	}
	for _, c := range cases {
		resp, body := postInfer(t, ts, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, body, c.want)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body not in taxonomy form: %s", c.name, body)
		}
	}

	if resp, _ := ts.Client().Get(ts.URL + "/v1/infer"); resp.StatusCode != 405 {
		t.Errorf("GET /v1/infer: status %d, want 405", resp.StatusCode)
	}
}

// TestBatchedInfer: the inputs form sends several vectors in one HTTP
// request; each gets its own output, verified against the oracle.
func TestBatchedInfer(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, Channels: 4, Models: []ModelSpec{tiny}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	W := tiny.Weights()
	var ins [][]float64
	var wants []fp16.Vector
	for i := 0; i < 3; i++ {
		in, x16 := testInput(tiny.K, int64(10+i))
		ins = append(ins, in)
		wants = append(wants, blas.RefGemvPIMOrder(W, tiny.M, tiny.K, x16, 8))
	}
	resp, body := postInfer(t, ts, fmt.Sprintf(`{"model":"tiny","inputs":%s}`, mustJSON(ins)))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ir InferResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if len(ir.Outputs) != 3 {
		t.Fatalf("%d outputs, want 3", len(ir.Outputs))
	}
	for i := range ins {
		if !slices.Equal(toF16(ir.Outputs[i]), wants[i]) {
			t.Errorf("batched output %d mismatch", i)
		}
	}
}

// TestHealthAndMetrics: endpoint smoke + draining flips healthz to 503.
func TestHealthAndMetrics(t *testing.T) {
	s, err := New(Config{Shards: 1, Channels: 2, Models: []ModelSpec{tiny}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, _ := ts.Client().Get(ts.URL + "/healthz"); resp.StatusCode != 200 {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
	in, _ := testInput(tiny.K, 7)
	if resp, _ := postInfer(t, ts, inferBody(t, "tiny", in)); resp.StatusCode != 200 {
		t.Fatalf("infer: %d", resp.StatusCode)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"serve_admitted_total", "serve_batch_size", "serve_queue_depth"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Counter("serve_admitted_total") != 1 {
		t.Errorf("metrics.json admitted = %d, want 1", snap.Counter("serve_admitted_total"))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if resp, _ := ts.Client().Get(ts.URL + "/healthz"); resp.StatusCode != 503 {
		t.Errorf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	if resp, _ := postInfer(t, ts, inferBody(t, "tiny", in)); resp.StatusCode != 503 {
		t.Errorf("infer while draining: %d, want 503", resp.StatusCode)
	}
}

// TestGracefulShutdownZeroDrop: Close during a burst must drain every
// accepted request to a 200; late arrivals get 503; nothing hangs, and
// accepted == completed exactly.
func TestGracefulShutdownZeroDrop(t *testing.T) {
	s, err := New(Config{
		Shards: 2, Channels: 2, Models: []ModelSpec{tiny},
		QueueDepth: 64, BatchWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in, _ := testInput(tiny.K, 8)
	const n = 32
	var wg sync.WaitGroup
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postInfer(t, ts, inferBody(t, "tiny", in))
			codes <- resp.StatusCode
		}()
	}
	// Close mid-burst.
	waitFor(t, func() bool { return s.admitted.Value() >= 4 })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	close(codes)

	var ok, drainRejected int
	for code := range codes {
		switch code {
		case 200:
			ok++
		case 503:
			drainRejected++
		default:
			t.Errorf("unexpected status %d during shutdown", code)
		}
	}
	if ok+drainRejected != n {
		t.Errorf("responses: %d ok + %d draining != %d sent", ok, drainRejected, n)
	}
	// The zero-drop contract: everything admitted was served.
	if adm, srv := s.admitted.Value(), s.served.Value(); adm != srv {
		t.Errorf("admitted %d but served %d: dropped accepted requests", adm, srv)
	}
	if int64(ok) != s.served.Value() {
		t.Errorf("%d clients saw 200 but server served %d", ok, s.served.Value())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in 5s")
}
