package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pimsim/internal/models"
)

// FuzzInferBody posts arbitrary bodies to /v1/infer on one in-process
// server that holds a tiny GEMV model and a tiny sequence model. Whatever
// the body: nothing panics, the status is one of the taxonomy's, a 200
// decodes as an InferResponse and anything else as an ErrorResponse that
// names its own status, and the admission queue drains back to empty.
func FuzzInferBody(f *testing.F) {
	in, _ := testInput(tiny.K, 3)
	_, frames := seqFrames(3, 3, tinySeq.Input)
	long := make([][]float64, 17) // one frame past MaxSeqLen
	for i := range long {
		long[i] = frames[0]
	}
	eos := 2
	for _, body := range []string{
		mustJSON(InferRequest{Model: "tiny", Input: in}),
		mustJSON(InferRequest{Model: "tiny", Inputs: [][]float64{in, in, in}}),
		mustJSON(InferRequest{Model: "tinyseq", Frames: frames}),
		mustJSON(InferRequest{Model: "tinyseq", Frames: frames, EOS: &eos, Tenant: "gold", TimeoutMs: 1}),
		mustJSON(InferRequest{Model: "tiny", Input: in, Frames: frames}),
		mustJSON(InferRequest{Model: "tiny", Frames: [][]float64{in}}),
		mustJSON(InferRequest{Model: "tinyseq", Input: frames[0]}),
		mustJSON(InferRequest{Model: "tinyseq", Inputs: frames}),
		mustJSON(InferRequest{Model: "tinyseq", Frames: long}),
		mustJSON(InferRequest{Model: "tiny", Input: append(in, 1)}),
		mustJSON(InferRequest{Model: "tiny", Inputs: [][]float64{in, in[:3]}}),
		mustJSON(InferRequest{Model: "tinyseq", Frames: [][]float64{frames[0], append(frames[1], 0)}}),
		mustJSON(InferRequest{Model: "nope", Input: in}),
		fmt.Sprintf(`{"model":"tinyseq","frames":%s,"eos":-1}`, mustJSON(frames)),
		fmt.Sprintf(`{"model":"tinyseq","frames":%s,"eos":8}`, mustJSON(frames)),
		fmt.Sprintf(`{"model":"tinyseq","frames":%s,"eos":1e9}`, mustJSON(frames)),
		fmt.Sprintf(`{"model":"tiny","input":%s,"timeout_ms":-5}`, mustJSON(in)),
		fmt.Sprintf(`{"model":"tiny","input":[1e9%s]}`, strings.Repeat(",1e9", tiny.K-1)),
		`{"model":"tiny","input":[]}`,
		`{"model":"tiny","inputs":[]}`,
		`{"model":"tiny","inputs":[[]]}`,
		`{"model":"tinyseq","frames":[]}`,
		`{"model":"tinyseq","frames":[[]]}`,
		`{"model":"tiny","input":null,"inputs":null,"frames":null}`,
		`{"model":"tiny","input":[`,
		`null`,
		`[]`,
		``,
	} {
		f.Add(body)
	}

	s := newTestServer(f, Config{
		Shards: 1, Channels: 2,
		Models:       []ModelSpec{tiny},
		SeqModels:    []models.Config{tinySeq},
		MaxSeqLen:    16,
		QueueDepth:   8,
		MaxBodyBytes: 1 << 16,
		Tenants:      []TenantSpec{{Name: "gold", Weight: 3}},
	})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(body)))
		switch rec.Code {
		case 200:
			var ir InferResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil {
				t.Fatalf("200 body is not an InferResponse: %v: %q", err, rec.Body)
			}
		case 400, 404, 405, 429, 503, 504:
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Status != rec.Code || er.Error == "" {
				t.Fatalf("%d body is not an ErrorResponse with that status (%v): %q", rec.Code, err, rec.Body)
			}
		default:
			t.Fatalf("status %d outside the taxonomy: %q", rec.Code, rec.Body)
		}
		waitFor(t, func() bool { return s.queueDepth.Value() == 0 })
	})
}
