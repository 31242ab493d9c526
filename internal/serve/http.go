package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"pimsim/internal/fp16"
	"pimsim/internal/obs"
)

// InferRequest is the POST /v1/infer body. Exactly one of Input (a single
// K-element vector), Inputs (a batch of them), or Frames (a sequence for
// a continuously batched sequence model) must be set. TimeoutMs can only
// tighten the server's RequestTimeout, never extend it.
type InferRequest struct {
	Model     string      `json:"model"`
	Input     []float64   `json:"input,omitempty"`
	Inputs    [][]float64 `json:"inputs,omitempty"`
	TimeoutMs int         `json:"timeout_ms,omitempty"`

	// Tenant selects the QoS lane (Config.Tenants). The X-Tenant header
	// is the fallback when this field is empty; unknown or absent names
	// land in the "default" lane.
	Tenant string `json:"tenant,omitempty"`

	// Sequence form: Frames is the ordered input-frame list; EOS, when
	// set, names the output class whose argmax retires the sequence
	// before its frames run out.
	Frames [][]float64 `json:"frames,omitempty"`
	EOS    *int        `json:"eos,omitempty"`
}

// InferResponse is the success body. Single-input requests fill the
// scalar fields; batched requests fill the per-input slices. BatchSize is
// the size of the device batch the request was packed into (other
// clients' requests included), not the request's own input count.
type InferResponse struct {
	Model   string      `json:"model"`
	Output  []float64   `json:"output,omitempty"`
	Outputs [][]float64 `json:"outputs,omitempty"`

	BatchSize    int     `json:"batch_size,omitempty"`
	Shard        int     `json:"shard,omitempty"`
	KernelCycles int64   `json:"kernel_cycles,omitempty"`
	KernelNs     float64 `json:"kernel_ns,omitempty"`
	QueueUs      int64   `json:"queue_us,omitempty"`

	BatchSizes   []int     `json:"batch_sizes,omitempty"`
	Shards       []int     `json:"shards,omitempty"`
	KernelCycled []int64   `json:"kernel_cycles_each,omitempty"`
	KernelNsEach []float64 `json:"kernel_ns_each,omitempty"`
	QueueUsEach  []int64   `json:"queue_us_each,omitempty"`

	// Sequence responses: per-step logits, executed step count (short of
	// len(frames) when EOS retired the sequence), the step index that hit
	// EOS, attributed device time, and how many times the sequence
	// migrated shards mid-flight.
	Steps        int         `json:"steps,omitempty"`
	StepOutputs  [][]float64 `json:"step_outputs,omitempty"`
	EOSStep      *int        `json:"eos_step,omitempty"`
	DeviceCycles int64       `json:"device_cycles,omitempty"`
	DeviceNs     float64     `json:"device_ns,omitempty"`
	Migrations   int         `json:"migrations,omitempty"`
}

// ErrorResponse is the body of every non-200 reply. Reason is the
// machine-readable shed taxonomy on 429/504 responses ("queue-full",
// "shed-by-priority", "deadline-expired") so load generators can assert
// the shedding order; it is empty on errors that are not sheds.
type ErrorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// Handler returns the service's HTTP mux. It is safe to serve from
// multiple listeners; all state lives in the Server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", s.handleInfer)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("/debug/trace", s.handleDebugTrace)
	mux.HandleFunc("/debug/ops", s.handleDebugOps)
	mux.HandleFunc("/debug/slow", s.handleDebugSlow)
	return mux
}

// handleDebugTrace snapshots the flight recorder as Chrome trace-event
// JSON (loadable in Perfetto directly). 404 when tracing is disabled.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		s.fail(w, time.Now(), http.StatusNotFound, fmt.Errorf("tracing disabled (start the server with a Tracer)"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteSpans(w, s.tracer.Snapshot())
}

// inferOutcome is what one /v1/infer request resolved to — the access
// log record and the root span's closing attributes.
type inferOutcome struct {
	status  int
	model   string
	tenant  string
	inputs  int   // input vectors in the HTTP request
	batch   int   // device batch size the (first) input was packed into
	shard   int   // shard the (first) input executed on
	queueUs int64 // queue wait of the first input
	err     error
}

// reqTenant resolves the request's QoS lane: the body's `tenant` field
// wins, then the X-Tenant header; empty means the default lane.
func reqTenant(req *InferRequest, r *http.Request) string {
	if req.Tenant != "" {
		return req.Tenant
	}
	return r.Header.Get("X-Tenant")
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// Every request gets an ID — with tracing off it still names the
	// request in the access log and the X-Request-ID response header.
	id := obs.NewRequestID()
	w.Header().Set("X-Request-ID", id)
	root := s.tracer.Start(id, "request")
	o := s.doInfer(w, r, start, id, root)
	wall := time.Since(start)
	s.winWallUs.Observe(wall.Microseconds())
	s.recordSLO(&o, wall, id)
	if root.Enabled() {
		root.EndWith(0, fmt.Sprintf("model=%s inputs=%d batch=%d status=%d",
			o.model, o.inputs, o.batch, o.status), o.err)
	}
	if s.logger != nil {
		attrs := []any{
			"req", id,
			"model", o.model,
			"tenant", o.tenant,
			"inputs", o.inputs,
			"batch", o.batch,
			"shard", o.shard,
			"queue_us", o.queueUs,
			"status", o.status,
			"wall_us", time.Since(start).Microseconds(),
		}
		if o.err != nil {
			attrs = append(attrs, "err", o.err.Error())
			s.logger.Warn("infer", attrs...)
		} else {
			s.logger.Info("infer", attrs...)
		}
	}
}

// doInfer runs the request through parse -> admit -> wait -> respond and
// reports the outcome. It always writes exactly one HTTP response.
func (s *Server) doInfer(w http.ResponseWriter, r *http.Request, start time.Time, id string, root obs.SpanHandle) inferOutcome {
	o := inferOutcome{status: http.StatusOK, shard: -1}
	reject := func(status int, err error) inferOutcome {
		o.status, o.err = status, err
		s.fail(w, start, status, err)
		return o
	}
	if r.Method != http.MethodPost {
		return reject(http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req InferRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		// Oversized bodies surface here as http.MaxBytesError; both
		// malformed JSON and too-large are client errors.
		return reject(http.StatusBadRequest, fmt.Errorf("bad request body: %v", err))
	}
	o.model = req.Model
	o.tenant = reqTenant(&req, r)

	// The three body forms, as requests over one vector list: `input` is
	// one request of one vector, `inputs` one such request per vector
	// (each batches on its own), `frames` one request of all T vectors.
	forms := 0
	for _, set := range []bool{req.Input != nil, req.Inputs != nil, req.Frames != nil} {
		if set {
			forms++
		}
	}
	var vecs []fp16.Vector
	per, eos := 1, -1 // vectors per request; EOS class
	switch {
	case forms > 1:
		return reject(http.StatusBadRequest, fmt.Errorf("set exactly one of input, inputs or frames"))
	case req.Frames != nil:
		if len(req.Frames) == 0 {
			return reject(http.StatusBadRequest, fmt.Errorf("empty frames"))
		}
		if req.EOS != nil {
			if eos = *req.EOS; eos < 0 {
				return reject(http.StatusBadRequest, fmt.Errorf("negative eos class"))
			}
		}
		vecs = toF16s(req.Frames)
		per = len(vecs)
	case req.Input != nil:
		vecs = []fp16.Vector{toF16(req.Input)}
	case len(req.Inputs) > 0:
		vecs = toF16s(req.Inputs)
	default:
		return reject(http.StatusBadRequest, fmt.Errorf("missing input"))
	}
	o.inputs = len(vecs)

	timeout := s.cfg.RequestTimeout
	if req.TimeoutMs > 0 {
		if d := time.Duration(req.TimeoutMs) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Admit everything first; a rejection mid-way still waits for the
	// requests already admitted (they each get a terminal response).
	reqs := make([]*request, 0, len(vecs)/per)
	rejStatus := 0
	var rejErr error
	for i := 0; i < len(vecs); i += per {
		q := &request{ctx: ctx, xs: vecs[i : i+per], frames: req.Frames != nil, eos: eos,
			enq: start, resp: make(chan response, 1), id: id, root: root}
		if rejStatus, rejErr = s.admit(req.Model, o.tenant, q); rejErr != nil {
			break
		}
		reqs = append(reqs, q)
	}

	resps := make([]response, len(reqs))
	for i, q := range reqs {
		select {
		case resps[i] = <-q.resp:
		case <-ctx.Done():
			resps[i] = response{status: http.StatusGatewayTimeout, err: ctx.Err()}
		}
	}
	if len(resps) > 0 {
		o.batch, o.shard, o.queueUs = resps[0].batch, resps[0].shard, resps[0].queueUs
	}

	if rejErr != nil {
		return reject(rejStatus, rejErr)
	}
	for _, rp := range resps {
		if rp.status != http.StatusOK {
			return reject(rp.status, rp.err)
		}
		// JSON has no Inf or NaN: an output that the input drove out of
		// FP16's finite range cannot be carried, so the request is refused
		// instead of answered 200 with a body that does not parse.
		for _, y := range rp.ys {
			for i, v := range y {
				if v.IsNaN() || v.IsInf(0) {
					return reject(http.StatusBadRequest, fmt.Errorf(
						"output element %d is %v: the input drives the model out of FP16's finite range, which JSON cannot carry", i, v))
				}
			}
		}
	}

	// A sequence reports its share of every step's device time; a GEMV
	// input the whole launch it rode and that launch's slot count.
	ns := s.shards[0].rt.Cfg.Timing.CyclesToNs
	out := InferResponse{Model: req.Model}
	rp := resps[0]
	switch {
	case req.Frames != nil:
		out.Steps = len(rp.ys)
		out.StepOutputs = toF64s(rp.ys)
		out.Output = out.StepOutputs[out.Steps-1] // final-step logits, for convenience
		out.Shard, out.QueueUs = rp.shard, rp.queueUs
		out.DeviceCycles, out.DeviceNs, out.Migrations = rp.cycles, ns(rp.cycles), rp.migrations
		if rp.eosAt >= 0 {
			out.EOSStep = &rp.eosAt
		}
	case req.Input != nil:
		out.Output = toF64(rp.ys[0])
		out.BatchSize, out.Shard = rp.batch, rp.shard
		out.KernelCycles, out.KernelNs, out.QueueUs = rp.launch, ns(rp.launch), rp.queueUs
	default:
		for _, rp := range resps {
			out.Outputs = append(out.Outputs, toF64(rp.ys[0]))
			out.BatchSizes = append(out.BatchSizes, rp.batch)
			out.Shards = append(out.Shards, rp.shard)
			out.KernelCycled = append(out.KernelCycled, rp.launch)
			out.KernelNsEach = append(out.KernelNsEach, ns(rp.launch))
			out.QueueUsEach = append(out.QueueUsEach, rp.queueUs)
		}
	}
	s.respond(w, start, http.StatusOK, out)
	return o
}

func toF16(in []float64) fp16.Vector {
	x := fp16.NewVector(len(in))
	for i, v := range in {
		x[i] = fp16.FromFloat32(float32(v))
	}
	return x
}

func toF16s(in [][]float64) []fp16.Vector {
	out := make([]fp16.Vector, len(in))
	for i, v := range in {
		out[i] = toF16(v)
	}
	return out
}

func toF64s(ys []fp16.Vector) [][]float64 {
	out := make([][]float64, len(ys))
	for i, y := range ys {
		out[i] = toF64(y)
	}
	return out
}

func toF64(y fp16.Vector) []float64 {
	out := make([]float64, len(y))
	for i, v := range y {
		out[i] = float64(v.Float32())
	}
	return out
}

// handleModels is GET /v1/models: the servable inventory — every GEMV
// and sequence model with its shape, resident footprint, and host/PIM
// placement split — plus the shard-0 PIM row budget (live, free,
// quarantined; every shard holds the same resident layouts).
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, time.Now(), http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	type modelInfo struct {
		Name          string         `json:"name"`
		Type          string         `json:"type"` // "gemv" or "sequence"
		M             int            `json:"m,omitempty"`
		K             int            `json:"k,omitempty"`
		Input         int            `json:"input,omitempty"`
		Hidden        []int          `json:"hidden,omitempty"`
		Output        int            `json:"output,omitempty"`
		Layers        int            `json:"layers,omitempty"`
		ResidentBytes int64          `json:"resident_bytes"`
		StateBytes    int            `json:"state_bytes_per_slot,omitempty"`
		Slots         int            `json:"slots,omitempty"`
		BatchWaitNs   int64          `json:"batch_wait_ns,omitempty"`
		Placement     map[string]int `json:"placement"`
	}
	list := make([]modelInfo, 0, len(s.mods))
	for name, m := range s.mods {
		p := m.plan
		info := modelInfo{
			Name: name, Type: m.kind,
			ResidentBytes: p.ResidentBytes(s.cfg.Channels),
			BatchWaitNs:   m.wait.Nanoseconds(),
			Placement:     map[string]int{"pim": p.PIMOps, "host": p.HostOps},
		}
		if m.kind == kindGEMV {
			info.M, info.K = p.Cfg.Output, p.Cfg.Input
		} else {
			info.Input, info.Hidden, info.Output = p.Cfg.Input, p.Cfg.Hidden, p.Cfg.Output
			info.Layers, info.StateBytes, info.Slots = p.Layers(), p.StateBytesPerSlot, s.cfg.Channels
		}
		list = append(list, info)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
	drv := s.shards[0].rt.Drv
	s.respond(w, time.Now(), http.StatusOK, map[string]any{
		"models": list,
		"rows": map[string]int{
			"live":        drv.PIMRowsLive(),
			"free":        drv.PIMRowsFree(),
			"quarantined": drv.PIMRowsQuarantined(),
		},
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	if draining {
		s.respond(w, time.Now(), http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	status, code := "ok", http.StatusOK
	healthy := s.HealthyShards()
	switch {
	case healthy == 0:
		// Still alive (the prober is working on revival), but serving
		// nothing: load balancers should stop sending traffic.
		status, code = "unavailable", http.StatusServiceUnavailable
	case healthy < s.cfg.Shards:
		status = "degraded"
	}
	s.respond(w, time.Now(), code, map[string]any{
		"status":         status,
		"shards":         s.cfg.Shards,
		"shards_healthy": healthy,
		"shard_states":   s.ShardStates(),
		"channels":       s.cfg.Channels,
		"max_batch":      s.cfg.MaxBatch,
		"models":         s.Models(),
		"tenants":        s.cfg.Tenants,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.Snapshot().WritePrometheus(w)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.reg.Snapshot())
}

// respond writes a JSON body and accounts the status code + wall time.
func (s *Server) respond(w http.ResponseWriter, start time.Time, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
	if c := s.codes[status]; c != nil {
		c.Inc()
	}
	s.wallUs.Observe(time.Since(start).Microseconds())
}

// fail writes the error taxonomy: 400 client errors, 404 unknown model,
// 429 backpressure (with Retry-After so well-behaved clients pace
// themselves), 503 draining, 504 deadline, 500 device faults. Shed
// responses (429/504) additionally carry the machine-readable reason:
// a *ShedError names it exactly; a 429/504 from any other path maps to
// the queue-full / deadline-expired fallback, so every shed is
// classifiable by clients.
func (s *Server) fail(w http.ResponseWriter, start time.Time, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		retry := s.cfg.BatchWait * 4
		secs := int(retry / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprint(secs))
	}
	msg := "internal error"
	if err != nil {
		msg = err.Error()
	}
	reason := ""
	var shed *ShedError
	if errors.As(err, &shed) {
		reason = shed.Reason
	} else {
		switch status {
		case http.StatusTooManyRequests:
			reason = ShedQueueFull
		case http.StatusGatewayTimeout:
			reason = ShedDeadlineExpired
		}
	}
	s.respond(w, start, status, ErrorResponse{Error: msg, Status: status, Reason: reason})
}
