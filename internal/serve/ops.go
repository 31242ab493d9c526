package serve

// The live ops surface and the SLO control loop.
//
// GET /debug/ops is the one-stop JSON snapshot an operator (or cmd/pimtop)
// polls: what the last window of traffic looked like (windowed wall-time
// quantiles, admit rate, GEMV step sizes), shard health, step occupancy,
// and — when the server was built with Config.SLO — every evaluated
// objective's state, burn rates and budget, the recent transition log,
// and the current per-model hedge-delay targets.
//
// GET /debug/slow resolves burning objectives to evidence: for every
// series in warn or page it returns the exemplar request IDs and, when
// tracing is on, the flight-recorder span trees those IDs name. The
// chain is: SLO burns → exemplar carries X-Request-ID → /debug/slow
// returns the offending spans.
//
// sloLoop is the only writer of model.hedgeNs after boot: each tick it
// evaluates the engine and applies the controller's per-model targets,
// which dispatch() reads on every hedgeable step. Tests drive sloTick directly on
// a fake clock (EvalEvery < 0 keeps the loop off) — see slo_serve_test.go.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"pimsim/internal/obs"
	"pimsim/internal/slo"
)

// OpsWindow summarizes the sliding-window server metrics.
type OpsWindow struct {
	WidthMs      int64   `json:"width_ms"`
	Admitted     int64   `json:"admitted"`
	AdmitPerSec  float64 `json:"admit_per_sec"`
	Requests     int64   `json:"requests"`
	WallP50Us    float64 `json:"wall_p50_us"`
	WallP95Us    float64 `json:"wall_p95_us"`
	WallP99Us    float64 `json:"wall_p99_us"`
	Batches      int64   `json:"batches"`
	MeanBatch    float64 `json:"mean_batch"`
	BatchP99     float64 `json:"batch_p99"`
	OccupancyPct float64 `json:"occupancy_pct"` // mean batch / max batch
}

// OpsQueue is one model queue's instantaneous occupancy.
type OpsQueue struct {
	Model string `json:"model"`
	Depth int    `json:"depth"`
	Bound int    `json:"bound"`
}

// OpsSLO is the SLO engine's contribution to the report.
type OpsSLO struct {
	Series      []slo.SeriesStatus `json:"series"`
	Transitions []slo.Transition   `json:"transitions"`
	HedgeUs     map[string]int64   `json:"hedge_delay_us,omitempty"`
	Objectives  []slo.Objective    `json:"objectives"`
}

// OpsReport is the GET /debug/ops body.
type OpsReport struct {
	Now           time.Time  `json:"now"`
	Window        OpsWindow  `json:"window"`
	Shards        int        `json:"shards"`
	ShardsHealthy int        `json:"shards_healthy"`
	ShardStates   []string   `json:"shard_states"`
	QueueDepth    int64      `json:"queue_depth"`
	Queues        []OpsQueue `json:"queues"`
	SLO           *OpsSLO    `json:"slo,omitempty"`
}

// opsReport assembles the snapshot. Exported through /debug/ops; tests
// call it directly.
func (s *Server) opsReport() OpsReport {
	width := s.winWallUs.Width()
	wall := s.winWallUs.Snapshot(0)
	batch := s.winBatch.Snapshot(0)
	rep := OpsReport{
		Now: time.Now(),
		Window: OpsWindow{
			WidthMs:     width.Milliseconds(),
			Admitted:    s.winAdmit.Total(0),
			AdmitPerSec: s.winAdmit.Rate(0),
			Requests:    wall.Count,
			WallP50Us:   wall.Quantile(0.50),
			WallP95Us:   wall.Quantile(0.95),
			WallP99Us:   wall.Quantile(0.99),
			Batches:     batch.Count,
			BatchP99:    batch.Quantile(0.99),
		},
		Shards:        s.cfg.Shards,
		ShardsHealthy: s.HealthyShards(),
		ShardStates:   s.ShardStates(),
		QueueDepth:    s.queueDepth.Value(),
	}
	if batch.Count > 0 {
		rep.Window.MeanBatch = float64(batch.Sum) / float64(batch.Count)
		rep.Window.OccupancyPct = 100 * rep.Window.MeanBatch / float64(s.cfg.MaxBatch)
	}
	for name, m := range s.mods {
		rep.Queues = append(rep.Queues, OpsQueue{Model: name, Depth: m.q.len(), Bound: m.depth})
	}
	sort.Slice(rep.Queues, func(i, j int) bool { return rep.Queues[i].Model < rep.Queues[j].Model })
	if s.slo != nil {
		sl := &OpsSLO{
			Series:      s.slo.Status(),
			Transitions: s.slo.Transitions(),
			Objectives:  s.slo.Config().Objectives,
		}
		if ht := s.slo.HedgeTargets(); len(ht) > 0 {
			sl.HedgeUs = make(map[string]int64, len(ht))
			for name, d := range ht {
				sl.HedgeUs[name] = d.Microseconds()
			}
		}
		rep.SLO = sl
	}
	return rep
}

// handleDebugOps is GET /debug/ops. Always available — without an SLO
// config the report simply omits the slo section.
func (s *Server) handleDebugOps(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.opsReport())
}

// SlowSeries is one burning objective on GET /debug/slow: the exemplar
// request IDs and (tracing on) their span trees.
type SlowSeries struct {
	Tenant    string         `json:"tenant"`
	Model     string         `json:"model"`
	State     string         `json:"state"`
	Exemplars []slo.Exemplar `json:"exemplars"`
	Spans     []obs.Span     `json:"spans,omitempty"`
}

// handleDebugSlow is GET /debug/slow: burning objectives resolved to
// evidence. 404 when the server has no SLO engine.
func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	if s.slo == nil {
		s.fail(w, time.Now(), http.StatusNotFound, fmt.Errorf("slo engine disabled (start the server with Config.SLO)"))
		return
	}
	out := struct {
		Burning []SlowSeries `json:"burning"`
	}{Burning: []SlowSeries{}}
	for _, b := range s.slo.Burning() {
		ss := SlowSeries{Tenant: b.Tenant, Model: b.Model, State: b.State, Exemplars: b.Exemplars}
		if s.tracer != nil {
			seen := make(map[string]bool, len(b.Exemplars))
			for _, x := range b.Exemplars {
				if x.ReqID == "" || seen[x.ReqID] {
					continue
				}
				seen[x.ReqID] = true
				ss.Spans = append(ss.Spans, s.tracer.Tree(x.ReqID)...)
			}
		}
		out.Burning = append(out.Burning, ss)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// recordSLO classifies one finished /v1/infer request for the engine.
// Client errors (bad body, wrong shape, unknown model) are not SLO
// events — a 404 must not burn anyone's budget — so only 200/429/5xx
// for a model the server actually serves are recorded. The engine
// refines a slow 200 to OutcomeSlow against the matched objective.
func (s *Server) recordSLO(o *inferOutcome, wall time.Duration, id string) {
	if s.slo == nil || o.model == "" {
		return
	}
	if s.mods[o.model] == nil {
		return
	}
	var out slo.Outcome
	switch {
	case o.status == http.StatusOK:
		out = slo.OutcomeOK
	case o.status == http.StatusTooManyRequests:
		out = slo.OutcomeShed
	case o.status >= 500:
		out = slo.OutcomeError
	default:
		return
	}
	s.slo.RecordRequest(s.tenantFor(o.tenant).spec.Name, o.model, wall, out, id)
}

// sloLoop ticks the engine on its configured cadence until Close.
func (s *Server) sloLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.slo.Config().EvalEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.sloTick()
		case <-s.quit:
			return
		}
	}
}

// sloTick runs one evaluation and closes the loop: the controller's
// per-model hedge targets land in model.hedgeNs, where dispatch() picks
// them up on the next step. Transitions go to the structured log.
func (s *Server) sloTick() {
	fired := s.slo.Evaluate()
	for name, d := range s.slo.HedgeTargets() {
		if m := s.mods[name]; m != nil {
			m.hedgeNs.Store(int64(d))
		}
	}
	if s.logger != nil {
		for _, tr := range fired {
			s.logger.Warn("slo-transition",
				"tenant", tr.Tenant, "model", tr.Model,
				"from", tr.From, "to", tr.To,
				"fast_burn", tr.FastBurn, "slow_burn", tr.SlowBurn)
		}
	}
}
