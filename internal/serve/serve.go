// Package serve is the online inference layer over the simulated PIM
// system: an HTTP server that owns a pool of independent simulated
// PIM-HBM shards (one runtime.Runtime + driver.Driver each, with every
// model resident in the banks) and takes every request, of either model
// kind, down one path. Every model is one representation, an nn.Plan
// loaded as an nn.Resident on each shard: a sequence model is an LSTM
// stack, a GEMV model a plan with no LSTM layer (the output projection
// alone).
//
//	POST /v1/infer
//	  doInfer   parse the body into requests: `input` is one request of one
//	            vector, `inputs` one such request per vector, `frames` one
//	            request of T vectors (with an optional EOS class); one
//	            deadline over all of them (http.go)
//	  admit     draining? -> model lookup (404) -> shape check for the
//	            model's kind (400) -> any healthy shard? (503) -> queue
//	            bound scaled by surviving capacity -> tenant lane -> push
//	            (429 + Retry-After + shed reason on overflow)
//	  fairQueue per model: WFQ across tenants, EDF within a lane, expired
//	            requests shed at pop (504) before they reach a device (qos.go)
//	  consumer  per model, one scheduler for both kinds (seq.go): fill a
//	            step's slots, lease a shard, step the plan through launch,
//	            the one leased-shard call (injector arm ->
//	            Resident.StepSlots -> ECC fold -> health note)
//	  response  exactly one per admitted request, through the request's
//	            buffered channel; doInfer waits once and encodes
//	GET  /v1/models  the servable inventory
//	GET  /healthz    liveness + loaded-model inventory
//	GET  /metrics    Prometheus text exposition of the serving metrics
//	GET  /metrics.json  the same snapshot as JSON (metrics.Snapshot)
//
// Every model's queue has one consumer running the same step loop
// (seq.go). A request is a sequence of frames — a GEMV input a sequence
// of one — bound to a slot, one per pseudo channel, because the input
// splats ride the per-channel write datapath that all of a channel's
// execution units share. Requests join and leave between timesteps
// (continuous batching); a GEMV model's step waits up to its BatchWait
// for company, a sequence model's never waits; a step no slot outlives
// runs on a worker so the next one forms on another shard meanwhile; a
// device fault migrates the live slots' state to another shard; a
// straggling step of a plan with no recurrent state may be hedged onto
// an idle shard (Config.HedgeDelay). Close drains in-flight work without
// dropping any accepted request.
//
// Admission is multi-tenant (see qos.go and docs/SERVING.md): each model
// queue has one lane per configured tenant (request `tenant` field or
// X-Tenant header) and graduated load shedding that displaces the
// lowest-priority queued work first.
//
// Concurrency contracts a maintainer must preserve: every model queue
// has exactly one consumer goroutine — the fairQueue notify protocol
// depends on it; Tracer and Logger are nil-checked at every hook site,
// so a nil either is zero-cost; the consumers' flush timers and the
// hedge timer go through Server.newTimer
// and Server.newHedgeTimer so tests can drive flushes deterministically
// with fake timers (batchtimer_test.go) instead of sleeping; the
// engine-determinism goldens (`make race-goldens`) pin that none of this
// scheduling perturbs device results bit-for-bit.
//
// The layer is fault-tolerant: device faults (uncorrectable ECC errors,
// whole-shard outages — see internal/fault) surface as typed errors that
// classify as retryable, and the failed launch is re-run on a freshly
// leased shard with exponential backoff, up to Config.MaxRetries.
// Shards move through a health machine (healthy -> suspect -> evicted ->
// probation, see health.go) driven by launch outcomes; evicted shards are
// owned by a prober goroutine that steps a known-answer frame through
// every resident model, quarantines persistently poisoned rows
// (relocating the model to clean rows), and revives shards only after a
// fully clean probe. With
// zero healthy shards the service degrades to fast 503s and a 503
// /healthz rather than queueing without bound. The invariant all of this
// preserves: a 200 response never carries wrong data. The fault model,
// error taxonomy, and ops runbook are documented in docs/FAULTS.md.
package serve

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pimsim/internal/engine"
	"pimsim/internal/fault"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/metrics"
	"pimsim/internal/models"
	"pimsim/internal/nn"
	"pimsim/internal/obs"
	"pimsim/internal/runtime"
	"pimsim/internal/slo"
)

// ModelSpec names one servable GEMV workload: y = W*x with W an M x K
// FP16 matrix generated deterministically from Seed (the repo has no
// trained checkpoints; serving exercises the system, not the weights).
type ModelSpec struct {
	Name string `json:"name"`
	M    int    `json:"m"`
	K    int    `json:"k"`
	Seed int64  `json:"seed"`

	// BatchWait overrides Config.BatchWait for this model's admission
	// window. Models differ in arrival pattern — a hot small-output layer
	// wants a short straggler window, a cold mid-size one can afford to
	// wait for company — so the flush deadline is per-model.
	BatchWait time.Duration `json:"batch_wait_ns,omitempty"`
}

// Weights regenerates the spec's weight matrix (deterministic, so load
// generators and tests can verify served outputs bit-exactly).
func (spec ModelSpec) Weights() fp16.Vector {
	rng := rand.New(rand.NewSource(spec.Seed<<20 ^ int64(spec.M)*31 ^ int64(spec.K)))
	v := fp16.NewVector(spec.M * spec.K)
	for i := range v {
		v[i] = fp16.FromFloat32(float32(rng.NormFloat64() * 0.25))
	}
	return v
}

// DefaultModels returns the served model set: the paper's small-output
// inference layers (dimensions pulled from internal/models so they stay
// in sync with the evaluation workloads) plus one mid-size synthetic.
func DefaultModels() []ModelSpec {
	var specs []ModelSpec
	if l, ok := findLayer(models.RNNT(), "joint_fc2"); ok {
		specs = append(specs, ModelSpec{Name: "rnnt-joint2", M: l.M, K: l.K, Seed: 1})
	}
	if l, ok := findLayer(models.DS2(), "fc_out"); ok {
		specs = append(specs, ModelSpec{Name: "ds2-fc", M: l.M, K: l.K, Seed: 2})
	}
	specs = append(specs, ModelSpec{Name: "micro-256x256", M: 256, K: 256, Seed: 3})
	return specs
}

func findLayer(m models.Model, name string) (models.Layer, bool) {
	for _, l := range m.Layers {
		if l.Name == name {
			return l, true
		}
	}
	return models.Layer{}, false
}

// Config sizes the server. Zero values take the documented defaults.
type Config struct {
	Shards   int // independent simulated PIM devices (default 2)
	Channels int // pseudo channels per shard (default 4)
	MHz      int // memory clock (default 1200, the paper's part)

	// Engine selects how each shard's runtime drives its pseudo
	// channels: "parallel" (default; worker-per-pCH goroutine pool) or
	// "serial" (sequential oracle — bit-for-bit identical results,
	// lower throughput).
	Engine string

	Models []ModelSpec // preloaded on every shard (default DefaultModels)

	// SeqModels are sequence (LSTM-stack) models compiled through
	// internal/nn and served with continuous batching: requests join and
	// leave a running step loop between timesteps instead of flushing as
	// fixed-size batches. Default none; models.ServingConfigs() has the
	// serving-scale DS2/RNN-T/GNMT stacks.
	SeqModels []models.Config

	// MaxSeqLen bounds frames per sequence request (default 256).
	MaxSeqLen int

	// MaxBatch bounds the requests one device step carries — GEMV inputs
	// or concurrently running sequences — clamped to Channels (default
	// Channels). MaxBatch=1 is sequential per-request execution, the
	// baseline of both batching A/Bs.
	MaxBatch       int
	BatchWait      time.Duration // a GEMV step's admission window (default 2ms; ModelSpec.BatchWait overrides per model)
	QueueDepth     int           // per-model admission queue (default 64)
	RequestTimeout time.Duration // deadline incl. queueing (default 2s)
	MaxBodyBytes   int64         // request body cap (default 8 MiB)

	// Tenants declares the multi-tenant QoS lanes (see qos.go): per-tenant
	// weighted fair queueing with graduated, priority-ordered shedding.
	// Empty means one "default" tenant; a "default" entry is appended if
	// missing, and requests naming an unknown tenant land there.
	Tenants []TenantSpec

	// HedgeDelay arms hedged re-dispatch: a step of a plan with no
	// recurrent state (a GEMV model's) still running after this long is
	// duplicated onto an idle shard (if one is free) and the first result
	// wins — the deterministic kernels make the duplicate bit-identical,
	// so hedging only cuts tail latency, never changes answers. 0
	// (default) disables hedging.
	HedgeDelay time.Duration

	// Fault tolerance. ECC turns on every shard's on-die SEC-DED engine;
	// Fault attaches a deterministic injector (specialized per shard via
	// fault.Config.ForShard — profiles that corrupt data force ECC on, or
	// served outputs would silently rot). See docs/FAULTS.md.
	ECC   bool
	Fault *fault.Config

	// MaxRetries bounds how many times a step that failed with a
	// retryable device error (hbm.UncorrectableError, fault.ShardDeadError)
	// is re-run on another shard (default 3; negative disables).
	// RetryBackoff is the base of the exponential inter-attempt sleep
	// (default 1ms, jittered); RetryLeaseWait bounds the wait for a
	// replacement shard per retry (default 250ms, then the step fails 503).
	MaxRetries     int
	RetryBackoff   time.Duration
	RetryLeaseWait time.Duration

	// EvictAfter is the consecutive-batch-failure count that evicts a
	// shard into probation (default 2). ProbeInterval paces the prober's
	// known-answer re-probes of evicted shards (default 20ms).
	// SuspectCycleFactor marks a shard suspect when a batch kernel runs
	// that multiple over the model's best observed cycles (default 3).
	EvictAfter         int
	ProbeInterval      time.Duration
	SuspectCycleFactor float64

	// Observability. Tracer hooks the flight recorder into the whole
	// pipeline: a root span per request (ID returned in X-Request-ID),
	// queue/exec children, re-dispatch and driver-allocator events. Nil
	// disables tracing at the cost of one pointer compare per hook site.
	// Logger receives one structured access-log record per /v1/infer
	// request; nil disables access logging.
	Tracer *obs.Tracer
	Logger *slog.Logger

	// SLO arms the objective engine (internal/slo): per-tenant×model
	// burn-rate evaluation over sliding windows, exemplars on
	// /debug/slow, and — when SLO.Hedge is set — the closed control loop
	// that retargets each model's hedge delay from its observed windowed
	// p99 instead of the static HedgeDelay. Nil disables the engine; the
	// hooks then cost one pointer compare per request (see internal/slo's
	// nil-receiver discipline) and hedge delays stay at HedgeDelay
	// forever.
	SLO *slo.Config
}

func (c *Config) applyDefaults() {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.Channels <= 0 {
		c.Channels = 4
	}
	if c.MHz <= 0 {
		c.MHz = 1200
	}
	if c.Engine == "" {
		c.Engine = "parallel"
	}
	if c.Models == nil {
		c.Models = DefaultModels()
	}
	if c.MaxBatch <= 0 || c.MaxBatch > c.Channels {
		c.MaxBatch = c.Channels
	}
	if c.BatchWait <= 0 {
		c.BatchWait = 2 * time.Millisecond
	}
	if c.MaxSeqLen <= 0 {
		c.MaxSeqLen = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Fault != nil && !c.Fault.Enabled() {
		c.Fault = nil
	}
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = 3
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = time.Millisecond
	}
	if c.RetryLeaseWait <= 0 {
		c.RetryLeaseWait = 250 * time.Millisecond
	}
	if c.EvictAfter <= 0 {
		c.EvictAfter = 2
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 20 * time.Millisecond
	}
	if c.SuspectCycleFactor <= 0 {
		c.SuspectCycleFactor = 3
	}
}

// shard is one independent simulated PIM device with every model
// resident. A shard is leased to at most one worker at a time (the pool
// channel is the lease), so its Runtime never sees concurrent kernels.
// Health fields are guarded by Server.hmu (see health.go); the ECC
// watermarks belong to whoever holds the lease.
type shard struct {
	id     int
	rt     *runtime.Runtime
	models map[string]*nn.Resident // every served model, resident on this shard
	inj    *fault.Injector         // nil unless the server was built with a fault profile

	state       healthState
	consecFails int
	okStreak    int
	lastErr     error

	// Uncorrectable-row confirmation, owned by the prober: a row is only
	// quarantined once two consecutive probes blame it (a transient
	// double-bit upset names a random row once; a stuck cell names the
	// same row every time).
	ueRow  uint32
	ueSeen bool

	eccCorr, eccUncorr int64 // cumulative device counts already folded into metrics
}

// model is one served workload with its admission queue. Every model is
// an nn.Plan: a GEMV model is a zero-layer plan, y = W*x as the output
// projection alone; a sequence model is an LSTM stack. The kind selects
// the body form at admission, the metric series and the admission
// window's wait, nothing else.
type model struct {
	name   string
	kind   string      // kindGEMV or kindSequence
	plan   *nn.Plan    // immutable, shared by every shard's Resident and the prober
	series *kindSeries // the kind's metric series

	q        *fairQueue    // WFQ admission queue (qos.go)
	depth    int           // configured queue bound (pre-capacity-scaling)
	maxBatch int           // requests per device step (Config.MaxBatch)
	wait     time.Duration // admission window (spec override or Config.BatchWait; 0 for a sequence model)

	// The known-answer probe the prober replays on evicted shards: a fixed
	// frame and the plan's host-oracle logits for it, computed by the
	// prober on its first probe of the model (see knownAnswer).
	probeX fp16.Vector
	probeY fp16.Vector

	// minCycles is the best per-launch kernel cycle count observed: the
	// latency baseline that SuspectCycleFactor multiplies.
	minCycles atomic.Int64

	// hedgeNs is the live hedge delay for the model's steps, seeded from
	// Config.HedgeDelay and retargeted by the SLO engine's hedge
	// controller when Config.SLO.Hedge is armed. Read by dispatch on every
	// step of a plan with no recurrent state; <= 0 disables hedging.
	hedgeNs atomic.Int64
}

// The two model kinds, as GET /v1/models names them.
const (
	kindGEMV     = "gemv"
	kindSequence = "sequence"
)

// kindSeries are the metric series a model's steps feed, bound once per
// kind in New: a GEMV model's steps count as batches, a sequence model's
// as steps. done is nil for a GEMV model. Both kinds' steps also feed the
// server's windowed batch occupancy (serve_window_batch_size).
type kindSeries struct {
	admitted *metrics.Counter   // serve_admitted_total | serve_seq_admitted_total
	steps    *metrics.Counter   // serve_batches_total | serve_seq_steps_total
	slots    *metrics.Histogram // serve_batch_size | serve_seq_occupancy
	cycles   *metrics.Histogram // serve_kernel_cycles | serve_seq_step_cycles
	done     *metrics.Counter   // - | serve_seq_completed_total
	moved    *metrics.Counter   // serve_redispatch_requests_total | serve_seq_migrations_total
	retry    string             // trace event of a re-run step: redispatch | migrate
}

// request is one admitted unit of work on its way to a shard: a GEMV
// input is a request of one vector, a sequence a request of T frames.
type request struct {
	ctx    context.Context
	xs     []fp16.Vector
	frames bool // posted as `frames`: must name a sequence model
	eos    int  // class whose argmax retires a sequence early; -1 disables
	ten    *tenant
	enq    time.Time
	resp   chan response // buffered; the pipeline never blocks on a reply

	// Tracing context (zero valued when tracing is off): the request ID,
	// the HTTP root span the pipeline hangs children off, and the open
	// queue span the consumer ends when it pops the request.
	id    string
	root  obs.SpanHandle
	qspan obs.SpanHandle
}

// response is the terminal outcome of one request. Exactly one response
// is delivered for every admitted request — the zero-drop contract.
type response struct {
	ys         []fp16.Vector // the output of each executed step: y, or the logits of each step
	err        error
	status     int
	batch      int   // slots in the request's last step (other clients' requests included)
	launch     int64 // device cycles of the request's last step, all slots
	shard      int   // shard that answered
	cycles     int64 // the request's share of every step it rode (launch / batch, summed)
	queueUs    int64
	migrations int // shard migrations mid-flight
	eosAt      int // step index that hit EOS, -1 otherwise
}

// Server is the inference service.
type Server struct {
	cfg     Config
	mods    map[string]*model // every served model, both kinds
	tenants map[string]*tenant
	shards  []*shard
	pool    chan *shard

	mu       sync.RWMutex // guards draining vs. admit/close(queue)
	draining bool

	wg sync.WaitGroup // consumers, in-flight step workers, hedge reapers, prober

	hmu     sync.Mutex   // guards shard health fields + healthy transitions
	healthy atomic.Int64 // shards not currently evicted
	probeq  chan *shard  // evicted shards en route to the prober
	quit    chan struct{}

	reg          *metrics.Registry
	admitted     *metrics.Counter
	served       *metrics.Counter
	batches      *metrics.Counter
	deviceCycles *metrics.Counter
	queueDepth   *metrics.Gauge
	queueWait    *metrics.Histogram
	wallUs       *metrics.Histogram
	codes        map[int]*metrics.Counter

	retries      *metrics.Counter // re-run step attempts, both kinds
	redispatched *metrics.Counter // GEMV requests carried by those attempts
	hedges       *metrics.Counter // hedged duplicate dispatches launched
	hedgeWins    *metrics.Counter // batches answered by the hedge, not the primary
	shedTotal    *metrics.Counter // requests shed by the QoS layer (any reason)
	evictions    *metrics.Counter
	revivals     *metrics.Counter
	suspects     *metrics.Counter // healthy -> suspect demotions
	probes       *metrics.Counter // probation probes run
	healthyG     *metrics.Gauge
	quarantinedG *metrics.Gauge // PIM rows retired across all shards
	eccCorrC     *metrics.Counter
	eccUncorrC   *metrics.Counter
	stateG       []*metrics.Gauge // per-shard health state (healthState value)

	// Continuous-batching metrics (see seq.go).
	seqAdmitted   *metrics.Counter // sequences accepted into a queue
	seqCompleted  *metrics.Counter // sequences answered 200
	seqSteps      *metrics.Counter // device timesteps executed
	seqMigrations *metrics.Counter // sequence-slot migrations off faulted shards
	seqEOS        *metrics.Counter // sequences retired early by EOS

	// Sliding-window server metrics: what the last minute looked like,
	// feeding /debug/ops and the SLO engine-independent parts of pimtop.
	winWallUs *metrics.WindowHistogram // request wall time, all /v1/infer
	winBatch  *metrics.WindowHistogram // device batch sizes formed
	winAdmit  *metrics.WindowCounter   // admissions (gemv + sequence)

	slo *slo.Engine // nil = SLO engine disabled (hooks are no-ops)

	tracer *obs.Tracer  // nil = tracing disabled
	logger *slog.Logger // nil = access logging disabled

	// newTimer builds the consumers' straggler-flush timers. Tests swap in
	// a hand-driven implementation to exercise flush timing without
	// sleeping; production always uses the time.Timer wrapper.
	// newHedgeTimer does the same for the hedged-dispatch delay, kept
	// separate so flush-timer tests never see hedge timers.
	newTimer      func(d time.Duration) batchTimer
	newHedgeTimer func(d time.Duration) batchTimer
}

// New compiles every model into a plan, boots the shard pool, loads every
// plan on every shard, and starts one consumer per model.
func New(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	tenants, err := normalizeTenants(cfg.Tenants)
	if err != nil {
		return nil, err
	}
	cfg.Tenants = tenants
	s := &Server{
		cfg:           cfg,
		mods:          make(map[string]*model, len(cfg.Models)),
		tenants:       make(map[string]*tenant, len(tenants)),
		pool:          make(chan *shard, cfg.Shards),
		probeq:        make(chan *shard, cfg.Shards),
		quit:          make(chan struct{}),
		reg:           metrics.New(),
		newTimer:      newRealTimer,
		newHedgeTimer: newRealTimer,
	}
	s.admitted = s.reg.Counter("serve_admitted_total")
	s.served = s.reg.Counter("serve_served_total")
	s.batches = s.reg.Counter("serve_batches_total")
	s.deviceCycles = s.reg.Counter("serve_device_busy_cycles_total")
	s.queueDepth = s.reg.Gauge("serve_queue_depth")
	s.queueWait = s.reg.Histogram("serve_queue_wait_us", metrics.ExpBuckets(1, 2, 24))
	s.wallUs = s.reg.Histogram("serve_request_wall_us", metrics.ExpBuckets(1, 2, 26))
	s.codes = make(map[int]*metrics.Counter)
	for _, code := range []int{200, 400, 404, 405, 429, 500, 503, 504} {
		s.codes[code] = s.reg.Counter(fmt.Sprintf("serve_responses_total{code=%q}", fmt.Sprint(code)))
	}
	s.retries = s.reg.Counter("serve_retries_total")
	s.redispatched = s.reg.Counter("serve_redispatch_requests_total")
	s.hedges = s.reg.Counter("serve_hedges_total")
	s.hedgeWins = s.reg.Counter("serve_hedge_wins_total")
	s.shedTotal = s.reg.Counter("serve_shed_total")
	s.evictions = s.reg.Counter("serve_shard_evictions_total")
	s.revivals = s.reg.Counter("serve_shard_revivals_total")
	s.suspects = s.reg.Counter("serve_shard_suspect_total")
	s.probes = s.reg.Counter("serve_probes_total")
	s.healthyG = s.reg.Gauge("serve_shards_healthy")
	s.quarantinedG = s.reg.Gauge("serve_rows_quarantined")
	s.eccCorrC = s.reg.Counter("serve_ecc_corrected_total")
	s.eccUncorrC = s.reg.Counter("serve_ecc_uncorrectable_total")
	s.seqAdmitted = s.reg.Counter("serve_seq_admitted_total")
	s.seqCompleted = s.reg.Counter("serve_seq_completed_total")
	s.seqSteps = s.reg.Counter("serve_seq_steps_total")
	s.seqMigrations = s.reg.Counter("serve_seq_migrations_total")
	s.seqEOS = s.reg.Counter("serve_seq_eos_total")
	// Sliding-window views of the pipeline (default 60s of 2s slots):
	// the "last minute" the ops surface and pimtop summarize, alongside
	// the cumulative series above.
	s.winWallUs = s.reg.WindowHistogram("serve_window_request_wall_us", metrics.ExpBuckets(1, 2, 26), metrics.WindowOpts{})
	s.winBatch = s.reg.WindowHistogram("serve_window_batch_size", linearBuckets(1, cfg.Channels), metrics.WindowOpts{})
	s.winAdmit = s.reg.WindowCounter("serve_window_admitted", metrics.WindowOpts{})
	s.reg.SetHelp("serve_window_request_wall_us", "request wall time over the sliding window (us)")
	s.reg.SetHelp("serve_window_batch_size", "device batch sizes formed over the sliding window")
	s.reg.SetHelp("serve_window_admitted", "requests admitted over the sliding window")
	gemv := &kindSeries{admitted: s.admitted, steps: s.batches,
		slots:  s.reg.Histogram("serve_batch_size", linearBuckets(1, cfg.Channels)),
		cycles: s.reg.Histogram("serve_kernel_cycles", metrics.ExpBuckets(64, 2, 24)),
		moved:  s.redispatched, retry: "redispatch"}
	seq := &kindSeries{admitted: s.seqAdmitted, steps: s.seqSteps,
		slots:  s.reg.Histogram("serve_seq_occupancy", linearBuckets(1, cfg.Channels)),
		cycles: s.reg.Histogram("serve_seq_step_cycles", metrics.ExpBuckets(64, 2, 26)),
		done:   s.seqCompleted, moved: s.seqMigrations, retry: "migrate"}
	s.tracer = cfg.Tracer
	s.logger = cfg.Logger
	if cfg.SLO != nil {
		sc := *cfg.SLO
		if sc.Hedge != nil {
			// Seed the controller from the static delay so the first
			// batches hedge like the operator asked, then track p99.
			h := *sc.Hedge
			if h.Initial <= 0 {
				h.Initial = cfg.HedgeDelay
			}
			sc.Hedge = &h
		}
		s.slo = slo.New(sc, s.reg)
	}
	// Per-shard health-state gauges: 0 healthy, 1 suspect, 2 evicted (an
	// evicted shard is in probation — the prober owns it).
	s.stateG = make([]*metrics.Gauge, cfg.Shards)
	for i := range s.stateG {
		s.stateG[i] = s.reg.Gauge(fmt.Sprintf("serve_shard_state{shard=%q}", fmt.Sprint(i)))
	}

	// Tenants: one lane per spec in every model queue, with per-tenant
	// admission/service/shed metrics (labels ride in the metric name, the
	// same idiom as serve_shard_state above).
	for _, sp := range cfg.Tenants {
		t := &tenant{
			spec:      sp,
			admitted:  s.reg.Counter(fmt.Sprintf("serve_tenant_admitted_total{tenant=%q}", sp.Name)),
			served:    s.reg.Counter(fmt.Sprintf("serve_tenant_served_total{tenant=%q}", sp.Name)),
			queueWait: s.reg.Histogram(fmt.Sprintf("serve_tenant_queue_wait_us{tenant=%q}", sp.Name), metrics.ExpBuckets(1, 2, 24)),
			shed:      make(map[string]*metrics.Counter, 3),
		}
		for _, reason := range ShedReasons() {
			t.shed[reason] = s.reg.Counter(fmt.Sprintf("serve_tenant_shed_total{tenant=%q,reason=%q}", sp.Name, reason))
		}
		s.tenants[sp.Name] = t
	}

	// One table and one representation for both kinds: a name is served
	// once, and every model is a compiled nn.Plan (immutable, shared by
	// every shard's Resident and by the prober's host oracle).
	add := func(m *model, w *nn.Weights) (err error) {
		if _, dup := s.mods[m.name]; dup {
			return fmt.Errorf("serve: duplicate model %q", m.name)
		}
		if m.plan, err = nn.Compile(w); err != nil {
			return fmt.Errorf("serve: model %q: %w", m.name, err)
		}
		m.q = newFairQueue(s.tenants, cfg.QueueDepth, s.shed)
		m.depth, m.maxBatch = cfg.QueueDepth, cfg.MaxBatch
		m.hedgeNs.Store(int64(cfg.HedgeDelay))
		s.mods[m.name] = m
		return nil
	}
	for _, spec := range cfg.Models {
		if spec.Name == "" || spec.M <= 0 || spec.K <= 0 {
			return nil, fmt.Errorf("serve: invalid model spec %+v", spec)
		}
		wait := spec.BatchWait
		if wait <= 0 {
			wait = cfg.BatchWait
		}
		// A GEMV is a plan with no LSTM layer: the output projection alone.
		w := &nn.Weights{
			Cfg:  models.Config{Name: spec.Name, Input: spec.K, Output: spec.M, Seed: spec.Seed},
			WOut: spec.Weights(),
		}
		if err := add(&model{name: spec.Name, kind: kindGEMV, series: gemv, wait: wait}, w); err != nil {
			return nil, err
		}
	}
	for _, mc := range cfg.SeqModels {
		w, err := nn.GenWeights(mc)
		if err != nil {
			return nil, fmt.Errorf("serve: sequence model %q: %w", mc.Name, err)
		}
		if err := add(&model{name: mc.Name, kind: kindSequence, series: seq}, w); err != nil {
			return nil, err
		}
	}

	for i := 0; i < cfg.Shards; i++ {
		var fc fault.Config
		if cfg.Fault != nil {
			fc = cfg.Fault.ForShard(i)
		}
		hcfg := hbm.PIMHBMConfig(cfg.MHz)
		hcfg.PseudoChannels = cfg.Channels
		hcfg.Functional = true
		// Data-corrupting profiles force ECC: without it flips would
		// silently rot served outputs instead of being corrected/detected.
		hcfg.ECC = cfg.ECC || fc.CorruptsData()
		rt, devs, err := runtime.NewStack(hcfg, 1)
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		eng, err := engine.New(cfg.Engine, cfg.Channels)
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		rt.UseEngine(eng)
		if cfg.Tracer != nil {
			rt.Drv.Obs = cfg.Tracer
			rt.Drv.ObsName = fmt.Sprintf("shard%d", i)
		}
		sh := &shard{id: i, rt: rt, models: make(map[string]*nn.Resident, len(s.mods))}
		if cfg.Fault != nil {
			sh.inj = fault.New(fc)
			if fc.CorruptsData() {
				devs[0].AttachFault(sh.inj)
			}
			if fc.Delays() {
				for _, ch := range rt.Chans {
					ch.Delay = sh.inj
				}
			}
		}
		for name, m := range s.mods {
			if sh.models[name], err = nn.Load(rt, m.plan); err != nil {
				return nil, fmt.Errorf("serve: shard %d: load %s: %w", i, name, err)
			}
		}
		s.shards = append(s.shards, sh)
		s.pool <- sh
	}
	s.healthy.Store(int64(cfg.Shards))
	s.healthyG.Set(int64(cfg.Shards))

	if cfg.Fault != nil {
		s.reg.RegisterCollector(s.collectInjectors)
	}

	for _, m := range s.mods {
		s.wg.Add(1)
		go s.consumer(m)
	}
	s.wg.Add(1)
	go s.prober()
	if s.slo != nil && s.slo.Config().EvalEvery > 0 {
		s.wg.Add(1)
		go s.sloLoop()
	}
	return s, nil
}

// collectInjectors bridges the per-shard fault injector counters into
// metric snapshots (injector counters are atomics, safe any time).
func (s *Server) collectInjectors(emit func(name string, value int64)) {
	var t fault.Counters
	for _, sh := range s.shards {
		c := sh.inj.Counters()
		t.BitFlips += c.BitFlips
		t.DoubleFlips += c.DoubleFlips
		t.StuckReads += c.StuckReads
		t.Spikes += c.Spikes
		t.DeadBatches += c.DeadBatches
		t.DeadProbes += c.DeadProbes
	}
	emit("fault_bit_flips_total", t.BitFlips)
	emit("fault_double_flips_total", t.DoubleFlips)
	emit("fault_stuck_reads_total", t.StuckReads)
	emit("fault_latency_spikes_total", t.Spikes)
	emit("fault_dead_batches_total", t.DeadBatches)
	emit("fault_dead_probes_total", t.DeadProbes)
}

func linearBuckets(start, n int) []int64 {
	out := make([]int64, 0, n)
	for v := start; v < start+n; v++ {
		out = append(out, int64(v))
	}
	return out
}

// Metrics returns the serving registry (counters, queue gauge, latency
// and batch-size histograms). Shard-internal device metrics are not
// merged here: their collectors require quiescent hardware state, which
// only the worker holding a shard lease can guarantee.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Models returns the served GEMV specs; GET /v1/models lists both kinds.
func (s *Server) Models() []ModelSpec { return append([]ModelSpec(nil), s.cfg.Models...) }

// admit pushes one request into its model's fair queue. On rejection it
// returns the HTTP status the caller should surface (400/404/429/503;
// 429s carry a *ShedError with the machine-readable reason). An admitted
// request carries an open queue span that the consumer ends when it pops
// the request, and is owed exactly one response on req.resp.
func (s *Server) admit(name, tenantName string, req *request) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return http.StatusServiceUnavailable, fmt.Errorf("server draining")
	}
	// A name the server has never heard of is a 404 — the resource does
	// not exist; a wrong request *shape* for a loaded model stays a 400.
	// GET /v1/models lists what is servable.
	m := s.mods[name]
	if m == nil {
		return http.StatusNotFound, fmt.Errorf("unknown model %q", name)
	}
	if err := m.checkShape(req, s.cfg.MaxSeqLen); err != nil {
		return http.StatusBadRequest, err
	}
	// Capacity-aware degradation: with every shard evicted there is no
	// device to run on — fail fast (503) instead of queueing work that
	// can only time out. With some shards evicted, shrink the effective
	// queue bound proportionally so backpressure (429 + Retry-After)
	// arrives before the queue outgrows the surviving capacity.
	healthy := int(s.healthy.Load())
	if healthy <= 0 {
		return http.StatusServiceUnavailable, fmt.Errorf("no healthy shards (probation probes running)")
	}
	depth := m.depth
	if healthy < s.cfg.Shards {
		if depth = depth * healthy / s.cfg.Shards; depth < 1 {
			depth = 1
		}
	}
	ten := s.tenantFor(tenantName)
	req.ten = ten
	// The queue span must exist before the push: the consumer may pop the
	// request (and end the span) the moment it lands in the queue. On
	// the rejection path below the unstarted span is simply never
	// recorded — handles only reach the ring when ended.
	req.qspan = req.root.Child("queue")
	if ok, reason := m.q.push(req, ten, depth); !ok {
		ten.shed[reason].Inc()
		s.shedTotal.Inc()
		return http.StatusTooManyRequests, &ShedError{
			Reason: reason,
			Detail: fmt.Sprintf("model %s admission queue full for tenant %s (%d deep, %d/%d shards healthy)",
				name, ten.spec.Name, depth, healthy, s.cfg.Shards),
		}
	}
	m.series.admitted.Inc()
	ten.admitted.Inc()
	s.queueDepth.Add(1)
	s.winAdmit.Inc()
	return http.StatusOK, nil
}

// checkShape is admission's shape check: the body form must match the
// model's kind (frames for a sequence model, input or inputs for a GEMV)
// and every vector the plan's input width.
func (m *model) checkShape(req *request, maxSeqLen int) error {
	if req.frames != (m.kind == kindSequence) {
		if req.frames {
			return fmt.Errorf("model %q is a gemv model: post input, not frames", m.name)
		}
		return fmt.Errorf("model %q is a sequence model: post frames, not input", m.name)
	}
	if len(req.xs) > maxSeqLen {
		return fmt.Errorf("sequence of %d frames exceeds the %d-frame cap", len(req.xs), maxSeqLen)
	}
	cfg := m.plan.Cfg
	for t, x := range req.xs {
		if len(x) != cfg.Input {
			return fmt.Errorf("model %s takes %d-element vectors, vector %d has %d", m.name, cfg.Input, t, len(x))
		}
	}
	if req.eos >= cfg.Output {
		return fmt.Errorf("eos class %d out of range (model %s has %d outputs)", req.eos, m.name, cfg.Output)
	}
	return nil
}

// take pops the model's next request — blocking when wait is set, until
// the queue is closed and drained — and closes its queue accounting.
func (s *Server) take(m *model, wait bool) (*request, bool) {
	pop := m.q.tryPop
	if wait {
		pop = m.q.popWait
	}
	r, ok := pop()
	if ok {
		s.queueDepth.Add(-1)
		r.qspan.End()
	}
	return r, ok
}

// shed is the fair queue's shed callback: it delivers the terminal shed
// response (429 for priority displacement, 504 for an expired deadline)
// and keeps the queue accounting honest. Runs outside the queue lock; the
// buffered resp channel never blocks.
func (s *Server) shed(r *request, reason string) {
	s.queueDepth.Add(-1)
	r.qspan.End()
	if reason == ShedDeadlineExpired {
		s.expire(r)
		return
	}
	r.ten.shed[reason].Inc()
	s.shedTotal.Inc()
	r.resp <- response{status: http.StatusTooManyRequests, err: &ShedError{Reason: reason,
		Detail: fmt.Sprintf("request shed from queue: %s", reason)}}
}

// expire answers a request whose deadline passed before it reached a
// device: 504, counted as a deadline-expired shed.
func (s *Server) expire(r *request) {
	r.ten.shed[ShedDeadlineExpired].Inc()
	s.shedTotal.Inc()
	r.resp <- response{status: http.StatusGatewayTimeout,
		err: &ShedError{Reason: ShedDeadlineExpired, Detail: r.ctx.Err().Error()}}
}

// Close stops admission and drains: every already-accepted request still
// gets a terminal response before Close returns. ctx bounds the wait.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	for _, m := range s.mods {
		m.q.close()
	}
	s.mu.Unlock()
	// Wakes the prober and lets consumers blocked on an empty pool give
	// their steps a terminal 503 instead of waiting for a revival that
	// may never come (see lease).
	close(s.quit)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Every consumer and step worker has returned, so no kernel can
		// be mid-run: the engine worker pools are idle and safe to tear
		// down.
		for _, sh := range s.shards {
			sh.rt.CloseEngine()
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
}
