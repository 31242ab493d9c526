package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"pimsim/internal/blas"
	"pimsim/internal/fp16"
	"pimsim/internal/metrics"
)

// The QoS scenario matrix: four canned multi-tenant workloads, each with
// pinned assertions, that together prove the admission-control story —
// weighted fairness under overload, honest shedding under bursts,
// priority displacement under mixed traffic, and per-lane isolation
// against a flooding tenant. `pimload -qos` and `make qos-drill` run
// these; TestQoSScenarioMatrix runs them under -race.
//
// Determinism is by construction, not by timing. An open-loop load
// generator cannot force a queue to backlog on an arbitrarily loaded
// host (offered rate self-equalizes with service rate), so instead each
// scenario withholds the shard pool, builds the exact queue state it
// wants to test — seeded batch parked at the lease, lanes filled with
// racing concurrent pushes whose admission outcome is provably
// order-independent — and only then releases the device and watches the
// drain. Every count below is pinned exactly.
const (
	ScenarioOverload      = "overload"
	ScenarioBursty        = "bursty"
	ScenarioMixedPriority = "mixed-priority"
	ScenarioSlowTenant    = "slow-tenant"
)

// QoSScenarioNames lists the scenario matrix in canonical run order.
func QoSScenarioNames() []string {
	return []string{ScenarioOverload, ScenarioBursty, ScenarioMixedPriority, ScenarioSlowTenant}
}

// QoSTenantReport is one tenant's view of a scenario run, classified by
// the machine-readable shed taxonomy the server attaches to every
// rejection (ErrorResponse.Reason).
type QoSTenantReport struct {
	Tenant   string `json:"tenant"`
	Weight   int    `json:"weight"`
	Priority int    `json:"priority"`

	Sent           int `json:"sent"`
	OK             int `json:"ok"`
	ShedQueueFull  int `json:"shed_queue_full"`       // 429 reason=queue-full
	ShedByPriority int `json:"shed_by_priority"`      // 429 reason=shed-by-priority
	ShedDeadline   int `json:"shed_deadline_expired"` // 504 reason=deadline-expired
	ReasonMissing  int `json:"reason_missing"`        // 429/504 without a reason: a taxonomy bug
	Unavailable    int `json:"unavailable"`           // 503
	BadOutputs     int `json:"bad_outputs"`           // 200s that failed oracle verification
	Failures       int `json:"failures"`              // transport errors, other statuses

	WallP50Us  float64 `json:"wall_p50_us"`
	WallP99Us  float64 `json:"wall_p99_us"`
	QueueP50Us float64 `json:"queue_p50_us"`
	QueueP99Us float64 `json:"queue_p99_us"`
}

func (t *QoSTenantReport) rejected() int {
	return t.ShedQueueFull + t.ShedByPriority + t.ReasonMissing
}

func (t *QoSTenantReport) accounted() int {
	return t.OK + t.rejected() + t.ShedDeadline + t.Unavailable + t.BadOutputs + t.Failures
}

// QoSReport is the outcome of one scenario: per-tenant quantile rows plus
// the scenario's pinned assertions, rendered as violations when they
// fail. An empty Violations slice is the pass condition `make qos-drill`
// gates on.
type QoSReport struct {
	Scenario    string  `json:"scenario"`
	Seed        int64   `json:"seed"`
	WallSeconds float64 `json:"wall_seconds"`

	// FairnessRatio is the heavy:light served ratio sampled mid-drain,
	// while both lanes are still backlogged (overload scenario only);
	// with 3:1 weights it must land in [2.2, 4.6].
	FairnessRatio float64 `json:"fairness_ratio,omitempty"`

	Tenants    []QoSTenantReport `json:"tenants"`
	Violations []string          `json:"violations"`
}

// Pass reports whether every pinned assertion held.
func (r *QoSReport) Pass() bool { return len(r.Violations) == 0 }

func (r *QoSReport) tenant(name string) *QoSTenantReport {
	for i := range r.Tenants {
		if r.Tenants[i].Tenant == name {
			return &r.Tenants[i]
		}
	}
	return nil
}

func (r *QoSReport) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// String renders the report for terminals.
func (r *QoSReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s (seed %d): ", r.Scenario, r.Seed)
	if r.Pass() {
		b.WriteString("PASS\n")
	} else {
		fmt.Fprintf(&b, "FAIL (%d violations)\n", len(r.Violations))
	}
	if r.FairnessRatio > 0 {
		fmt.Fprintf(&b, "  fairness ratio %.2f\n", r.FairnessRatio)
	}
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "  %-8s w%d p%d  sent %d: %d ok, %d queue-full, %d shed-by-priority, %d deadline, %d unavailable, %d bad, %d failures\n",
			t.Tenant, t.Weight, t.Priority, t.Sent, t.OK, t.ShedQueueFull, t.ShedByPriority,
			t.ShedDeadline+t.ReasonMissing, t.Unavailable, t.BadOutputs, t.Failures)
		fmt.Fprintf(&b, "  %-8s wall p50 %.0fus p99 %.0fus  queue p50 %.0fus p99 %.0fus\n",
			"", t.WallP50Us, t.WallP99Us, t.QueueP50Us, t.QueueP99Us)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	return b.String()
}

// RunQoSScenario runs one named scenario and evaluates its pins. The
// returned error covers infrastructure failures (server would not boot,
// a phase stalled, responses dropped); assertion failures land in
// Report.Violations so a caller can render every broken pin, not just
// the first.
func RunQoSScenario(name string, seed int64) (*QoSReport, error) {
	switch name {
	case ScenarioOverload:
		return qosOverload(seed)
	case ScenarioBursty:
		return qosBursty(seed)
	case ScenarioMixedPriority:
		return qosMixedPriority(seed)
	case ScenarioSlowTenant:
		return qosSlowTenant(seed)
	default:
		return nil, fmt.Errorf("qos: unknown scenario %q (have %s)", name, strings.Join(QoSScenarioNames(), ", "))
	}
}

// qosWallP99Bound is the generous-but-pinned wall p99 every scenario
// asserts. The workloads finish in well under a second on an idle host;
// the bound only exists to catch pathological stalls (a stuck lane, a
// lost wakeup) without making the drill timing-flaky under -race.
const qosWallP99Bound = 5 * time.Second

// qosModel is the scenario workload: small enough that ten batches
// drain in tens of milliseconds even under -race, big enough that the
// oracle check is a real bit-exactness proof.
var qosModel = ModelSpec{Name: "qos-256x256", M: 256, K: 256, Seed: 7}

// ---------------------------------------------------------------------
// Environment: one booted server plus per-tenant outcome accounting
// ---------------------------------------------------------------------

type qosStat struct {
	rep   *QoSTenantReport
	wall  *metrics.Histogram
	queue *metrics.Histogram
}

// qosEnv is one scenario's harness: an in-process server whose shard
// pool the scenario holds hostage, an HTTP front door, one shared
// deterministic input with its precomputed oracle, and per-tenant
// outcome counters fed by detached client goroutines.
type qosEnv struct {
	scenario string
	s        *Server
	hs       *http.Server
	base     string
	client   *http.Client

	input  []float64
	oracle fp16.Vector

	reg *metrics.Registry // scenario-side latency histograms (under mu)

	mu    sync.Mutex
	stats map[string]*qosStat
	onOK  func(tenant string) // completion-order hook; runs under mu

	clients sync.WaitGroup
	rep     *QoSReport
	start   time.Time
}

func newQoSEnv(scenario string, cfg Config, seed int64) (*qosEnv, error) {
	cfg.Models = []ModelSpec{qosModel}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)

	rng := rand.New(rand.NewSource(seed*1_000_003 + 17))
	x16 := fp16.NewVector(qosModel.K)
	in := make([]float64, qosModel.K)
	for i := range in {
		x16[i] = fp16.FromFloat32(float32(rng.NormFloat64()))
		in[i] = float64(x16[i].Float32())
	}
	return &qosEnv{
		scenario: scenario,
		s:        s,
		hs:       hs,
		base:     "http://" + ln.Addr().String(),
		client:   &http.Client{Timeout: 30 * time.Second},
		input:    in,
		oracle:   blas.RefGemvPIMOrder(qosModel.Weights(), qosModel.M, qosModel.K, x16, blas.GRFDepth(s.shards[0].rt)),
		reg:      metrics.New(),
		stats:    make(map[string]*qosStat),
		rep:      &QoSReport{Scenario: scenario, Seed: seed, Violations: []string{}},
		start:    time.Now(),
	}, nil
}

// statLocked returns (creating on first use) the accounting row for a
// resolved tenant name. Caller holds e.mu.
func (e *qosEnv) statLocked(name string) *qosStat {
	st := e.stats[name]
	if st == nil {
		ten := e.s.tenantFor(name)
		st = &qosStat{
			rep: &QoSTenantReport{
				Tenant:   name,
				Weight:   ten.spec.Weight,
				Priority: ten.spec.Priority,
			},
			wall:  e.reg.Histogram("wall_us_"+name, metrics.ExpBuckets(1, 2, 30)),
			queue: e.reg.Histogram("queue_us_"+name, metrics.ExpBuckets(1, 2, 30)),
		}
		e.stats[name] = st
	}
	return st
}

// shoot sends one inference request attributed to tenant (empty string
// drives the default lane), verifies a 200 against the oracle, and
// classifies every other outcome by the shed taxonomy.
func (e *qosEnv) shoot(tenant string) {
	name := tenant
	if name == "" {
		name = DefaultTenant
	}
	body, _ := json.Marshal(InferRequest{Model: qosModel.Name, Input: e.input, Tenant: tenant})
	start := time.Now()
	resp, err := e.client.Post(e.base+"/v1/infer", "application/json", bytes.NewReader(body))
	wallUs := time.Since(start).Microseconds()

	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.statLocked(name)
	st.rep.Sent++
	if err != nil {
		st.rep.Failures++
		return
	}
	switch resp.StatusCode {
	case http.StatusOK:
		var ir InferResponse
		if err := json.Unmarshal(raw, &ir); err != nil || !slices.Equal(toF16(ir.Output), e.oracle) {
			st.rep.BadOutputs++
			return
		}
		st.rep.OK++
		st.wall.Observe(wallUs)
		st.queue.Observe(ir.QueueUs)
		if e.onOK != nil {
			e.onOK(name)
		}
	case http.StatusTooManyRequests, http.StatusGatewayTimeout:
		var er ErrorResponse
		_ = json.Unmarshal(raw, &er)
		switch er.Reason {
		case ShedQueueFull:
			st.rep.ShedQueueFull++
		case ShedByPriority:
			st.rep.ShedByPriority++
		case ShedDeadlineExpired:
			st.rep.ShedDeadline++
		default:
			st.rep.ReasonMissing++
		}
	case http.StatusServiceUnavailable:
		st.rep.Unavailable++
	default:
		st.rep.Failures++
	}
}

// send fires n concurrent requests for tenant and returns without
// waiting; finish (and per-round waits) collect the goroutines.
func (e *qosEnv) send(tenant string, n int) {
	for i := 0; i < n; i++ {
		e.clients.Add(1)
		go func() {
			defer e.clients.Done()
			e.shoot(tenant)
		}()
	}
}

// qosWaitUntil polls cond (a server-side counter predicate) every
// millisecond; a scenario phase that has not converged in 15s is stuck.
func (e *qosEnv) qosWaitUntil(what string, cond func() bool) error {
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("qos %s: timed out waiting for %s", e.scenario, what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// seedBatch, with the shard pool withheld, sends k requests (k ==
// Channels) and waits until the consumer has admitted and popped all of
// them: the step is formed and the consumer is parked at the shard
// lease, leaving the queue empty for the scenario to shape.
func (e *qosEnv) seedBatch(tenant string, k int) error {
	ten := e.s.tenantFor(tenant)
	base := ten.admitted.Value()
	e.send(tenant, k)
	return e.qosWaitUntil(fmt.Sprintf("seed batch of %d to form", k), func() bool {
		return ten.admitted.Value() == base+int64(k) && e.s.queueDepth.Value() == 0
	})
}

// waitResolved waits until every one of the tenant's pushes so far has
// resolved at admission: cumulative admitted plus queue-full rejections
// reaches pushes. (Priority displacement and deadline expiry happen
// after admission, so they never count here.)
func (e *qosEnv) waitResolved(tenant string, pushes int) error {
	ten := e.s.tenantFor(tenant)
	return e.qosWaitUntil(fmt.Sprintf("%d pushes to resolve for %s", pushes, ten.spec.Name), func() bool {
		return ten.admitted.Value()+ten.shed[ShedQueueFull].Value() >= int64(pushes)
	})
}

// finish waits for every client, drains the server (zero-drop), and
// assembles the per-tenant report rows with their latency quantiles.
func (e *qosEnv) finish() error {
	e.clients.Wait()
	sdCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.hs.Shutdown(sdCtx)
	if err := e.s.Close(sdCtx); err != nil {
		return fmt.Errorf("qos %s: drain: %w", e.scenario, err)
	}
	e.rep.WallSeconds = time.Since(e.start).Seconds()

	snap := e.reg.Snapshot()
	e.mu.Lock()
	defer e.mu.Unlock()
	for name, st := range e.stats {
		if h, ok := snap.Histograms["wall_us_"+name]; ok {
			st.rep.WallP50Us = h.Quantile(0.50)
			st.rep.WallP99Us = h.Quantile(0.99)
		}
		if h, ok := snap.Histograms["queue_us_"+name]; ok {
			st.rep.QueueP50Us = h.Quantile(0.50)
			st.rep.QueueP99Us = h.Quantile(0.99)
		}
		e.rep.Tenants = append(e.rep.Tenants, *st.rep)
	}
	sort.Slice(e.rep.Tenants, func(i, j int) bool { return e.rep.Tenants[i].Tenant < e.rep.Tenants[j].Tenant })
	return nil
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

// qosOverload backs up two same-priority lanes (weights 3:1) behind a
// withheld shard, then releases the device and samples the served ratio
// mid-drain, while both lanes still hold work. WFQ must interleave
// three heavy requests per light one — the drain order is
// heavy,heavy,heavy,light repeating — so when the heavy tenant crosses
// 22 served, the light tenant has ~6; the pinned band [2.2, 4.6]
// excludes FIFO (light would be 0), round-robin (ratio 1.0), and
// light-first (ratio 2.0) orders. Admission itself must be lossless:
// both waves fit inside the lanes' weighted caps.
func qosOverload(seed int64) (*QoSReport, error) {
	cfg := Config{
		Shards: 1, Channels: 4, QueueDepth: 40,
		BatchWait:      time.Hour, // batches flush on size only: totals are multiples of 4
		RequestTimeout: 30 * time.Second,
		Tenants: []TenantSpec{
			{Name: "heavy", Weight: 3},
			{Name: "light", Weight: 1},
		},
	}
	e, err := newQoSEnv(ScenarioOverload, cfg, seed)
	if err != nil {
		return nil, err
	}

	// Snapshot the light tenant's progress the moment the heavy tenant
	// crosses 22 served (4 seeded + 18 of its 27 queued). Responses
	// within one 4-wide batch race, but batches complete in strict
	// device order, so the snapshot lands within one batch of the ideal.
	const heavyMark = 22
	var heavyOK, lightOK, lightAtMark int
	e.onOK = func(tenant string) {
		switch tenant {
		case "heavy":
			heavyOK++
			if heavyOK == heavyMark {
				lightAtMark = lightOK
			}
		case "light":
			lightOK++
		}
	}

	sh := <-e.s.pool
	phaseErr := func() error {
		if err := e.seedBatch("heavy", 4); err != nil {
			return err
		}
		e.send("heavy", 27)
		if err := e.waitResolved("heavy", 31); err != nil {
			return err
		}
		e.send("light", 9)
		return e.waitResolved("light", 9)
	}()
	e.s.pool <- sh
	if ferr := e.finish(); phaseErr == nil {
		phaseErr = ferr
	}
	if phaseErr != nil {
		return e.rep, phaseErr
	}

	rep := e.rep
	if lightAtMark > 0 {
		rep.FairnessRatio = float64(heavyMark-4) / float64(lightAtMark)
	}
	if rep.FairnessRatio < 2.2 || rep.FairnessRatio > 4.6 {
		rep.violate("fairness ratio %.2f outside [2.2, 4.6] for 3:1 weights (light served %d when heavy hit %d)",
			rep.FairnessRatio, lightAtMark, heavyMark)
	}
	heavy, light := rep.tenant("heavy"), rep.tenant("light")
	if heavy.OK != 31 || heavy.rejected() != 0 {
		rep.violate("overload: heavy served %d of 31 with %d rejections; both waves fit under the caps", heavy.OK, heavy.rejected())
	}
	if light.OK != 9 || light.rejected() != 0 {
		rep.violate("overload: light served %d of 9 with %d rejections; both waves fit under the caps", light.OK, light.rejected())
	}
	qosCommonPins(rep)
	return rep, nil
}

// qosBursty fires rounds of simultaneous arrivals into a queue smaller
// than the burst, with both shards withheld so every round's overflow is
// decided by admission alone: 4 seeded + 12 admitted + 4 shed per
// round, exactly. Overflow must shed honestly (429 + reason=queue-full),
// never silently, and every survivor must verify against the oracle.
// Hedged redispatch is enabled so the p99 tail machinery runs under
// burst pressure (its win/loss counts are pinned by unit test, not
// here — they depend on device timing).
func qosBursty(seed int64) (*QoSReport, error) {
	cfg := Config{
		Shards: 2, Channels: 4, QueueDepth: 12,
		BatchWait:      time.Hour,
		RequestTimeout: 30 * time.Second,
		HedgeDelay:     5 * time.Millisecond,
	}
	e, err := newQoSEnv(ScenarioBursty, cfg, seed)
	if err != nil {
		return nil, err
	}

	const rounds = 8
	phaseErr := func() error {
		for r := 0; r < rounds; r++ {
			sh0, sh1 := <-e.s.pool, <-e.s.pool
			err := func() error {
				if err := e.seedBatch("", 4); err != nil {
					return err
				}
				e.send("", 16) // 12 fit the queue, 4 must bounce
				return e.waitResolved("", (r+1)*20)
			}()
			e.s.pool <- sh0
			e.s.pool <- sh1
			if err != nil {
				return err
			}
			e.clients.Wait() // round drains fully before the next burst
		}
		return nil
	}()
	if ferr := e.finish(); phaseErr == nil {
		phaseErr = ferr
	}
	if phaseErr != nil {
		return e.rep, phaseErr
	}

	rep := e.rep
	t := rep.tenant(DefaultTenant)
	if t.OK != rounds*16 {
		rep.violate("bursty: served %d, want %d (16 per round)", t.OK, rounds*16)
	}
	if t.ShedQueueFull != rounds*4 {
		rep.violate("bursty: %d queue-full sheds, want %d (4 per 16-wide burst into a 12-deep queue)", t.ShedQueueFull, rounds*4)
	}
	if t.OK < t.Sent/2 {
		rep.violate("bursty: served %d of %d, below the 50%% floor", t.OK, t.Sent)
	}
	qosCommonPins(rep)
	return rep, nil
}

// qosMixedPriority fills the low-priority free lane to its cap and past
// the queue bound, then lands three high-priority gold arrivals. The
// pinned shedding order: the free flood takes exactly 5 queue-full
// bounces at its lane cap, gold's first arrival uses the last queue
// slot, and gold's other two displace queued free work (429
// reason=shed-by-priority) — graduated shedding drops lowest-priority
// work first, and gold loses nothing.
func qosMixedPriority(seed int64) (*QoSReport, error) {
	cfg := Config{
		Shards: 1, Channels: 4, QueueDepth: 8,
		BatchWait:      time.Hour,
		RequestTimeout: 30 * time.Second,
		Tenants: []TenantSpec{
			{Name: "gold", Weight: 4, Priority: 10},
			{Name: "free", Weight: 8, Priority: 0},
		},
	}
	e, err := newQoSEnv(ScenarioMixedPriority, cfg, seed)
	if err != nil {
		return nil, err
	}

	sh := <-e.s.pool
	phaseErr := func() error {
		if err := e.seedBatch("free", 4); err != nil {
			return err
		}
		e.send("free", 12) // lane cap 7: exactly 7 admitted, 5 queue-full
		if err := e.waitResolved("free", 16); err != nil {
			return err
		}
		e.send("gold", 3) // queue at 7/8: one fits, two displace free work
		return e.waitResolved("gold", 3)
	}()
	e.s.pool <- sh
	if ferr := e.finish(); phaseErr == nil {
		phaseErr = ferr
	}
	if phaseErr != nil {
		return e.rep, phaseErr
	}

	rep := e.rep
	gold, free := rep.tenant("gold"), rep.tenant("free")
	if gold.OK != 3 || gold.rejected() != 0 {
		rep.violate("mixed-priority: gold served %d of 3 with %d rejections; priority must shed free first", gold.OK, gold.rejected())
	}
	if free.ShedQueueFull != 5 {
		rep.violate("mixed-priority: free hit %d queue-full sheds, want 5 (12 pushes into a 7-slot lane)", free.ShedQueueFull)
	}
	if free.ShedByPriority != 2 {
		rep.violate("mixed-priority: %d free requests displaced by gold arrivals, want 2", free.ShedByPriority)
	}
	if free.OK != 9 {
		rep.violate("mixed-priority: free served %d, want 9 (16 sent - 5 queue-full - 2 displaced)", free.OK)
	}
	qosCommonPins(rep)
	return rep, nil
}

// qosSlowTenant checks per-lane isolation with equal weights and equal
// priority: a tenant flooding three times its fair share is capped at
// its own lane — exactly 8 of its 12-wide wave bounce queue-full —
// while the well-behaved tenant, arriving after the flood, is admitted
// and served in full with zero rejections.
func qosSlowTenant(seed int64) (*QoSReport, error) {
	cfg := Config{
		Shards: 1, Channels: 4, QueueDepth: 8,
		BatchWait:      time.Hour,
		RequestTimeout: 30 * time.Second,
		Tenants: []TenantSpec{
			{Name: "fast", Weight: 1},
			{Name: "slow", Weight: 1},
		},
	}
	e, err := newQoSEnv(ScenarioSlowTenant, cfg, seed)
	if err != nil {
		return nil, err
	}

	sh := <-e.s.pool
	phaseErr := func() error {
		if err := e.seedBatch("slow", 4); err != nil {
			return err
		}
		e.send("slow", 12) // lane cap 4: exactly 4 admitted, 8 queue-full
		if err := e.waitResolved("slow", 16); err != nil {
			return err
		}
		e.send("fast", 4) // fits its own lane despite the flood
		return e.waitResolved("fast", 4)
	}()
	e.s.pool <- sh
	if ferr := e.finish(); phaseErr == nil {
		phaseErr = ferr
	}
	if phaseErr != nil {
		return e.rep, phaseErr
	}

	rep := e.rep
	fast, slow := rep.tenant("fast"), rep.tenant("slow")
	if fast.OK != 4 || fast.rejected() != 0 {
		rep.violate("slow-tenant: fast served %d of 4 with %d rejections; lane caps must isolate it", fast.OK, fast.rejected())
	}
	if slow.ShedQueueFull != 8 {
		rep.violate("slow-tenant: flood hit %d queue-full sheds, want 8 (12 pushes into a 4-slot lane)", slow.ShedQueueFull)
	}
	if slow.ShedByPriority != 0 {
		rep.violate("slow-tenant: %d displacements among equal-priority tenants, want 0", slow.ShedByPriority)
	}
	if slow.OK != 8 {
		rep.violate("slow-tenant: flood served %d, want 8 (its lane's worth)", slow.OK)
	}
	qosCommonPins(rep)
	return rep, nil
}

// qosCommonPins applies the assertions every scenario shares: oracle
// bit-exactness, no transport failures, a machine-readable reason on
// every shed, exact accounting, and the pinned wall p99.
func qosCommonPins(rep *QoSReport) {
	for i := range rep.Tenants {
		t := &rep.Tenants[i]
		if t.BadOutputs > 0 {
			rep.violate("%s: %d responses failed oracle verification", t.Tenant, t.BadOutputs)
		}
		if t.Failures > 0 {
			rep.violate("%s: %d transport/5xx failures", t.Tenant, t.Failures)
		}
		if t.Unavailable > 0 {
			rep.violate("%s: %d unexpected 503s (no faults injected)", t.Tenant, t.Unavailable)
		}
		if t.ReasonMissing > 0 {
			rep.violate("%s: %d sheds carried no machine-readable reason", t.Tenant, t.ReasonMissing)
		}
		if got := t.accounted(); got != t.Sent {
			rep.violate("%s: dropped responses: sent %d, accounted %d", t.Tenant, t.Sent, got)
		}
		if bound := float64(qosWallP99Bound.Microseconds()); t.WallP99Us > bound {
			rep.violate("%s: wall p99 %.0fus above pinned bound %.0fus", t.Tenant, t.WallP99Us, bound)
		}
	}
}
