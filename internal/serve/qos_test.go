package serve

import (
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
)

// TestNormalizeTenants: defaults fill in, the default lane is always
// present, and malformed specs are rejected at construction.
func TestNormalizeTenants(t *testing.T) {
	got, err := normalizeTenants(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != DefaultTenant || got[0].Weight != 1 {
		t.Fatalf("empty spec list: got %+v, want sole default tenant", got)
	}

	got, err = normalizeTenants([]TenantSpec{{Name: "b"}, {Name: "a", Weight: 0, Priority: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Name != "a" || got[1].Name != "b" || got[2].Name != DefaultTenant {
		t.Fatalf("got %+v, want a, b, default (sorted, default appended)", got)
	}
	if got[0].Weight != 1 {
		t.Errorf("zero weight not clamped to 1: %+v", got[0])
	}
	if got[0].Priority != 5 {
		t.Errorf("priority lost: %+v", got[0])
	}

	if _, err := normalizeTenants([]TenantSpec{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Error("duplicate tenant accepted")
	}
	if _, err := normalizeTenants([]TenantSpec{{}}); err == nil {
		t.Error("empty tenant name accepted")
	}
}

// queued builds a bare request for the queue unit tests: the id names it,
// the context carries its deadline.
func queued(id string, ctx context.Context) *request { return &request{id: id, ctx: ctx} }

// TestFairQueueWeightedShare: the deterministic heart of the QoS story.
// With both lanes saturated and weights 3:1, WFQ must serve exactly
// 3 of a per 1 of b — no clock, no goroutines, no tolerance needed.
func TestFairQueueWeightedShare(t *testing.T) {
	ta := &tenant{spec: TenantSpec{Name: "a", Weight: 3}}
	tb := &tenant{spec: TenantSpec{Name: "b", Weight: 1}}
	q := newFairQueue(map[string]*tenant{"a": ta, "b": tb}, 1000,
		func(r *request, reason string) { t.Fatalf("unexpected shed of %q (%s)", r.id, reason) })

	bg := context.Background()
	for i := 0; i < 80; i++ {
		if ok, reason := q.push(queued("a", bg), ta, 1000); !ok {
			t.Fatalf("push a#%d rejected: %s", i, reason)
		}
		if ok, reason := q.push(queued("b", bg), tb, 1000); !ok {
			t.Fatalf("push b#%d rejected: %s", i, reason)
		}
	}

	var popped []string
	counts := map[string]int{}
	for i := 0; i < 80; i++ {
		it, ok := q.tryPop()
		if !ok {
			t.Fatalf("pop %d: queue empty early", i)
		}
		popped = append(popped, it.id)
		counts[it.id]++
	}
	if counts["a"] != 60 || counts["b"] != 20 {
		t.Fatalf("3:1 weights served %d:%d over 80 pops, want exactly 60:20", counts["a"], counts["b"])
	}
	if want := []string{"a", "a", "a", "b"}; fmt.Sprint(popped[:4]) != fmt.Sprint(want) {
		t.Errorf("first WFQ period %v, want %v", popped[:4], want)
	}
	if q.len() != 80 {
		t.Errorf("queue len %d after 160 pushes / 80 pops, want 80", q.len())
	}
}

// TestFairQueuePriorityDisplacement: on overflow a high-priority arrival
// displaces the lowest-priority lane's most-deferrable item (429
// shed-by-priority), and equal-priority tenants can never displace each
// other.
func TestFairQueuePriorityDisplacement(t *testing.T) {
	gold := &tenant{spec: TenantSpec{Name: "gold", Weight: 1, Priority: 10}}
	free := &tenant{spec: TenantSpec{Name: "free", Weight: 1, Priority: 0}}
	const depth = 4 // lane caps: 4*3*1/(2*2) = 3 each

	type shedRec struct{ item, reason string }
	var sheds []shedRec
	q := newFairQueue(map[string]*tenant{"gold": gold, "free": free}, depth,
		func(r *request, reason string) { sheds = append(sheds, shedRec{r.id, reason}) })
	push := func(id string, ten *tenant) (bool, string) {
		return q.push(queued(id, context.Background()), ten, depth)
	}

	for _, id := range []string{"1", "2", "3"} {
		if ok, _ := push(id, free); !ok {
			t.Fatalf("free push %s rejected below cap", id)
		}
	}
	// Lane cap: the flooding tenant is bounded before the queue is full.
	if ok, reason := push("4", free); ok || reason != ShedQueueFull {
		t.Fatalf("free push over lane cap: ok=%v reason=%q, want queue-full", ok, reason)
	}

	if ok, _ := push("10", gold); !ok {
		t.Fatal("gold push into free queue space rejected")
	}
	// Queue now full (3 free + 1 gold). Gold arrivals displace free's
	// EDF tail — the most recently pushed no-deadline item.
	if ok, _ := push("11", gold); !ok {
		t.Fatal("gold push under overflow rejected; should displace free")
	}
	if len(sheds) != 1 || sheds[0] != (shedRec{"3", ShedByPriority}) {
		t.Fatalf("sheds = %+v, want free item 3 shed-by-priority", sheds)
	}
	if ok, _ := push("12", gold); !ok {
		t.Fatal("second displacing gold push rejected")
	}
	if len(sheds) != 2 || sheds[1] != (shedRec{"2", ShedByPriority}) {
		t.Fatalf("sheds = %+v, want free item 2 next", sheds)
	}

	// Equal priority never displaces: free cannot push out free or gold.
	if ok, reason := push("5", free); ok || reason != ShedQueueFull {
		t.Fatalf("equal-priority push under overflow: ok=%v reason=%q, want queue-full rejection", ok, reason)
	}
	if q.len() != depth {
		t.Errorf("queue len %d, want %d", q.len(), depth)
	}
}

// TestFairQueueDeadlineOrder: within a lane, pops follow the earliest
// deadline, not arrival order; items whose context is already dead are
// shed at pop time (deadline-expired) and never handed to the consumer.
func TestFairQueueDeadlineOrder(t *testing.T) {
	ta := &tenant{spec: TenantSpec{Name: "a", Weight: 1}}
	ctxs := make([]context.Context, 4)
	for i, d := range []time.Duration{3 * time.Hour, time.Hour, 2 * time.Hour} {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(d))
		defer cancel()
		ctxs[i] = ctx
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel() // expired before it is ever popped
	ctxs[3] = dead

	var sheds []string
	q := newFairQueue(map[string]*tenant{"a": ta}, 10,
		func(r *request, reason string) {
			if reason != ShedDeadlineExpired {
				t.Errorf("shed reason %q, want deadline-expired", reason)
			}
			sheds = append(sheds, r.id)
		})

	for i, ctx := range ctxs {
		if ok, _ := q.push(queued(fmt.Sprint(i), ctx), ta, 10); !ok {
			t.Fatalf("push %d rejected", i)
		}
	}

	var got []string
	for {
		it, ok := q.tryPop()
		if !ok {
			break
		}
		got = append(got, it.id)
	}
	// Item 3 (canceled) sorts first — a canceled ctx reports deadline in
	// the past via Err(), not Deadline(); it was pushed last with no
	// deadline, so it pops last and is shed there. Items 0..2 pop in
	// deadline order: 1 (1h), 2 (2h), 0 (3h).
	if fmt.Sprint(got) != fmt.Sprint([]string{"1", "2", "0"}) {
		t.Fatalf("pop order %v, want [1 2 0] (EDF)", got)
	}
	if fmt.Sprint(sheds) != fmt.Sprint([]string{"3"}) {
		t.Fatalf("sheds %v, want [3] (expired item shed at pop)", sheds)
	}
}

// TestTenantResolution: the body field wins over the X-Tenant header,
// the header is honored when the body is silent, and unknown names land
// in the default lane instead of erroring.
func TestTenantResolution(t *testing.T) {
	s := newTestServer(t, Config{
		Shards: 1, Channels: 2, Models: []ModelSpec{tiny},
		BatchWait: time.Millisecond,
		Tenants:   []TenantSpec{{Name: "alpha", Weight: 2}, {Name: "beta"}},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in, _ := testInput(tiny.K, 9)
	post := func(bodyTenant, headerTenant string) {
		t.Helper()
		req := InferRequest{Model: "tiny", Input: in, Tenant: bodyTenant}
		b, _ := json.Marshal(req)
		hr, err := http.NewRequest("POST", ts.URL+"/v1/infer", strings.NewReader(string(b)))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("Content-Type", "application/json")
		if headerTenant != "" {
			hr.Header.Set("X-Tenant", headerTenant)
		}
		resp, err := ts.Client().Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}

	post("alpha", "")     // body field
	post("", "beta")      // header fallback
	post("alpha", "beta") // body wins
	post("nosuch", "")    // unknown -> default lane
	post("", "")          // unattributed -> default lane

	want := map[string]int64{"alpha": 2, "beta": 1, DefaultTenant: 2}
	for name, n := range want {
		if got := s.tenants[name].admitted.Value(); got != n {
			t.Errorf("tenant %s admitted %d, want %d", name, got, n)
		}
	}
}

// TestDeadlineExpiredShedBeforeDispatch: a request whose deadline passes
// while queued is answered 504 with reason deadline-expired and never
// occupies a batch slot — the device runs exactly one batch for the one
// live request.
func TestDeadlineExpiredShedBeforeDispatch(t *testing.T) {
	s := newTestServer(t, Config{
		Shards: 1, Channels: 1, Models: []ModelSpec{tiny},
		BatchWait: time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sh := <-s.pool // hold the only shard: the batcher blocks in lease
	in, _ := testInput(tiny.K, 6)

	// Request 1 (no deadline): popped by the batcher, stuck at lease.
	var wg sync.WaitGroup
	wg.Add(1)
	var code1 int
	go func() {
		defer wg.Done()
		resp, _ := postInfer(t, ts, inferBody(t, "tiny", in))
		code1 = resp.StatusCode
	}()
	waitFor(t, func() bool { return s.admitted.Value() == 1 && s.queueDepth.Value() == 0 })

	// Request 2 (50ms deadline): stays queued behind the stuck batch.
	wg.Add(1)
	var code2 int
	var er2 ErrorResponse
	go func() {
		defer wg.Done()
		body := fmt.Sprintf(`{"model":"tiny","timeout_ms":50,"input":%s}`, mustJSON(in))
		resp, raw := postInfer(t, ts, body)
		code2 = resp.StatusCode
		_ = json.Unmarshal(raw, &er2)
	}()
	waitFor(t, func() bool { return s.queueDepth.Value() == 1 })

	// Let request 2 expire in the queue, then release the shard.
	time.Sleep(80 * time.Millisecond)
	s.pool <- sh
	wg.Wait()
	// Request 2's handler may have answered 504 from its own context
	// while the request was still queued, and the consumer pops it only
	// after it hands request 1's step to a worker, so both replies can
	// arrive before the pop. Wait for the pop (its shed, counted last)
	// before reading the counters.
	waitFor(t, func() bool { return s.shedTotal.Value() >= 1 })

	if code1 != 200 {
		t.Errorf("live request finished %d, want 200", code1)
	}
	if code2 != http.StatusGatewayTimeout {
		t.Fatalf("expired request finished %d, want 504", code2)
	}
	if er2.Reason != ShedDeadlineExpired {
		t.Errorf("504 reason %q, want %q", er2.Reason, ShedDeadlineExpired)
	}
	if got := s.batches.Value(); got != 1 {
		t.Errorf("device ran %d batches, want 1 (expired request must not dispatch)", got)
	}
	if got := s.served.Value(); got != 1 {
		t.Errorf("served %d, want 1", got)
	}
	if got := s.tenants[DefaultTenant].shed[ShedDeadlineExpired].Value(); got != 1 {
		t.Errorf("tenant shed counter %d, want 1", got)
	}
}

// instantTimer is a batchTimer whose tick is always ready — it forces
// the hedge path on every dispatch without waiting out a real delay.
type instantTimer struct{ ch chan time.Time }

func newInstantTimer(time.Duration) batchTimer {
	it := &instantTimer{ch: make(chan time.Time, 1)}
	it.ch <- time.Time{}
	return it
}

func (it *instantTimer) C() <-chan time.Time { return it.ch }
func (it *instantTimer) Reset(time.Duration) {
	select {
	case it.ch <- time.Time{}:
	default:
	}
}
func (it *instantTimer) Stop() bool { return false }

// TestHedgedDispatchZeroDrop: with the hedge timer firing instantly,
// every batch is duplicated onto the idle shard; first result wins, the
// loser is reaped, results stay bit-exact, and the drain drops nothing.
func TestHedgedDispatchZeroDrop(t *testing.T) {
	s := newTestServer(t, Config{
		Shards: 2, Channels: 2, Models: []ModelSpec{tiny},
		BatchWait:  time.Millisecond,
		HedgeDelay: time.Millisecond, // >0 enables hedging; the fake timer ignores it
	})
	s.newHedgeTimer = newInstantTimer
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in, x16 := testInput(tiny.K, 7)
	want := blas.RefGemvPIMOrder(tiny.Weights(), tiny.M, tiny.K, x16, 8)

	check := func(code int, raw []byte) error {
		if code != 200 {
			return fmt.Errorf("status %d: %s", code, raw)
		}
		var ir InferResponse
		if err := json.Unmarshal(raw, &ir); err != nil {
			return err
		}
		if !slices.Equal(toF16(ir.Output), want) {
			return fmt.Errorf("hedged result mismatch")
		}
		return nil
	}

	// A lone request first: with the whole pool idle, the instant hedge
	// deterministically finds a spare shard.
	resp, raw := postInfer(t, ts, inferBody(t, "tiny", in))
	if err := check(resp.StatusCode, raw); err != nil {
		t.Fatal(err)
	}
	if got := s.hedges.Value(); got > 1 {
		t.Fatalf("hedges after lone request = %d, want at most 1", got)
	}

	// Then a concurrent burst: hedges race real traffic for shards, and
	// the zero-drop drain (newTestServer's Close) must still hold.
	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := postInfer(t, ts, inferBody(t, "tiny", in))
			errs <- check(resp.StatusCode, raw)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if got := s.hedges.Value(); got == 0 {
		t.Error("instant hedge timer never launched a hedge across the whole run")
	}
	if wins, hedges := s.hedgeWins.Value(), s.hedges.Value(); wins > hedges {
		t.Errorf("hedge wins %d exceed hedges launched %d", wins, hedges)
	}
}

// TestQoSScenarioMatrix runs the four-scenario drill from qosload.go —
// the same matrix `make qos-drill` and `pimload -qos` run — and requires
// every pinned assertion to hold.
func TestQoSScenarioMatrix(t *testing.T) {
	for _, name := range QoSScenarioNames() {
		t.Run(name, func(t *testing.T) {
			rep, err := RunQoSScenario(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Pass() {
				t.Fatalf("scenario %s failed:\n%s", name, rep)
			}
			t.Logf("\n%s", rep)
		})
	}
}
