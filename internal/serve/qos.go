package serve

// Multi-tenant QoS: weighted fair queueing, deadline-sorted (EDF) batch
// formation, and graduated load shedding.
//
// The single bounded FIFO per model (PR 3) treats every caller alike: a
// thundering herd from one tenant fills the queue and everyone else eats
// 429s. The fairQueue below replaces that FIFO with one lane per tenant
// and picks the next request by virtual-time weighted fair queueing: a
// tenant with weight 3 is served three requests for every one of a
// weight-1 tenant whenever both have work queued, and an idle tenant
// accumulates no credit (its lane re-enters at the queue's current
// virtual time). Within a lane, requests are ordered by deadline
// (earliest first), so batch formation is SLO-aware: the request closest
// to its deadline is always the next one packed.
//
// Overflow is shed gradually instead of uniformly: a request from a
// higher-priority tenant displaces the most-deferrable queued request
// (latest deadline) of the lowest-priority tenant, which is answered 429
// with reason "shed-by-priority"; only when no lower-priority victim
// exists does the newcomer itself bounce with reason "queue-full".
// Requests whose deadline expired while queued are shed at pop time with
// reason "deadline-expired" (status 504) and never occupy a batch slot.
// Every shed carries Retry-After and a machine-readable reason so load
// generators can assert the shedding order (docs/SERVING.md).
//
// Concurrency contract: fairQueue is a single-consumer queue — exactly
// one goroutine (the model's consumer, seq.go) calls popWait/tryPop;
// any number of HTTP handler goroutines call push. The cap-1 notify
// channel is sound only under that contract: pushes collapse to one
// token and the consumer re-checks the queue after every wake. Shed
// callbacks run outside the queue lock and must not block (terminal
// responses go to the request's buffered resp channel).

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"pimsim/internal/metrics"
)

// Shed reasons: the machine-readable `reason` field on 429/504 bodies.
const (
	// ShedQueueFull: the admission queue (or the tenant's share of it) is
	// full and no lower-priority work could be displaced.
	ShedQueueFull = "queue-full"
	// ShedByPriority: the request was queued, then displaced by a
	// higher-priority tenant's arrival under overload.
	ShedByPriority = "shed-by-priority"
	// ShedDeadlineExpired: the request's deadline passed while it was
	// queued; it was shed before ever reaching a device.
	ShedDeadlineExpired = "deadline-expired"
)

// ShedReasons lists every reason a shed response can carry.
func ShedReasons() []string {
	return []string{ShedQueueFull, ShedByPriority, ShedDeadlineExpired}
}

// ShedError is the typed error behind every shed response. The HTTP
// layer surfaces Reason in the ErrorResponse body next to Retry-After.
type ShedError struct {
	Reason string // one of ShedReasons()
	Detail string
}

func (e *ShedError) Error() string {
	if e.Detail == "" {
		return e.Reason
	}
	return e.Detail
}

// TenantSpec declares one tenant of the serving layer: its fair-queueing
// weight and its shedding priority. Requests name their tenant in the
// `tenant` body field or the X-Tenant header; an unknown or empty name
// maps to the "default" tenant.
type TenantSpec struct {
	Name string `json:"name"`
	// Weight is the WFQ share (default 1): under saturation a tenant is
	// served Weight requests per round of the lowest-weight tenant's one.
	Weight int `json:"weight,omitempty"`
	// Priority orders graduated shedding (default 0; higher sheds later).
	// On overflow an arriving request may displace queued work of any
	// tenant with strictly lower priority; equal-priority tenants never
	// displace each other.
	Priority int `json:"priority,omitempty"`
}

// DefaultTenant is the lane requests land in when they name no tenant
// (or one the server was not configured with).
const DefaultTenant = "default"

// tenant is the runtime state behind one TenantSpec: its per-tenant
// metrics. WFQ bookkeeping is per-queue (tenantLane), not here, because
// every model has its own fair queue.
type tenant struct {
	spec      TenantSpec
	admitted  *metrics.Counter
	served    *metrics.Counter
	shed      map[string]*metrics.Counter // by shed reason
	queueWait *metrics.Histogram
}

// tenantFor resolves a request's tenant name to its runtime tenant,
// falling back to the default lane for unknown names.
func (s *Server) tenantFor(name string) *tenant {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	return s.tenants[DefaultTenant]
}

// normalizeTenants fills defaults: empty spec list gets the sole default
// tenant; weights clamp to >= 1; a missing "default" entry is appended so
// unattributed traffic always has a lane.
func normalizeTenants(specs []TenantSpec) ([]TenantSpec, error) {
	out := make([]TenantSpec, 0, len(specs)+1)
	seen := make(map[string]bool, len(specs)+1)
	for _, sp := range specs {
		if sp.Name == "" {
			return nil, fmt.Errorf("serve: tenant with empty name")
		}
		if seen[sp.Name] {
			return nil, fmt.Errorf("serve: duplicate tenant %q", sp.Name)
		}
		seen[sp.Name] = true
		if sp.Weight <= 0 {
			sp.Weight = 1
		}
		out = append(out, sp)
	}
	if !seen[DefaultTenant] {
		out = append(out, TenantSpec{Name: DefaultTenant, Weight: 1})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// laneItem is one queued request with its deadline resolved at push time.
type laneItem struct {
	item     *request
	deadline time.Time
}

// tenantLane is one tenant's per-queue state: its EDF-ordered backlog
// and its WFQ virtual finish time.
type tenantLane struct {
	ten   *tenant
	items []laneItem // sorted by deadline, earliest first
	// vfinish is the virtual time at which the lane's head item finishes
	// service. Valid only while the lane is non-empty; an emptied lane
	// re-enters at the queue's virtual time, so idle tenants bank no
	// credit.
	vfinish float64
	// cap bounds how much of the queue this lane may occupy, so one
	// misbehaving tenant cannot fill the whole queue and starve its
	// equal-priority peers of admission (slow-tenant isolation). 0 means
	// unbounded (single-tenant configs).
	cap int
}

// fairQueue is the WFQ admission queue in front of one model's
// consumer. See the package comment at the top of this file for the
// scheduling discipline and the single-consumer concurrency contract.
type fairQueue struct {
	mu     sync.Mutex
	lanes  map[string]*tenantLane
	order  []*tenantLane // stable tenant-name order: deterministic ties
	size   int
	vtime  float64
	closed bool
	notify chan struct{} // cap 1; a token means "state changed, re-check"

	onShed func(r *request, reason string) // terminal response; runs unlocked
}

// newFairQueue builds a queue with one lane per tenant. depth is the
// whole queue's bound; per-lane caps implement slow-tenant isolation:
// with a single tenant the lane may use the whole queue, with several
// each lane is bounded at 3/2 of its weight-proportional share (capped
// at depth-1) — enough slack to absorb bursts, but never the whole
// queue.
func newFairQueue(tenants map[string]*tenant, depth int, onShed func(*request, string)) *fairQueue {
	q := &fairQueue{
		lanes:  make(map[string]*tenantLane, len(tenants)),
		notify: make(chan struct{}, 1),
		onShed: onShed,
	}
	sumW := 0
	for _, t := range tenants {
		sumW += t.spec.Weight
	}
	for name, t := range tenants {
		lane := &tenantLane{ten: t}
		if len(tenants) > 1 {
			c := depth * 3 * t.spec.Weight / (2 * sumW)
			if c < 1 {
				c = 1
			}
			if c > depth-1 {
				c = depth - 1
			}
			lane.cap = c
		}
		q.lanes[name] = lane
		q.order = append(q.order, lane)
	}
	sort.Slice(q.order, func(i, j int) bool {
		return q.order[i].ten.spec.Name < q.order[j].ten.spec.Name
	})
	return q
}

func (q *fairQueue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// push admits item into its tenant's lane, bounded by depth (the
// caller's effective queue bound, already scaled for lost shard
// capacity). On overflow it first tries graduated shedding: displace the
// most-deferrable item of the lowest-priority non-empty lane whose
// priority is strictly below the pusher's. Returns ok=false with the
// shed reason when the item itself could not be queued.
func (q *fairQueue) push(item *request, ten *tenant, depth int) (bool, string) {
	var shedItem *request
	shed := false

	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false, ShedQueueFull
	}
	lane := q.lanes[ten.spec.Name]
	if lane.cap > 0 && len(lane.items) >= lane.cap {
		q.mu.Unlock()
		return false, ShedQueueFull
	}
	if q.size >= depth {
		victim := q.victimLocked(ten.spec.Priority)
		if victim == nil {
			q.mu.Unlock()
			return false, ShedQueueFull
		}
		// Shed the victim lane's most-deferrable request: the one with the
		// latest deadline, i.e. the EDF tail.
		last := len(victim.items) - 1
		shedItem, shed = victim.items[last].item, true
		victim.items = victim.items[:last]
		q.size--
	}
	deadline := time.Time{}
	if d, ok := item.ctx.Deadline(); ok {
		deadline = d
	} else {
		deadline = time.Unix(math.MaxInt32, 0) // effectively never
	}
	idx := sort.Search(len(lane.items), func(i int) bool {
		return lane.items[i].deadline.After(deadline)
	})
	lane.items = append(lane.items, laneItem{})
	copy(lane.items[idx+1:], lane.items[idx:])
	lane.items[idx] = laneItem{item: item, deadline: deadline}
	if len(lane.items) == 1 {
		// Lane (re)activates at the current virtual time: no credit for
		// having been idle.
		lane.vfinish = q.vtime + 1.0/float64(lane.ten.spec.Weight)
	}
	q.size++
	q.mu.Unlock()

	q.wake()
	if shed {
		q.onShed(shedItem, ShedByPriority)
	}
	return true, ""
}

// victimLocked finds the shedding victim for an arrival at the given
// priority: the non-empty lane with the lowest priority strictly below
// it (ties broken by tenant-name order, so the choice is deterministic).
func (q *fairQueue) victimLocked(priority int) *tenantLane {
	var victim *tenantLane
	for _, lane := range q.order {
		if len(lane.items) == 0 || lane.ten.spec.Priority >= priority {
			continue
		}
		if victim == nil || lane.ten.spec.Priority < victim.ten.spec.Priority {
			victim = lane
		}
	}
	return victim
}

// tryPop removes and returns the next request by WFQ across lanes and
// EDF within the winning lane. Requests whose deadline already expired
// are shed (reason deadline-expired) instead of returned, so an expired
// request never occupies a batch slot. Returns ok=false when the queue
// is empty.
func (q *fairQueue) tryPop() (*request, bool) {
	var expired []*request

	q.mu.Lock()
	for {
		var best *tenantLane
		for _, lane := range q.order {
			if len(lane.items) == 0 {
				continue
			}
			if best == nil || lane.vfinish < best.vfinish {
				best = lane
			}
		}
		if best == nil {
			q.mu.Unlock()
			for _, it := range expired {
				q.onShed(it, ShedDeadlineExpired)
			}
			return nil, false
		}
		head := best.items[0]
		copy(best.items, best.items[1:])
		best.items = best.items[:len(best.items)-1]
		q.size--
		q.vtime = best.vfinish
		if len(best.items) > 0 {
			best.vfinish += 1.0 / float64(best.ten.spec.Weight)
		}
		if head.item.ctx.Err() != nil {
			expired = append(expired, head.item)
			continue
		}
		q.mu.Unlock()
		for _, it := range expired {
			q.onShed(it, ShedDeadlineExpired)
		}
		return head.item, true
	}
}

// popWait blocks until a request is available (returning it) or the
// queue is closed and fully drained (returning ok=false). This is the
// consumer's blocking receive; Close's zero-drop drain relies on
// the closed-but-nonempty case still handing out work.
func (q *fairQueue) popWait() (*request, bool) {
	for {
		if it, ok := q.tryPop(); ok {
			return it, true
		}
		if q.drained() {
			return nil, false
		}
		<-q.notify
	}
}

// close stops admission. Queued work remains poppable; popWait returns
// ok=false only once the backlog is drained.
func (q *fairQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.wake()
}

// drained reports whether the queue is closed with no backlog left —
// the consumer's signal to flush what it has and exit.
func (q *fairQueue) drained() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed && q.size == 0
}

// len reports the total queued across lanes.
func (q *fairQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}
