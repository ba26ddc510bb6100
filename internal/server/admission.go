package server

import (
	"context"
	"errors"
	"sync"
)

// Admission sentinel errors. Enter returns them synchronously; the
// handler layer maps ErrQueueFull and ErrTenantOverQuota to
// 429 + Retry-After, and ErrDraining to 503.
var (
	// ErrQueueFull means every run slot is busy and the admission
	// queue is at capacity — the server is overloaded and sheds the
	// request rather than buffering unboundedly.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrTenantOverQuota means this tenant already has its full quota
	// of requests running or queued.
	ErrTenantOverQuota = errors.New("server: tenant concurrency quota exhausted")
	// ErrDraining means the server is shutting down and admits no new
	// work.
	ErrDraining = errors.New("server: draining, not accepting new work")
)

// admission is the server's bounded admission controller: at most
// `slots` discovery runs execute concurrently, at most `depth` more
// wait in FIFO order, and no tenant may hold more than `quota` of the
// running+queued total. Everything beyond those bounds is rejected
// immediately — the queue is the only buffering the server does, so
// overload turns into fast 429s instead of unbounded latency.
//
// Admission is two-phase so that waiting is cancellable and shedding
// is synchronous: Enter either grants a slot, enqueues a ticket, or
// fails fast with a typed error, all without blocking; Wait then
// blocks on the ticket (honoring ctx). Acquire runs both for the sync
// path; an async submission calls Enter before it answers 202, so a
// job the server cannot take is refused at submission, never failed
// later. Release hands the slot to the head of the queue, preserving
// arrival order.
type admission struct {
	mu       sync.Mutex
	slots    int            // concurrent run capacity
	depth    int            // max queued beyond running
	quota    int            // per-tenant running+queued cap; 0 = uncapped
	running  int            // guarded by mu
	queue    []*ticket      // guarded by mu
	tenants  map[string]int // running+queued per tenant; guarded by mu
	draining bool           // guarded by mu
	idle     chan struct{}  // closed when draining and running hits 0
}

// ticket is one admission request. A ticket granted on entry shares
// the closed grantedTicket channel; a queued ticket's ready is closed
// exactly once — either by promote (granted=true) or by drain.
type ticket struct {
	tenant  string
	granted bool
	err     error
	ready   chan struct{}
}

func newAdmission(slots, depth, quota int) *admission {
	if slots < 1 {
		slots = 1
	}
	if depth < 0 {
		depth = 0
	}
	return &admission{
		slots:   slots,
		depth:   depth,
		quota:   quota,
		tenants: make(map[string]int),
		idle:    make(chan struct{}),
	}
}

// Acquire admits one run for the tenant, blocking in FIFO order while
// the server is saturated. It returns a release function to defer, or
// a typed error: ErrQueueFull / ErrTenantOverQuota (shed, retry
// later), ErrDraining (shutting down), or ctx.Err() if the caller
// gave up while queued.
func (a *admission) Acquire(ctx context.Context, tenant string) (release func(), err error) {
	t, err := a.Enter(tenant)
	if err != nil {
		return nil, err
	}
	return a.Wait(ctx, t)
}

// grantedTicket is the ready channel of every ticket granted on entry.
var grantedTicket = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Enter is admission's synchronous half: it grants the tenant a slot
// or enqueues a ticket for one, or sheds with ErrQueueFull,
// ErrTenantOverQuota or ErrDraining. It never blocks. The ticket must
// be passed to Wait or Abandon exactly once.
func (a *admission) Enter(tenant string) (*ticket, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.draining {
		return nil, ErrDraining
	}
	if a.quota > 0 && a.tenants[tenant] >= a.quota {
		return nil, ErrTenantOverQuota
	}
	if a.running < a.slots && len(a.queue) == 0 {
		a.running++
		a.tenants[tenant]++
		return &ticket{tenant: tenant, granted: true, ready: grantedTicket}, nil
	}
	if len(a.queue) >= a.depth {
		return nil, ErrQueueFull
	}
	t := &ticket{tenant: tenant, ready: make(chan struct{})}
	a.queue = append(a.queue, t)
	a.tenants[tenant]++
	return t, nil
}

// Wait blocks until the ticket from Enter is granted and returns the
// release function to defer, or fails with ErrDraining if a drain shed
// the queued ticket, or with ctx.Err() if ctx ends first (the ticket
// is then abandoned).
func (a *admission) Wait(ctx context.Context, t *ticket) (release func(), err error) {
	select {
	case <-t.ready: // granted on entry, or promoted or drained already: ctx is not consulted
	default:
		select {
		case <-t.ready:
		case <-ctx.Done():
			a.Abandon(t)
			if t.err != nil {
				return nil, t.err
			}
			return nil, ctx.Err()
		}
	}
	if t.err != nil {
		return nil, t.err
	}
	return a.releaseFunc(t.tenant), nil
}

// Abandon gives back a ticket from Enter that will not be waited on:
// it leaves the queue, or releases its slot if it was already granted.
func (a *admission) Abandon(t *ticket) {
	a.mu.Lock()
	for i, q := range a.queue {
		if q == t {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			a.decTenant(t.tenant)
			a.mu.Unlock()
			return
		}
	}
	a.mu.Unlock()
	// Granted (or drained) before it could leave the queue: consume
	// the grant so the slot is not leaked.
	<-t.ready
	if t.err == nil {
		a.releaseFunc(t.tenant)()
	}
}

// releaseFunc returns the idempotent release for one granted slot.
func (a *admission) releaseFunc(tenant string) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.running--
			a.decTenant(tenant)
			for len(a.queue) > 0 && a.running < a.slots {
				head := a.queue[0]
				a.queue = a.queue[1:]
				a.running++
				head.granted = true
				close(head.ready)
			}
			if a.draining && a.running == 0 {
				select {
				case <-a.idle:
				default:
					close(a.idle)
				}
			}
			a.mu.Unlock()
		})
	}
}

// decTenant drops one running-or-queued count for the tenant,
// forgetting tenants that reach zero. Caller must hold a.mu.
func (a *admission) decTenant(tenant string) {
	if a.tenants[tenant]--; a.tenants[tenant] <= 0 {
		delete(a.tenants, tenant)
	}
}

// Drain stops admitting: every future Enter fails with ErrDraining,
// and every ticket still queued is failed the same way — queued work
// has not started, so a drain sheds it rather than racing the
// shutdown clock. Running work keeps its slots; Idle reports when the
// last one releases.
func (a *admission) Drain() {
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return
	}
	a.draining = true
	for _, t := range a.queue {
		t.err = ErrDraining
		a.decTenant(t.tenant)
		close(t.ready)
	}
	a.queue = nil
	if a.running == 0 {
		close(a.idle)
	}
	a.mu.Unlock()
}

// Idle returns a channel closed once Drain has been called and the
// last running slot has been released.
func (a *admission) Idle() <-chan struct{} { return a.idle }

// Load reports the current running and queued counts (for readyz and
// the stats snapshot).
func (a *admission) Load() (running, queued int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.running, len(a.queue)
}

// tenantLoad is one tenant's share of the admission state.
type tenantLoad struct {
	Running int
	Queued  int
}

// PerTenant reports each live tenant's running and queued counts (for
// the stats snapshot and the per-tenant metrics gauges). The tenants
// map counts running+queued combined, so the split is derived by
// counting the queue.
func (a *admission) PerTenant() map[string]tenantLoad {
	a.mu.Lock()
	defer a.mu.Unlock()
	queued := make(map[string]int, len(a.tenants))
	for _, t := range a.queue {
		queued[t.tenant]++
	}
	out := make(map[string]tenantLoad, len(a.tenants))
	for tenant, n := range a.tenants {
		q := queued[tenant]
		out[tenant] = tenantLoad{Running: n - q, Queued: q}
	}
	return out
}
