package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"discoverxfd"
	"discoverxfd/internal/faultinject"
)

func mustAcquire(t *testing.T, a *admission, tenant string) func() {
	t.Helper()
	release, err := a.Acquire(context.Background(), tenant)
	if err != nil {
		t.Fatalf("acquire(%q): %v", tenant, err)
	}
	return release
}

// TestAdmissionBounds pins the three rejection modes and FIFO handoff.
func TestAdmissionBounds(t *testing.T) {
	a := newAdmission(1, 1, 0)
	r1 := mustAcquire(t, a, "a")

	// One waiter fits in the queue.
	got := make(chan error, 1)
	ready := make(chan struct{})
	//lint:governed test goroutine, joined via the got channel below.
	go func() {
		close(ready)
		release, err := a.Acquire(context.Background(), "b")
		if err == nil {
			defer release()
		}
		got <- err
	}()
	<-ready
	// Wait for the waiter to actually enqueue.
	for i := 0; ; i++ {
		if _, queued := a.Load(); queued == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: the next request is shed synchronously.
	if _, err := a.Acquire(context.Background(), "c"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}

	// Release hands the slot to the queued waiter.
	r1()
	if err := <-got; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
}

// TestAdmissionTenantQuota pins the per-tenant cap: a tenant at quota
// is shed even with capacity free, and its count is released with its
// slots.
func TestAdmissionTenantQuota(t *testing.T) {
	a := newAdmission(4, 4, 1)
	r1 := mustAcquire(t, a, "hog")
	if _, err := a.Acquire(context.Background(), "hog"); !errors.Is(err, ErrTenantOverQuota) {
		t.Fatalf("err = %v, want ErrTenantOverQuota", err)
	}
	r2 := mustAcquire(t, a, "polite") // capacity remains for others
	r1()
	r3 := mustAcquire(t, a, "hog") // quota freed with the slot
	r2()
	r3()
}

// TestAdmissionCancelWhileQueued pins cancellable waiting: a waiter
// that gives up leaves no residue (its tenant count and queue entry
// are reclaimed).
func TestAdmissionCancelWhileQueued(t *testing.T) {
	a := newAdmission(1, 4, 1)
	r1 := mustAcquire(t, a, "a")

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	//lint:governed test goroutine, joined via the got channel below.
	go func() {
		_, err := a.Acquire(ctx, "b")
		got <- err
	}()
	for i := 0; ; i++ {
		if _, queued := a.Load(); queued == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, queued := a.Load(); queued != 0 {
		t.Fatal("cancelled waiter left a queue entry")
	}
	// Tenant b's quota count was reclaimed with the ticket.
	a.mu.Lock()
	residue := a.tenants["b"]
	a.mu.Unlock()
	if residue != 0 {
		t.Errorf("cancelled waiter left tenant count %d", residue)
	}
	r1()
}

// TestAdmissionEnterAbandon pins the synchronous half: Enter grants or
// queues without blocking, and Abandon gives back either kind of
// ticket — a queued one leaves the queue, a granted one frees its slot
// for the next ticket in line.
func TestAdmissionEnterAbandon(t *testing.T) {
	a := newAdmission(1, 1, 0)
	granted, err := a.Enter("a")
	if err != nil {
		t.Fatal(err)
	}
	queued, err := a.Enter("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Enter("c"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third Enter = %v, want ErrQueueFull", err)
	}
	a.Abandon(queued)
	if running, q := a.Load(); running != 1 || q != 0 {
		t.Fatalf("after abandoning the queued ticket: %d running, %d queued", running, q)
	}
	next, err := a.Enter("b")
	if err != nil {
		t.Fatal(err)
	}
	a.Abandon(granted) // hands the slot to next
	release, err := a.Wait(context.Background(), next)
	if err != nil {
		t.Fatal(err)
	}
	release()
	if running, q := a.Load(); running != 0 || q != 0 || len(a.PerTenant()) != 0 {
		t.Fatalf("residue: %d running, %d queued, tenants %v", running, q, a.PerTenant())
	}
	// A slot free on entry is granted even under a done context: the
	// run itself then reports the deadline (or a truncated result).
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 20; i++ {
		release, err := a.Acquire(done, "a")
		if err != nil {
			t.Fatalf("Acquire on a free slot under a done context: %v", err)
		}
		release()
	}
}

// TestAdmissionDrain pins the drain contract: queued waiters fail with
// ErrDraining, new arrivals fail fast, and Idle closes when the last
// running slot releases.
func TestAdmissionDrain(t *testing.T) {
	a := newAdmission(1, 4, 0)
	r1 := mustAcquire(t, a, "a")

	got := make(chan error, 1)
	//lint:governed test goroutine, joined via the got channel below.
	go func() {
		_, err := a.Acquire(context.Background(), "b")
		got <- err
	}()
	for i := 0; ; i++ {
		if _, queued := a.Load(); queued == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	a.Drain()
	if err := <-got; !errors.Is(err, ErrDraining) {
		t.Fatalf("queued waiter err = %v, want ErrDraining", err)
	}
	if _, err := a.Acquire(context.Background(), "c"); !errors.Is(err, ErrDraining) {
		t.Fatalf("new acquire err = %v, want ErrDraining", err)
	}
	select {
	case <-a.Idle():
		t.Fatal("idle closed while a slot is still held")
	default:
	}
	r1()
	select {
	case <-a.Idle():
	case <-time.After(time.Second):
		t.Fatal("idle never closed after the last release")
	}
	a.Drain() // idempotent
}

// TestAdmissionConcurrent hammers the controller with -race: many
// goroutines acquiring, holding briefly, and releasing; the invariant
// running <= slots and queued <= depth must hold throughout, and
// everything must terminate with the controller empty.
func TestAdmissionConcurrent(t *testing.T) {
	defer faultinject.CheckGoroutines(t)()
	const slots, depth = 3, 5
	a := newAdmission(slots, depth, 2)
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		//lint:governed test goroutines, joined by the WaitGroup below.
		go func(i int) {
			defer wg.Done()
			tenant := string(rune('a' + i%6))
			for j := 0; j < 20; j++ {
				release, err := a.Acquire(context.Background(), tenant)
				if err != nil {
					continue // shed: fine under load
				}
				running, queued := a.Load()
				if running > slots || queued > depth {
					t.Errorf("bounds violated: running=%d queued=%d", running, queued)
				}
				release()
				release() // double release must be harmless
			}
		}(i)
	}
	wg.Wait()
	if running, queued := a.Load(); running != 0 || queued != 0 {
		t.Errorf("controller not empty after load: running=%d queued=%d", running, queued)
	}
}

// TestStatusOf pins the error → HTTP status mapping.
func TestStatusOf(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{ErrQueueFull, 429},
		{ErrTenantOverQuota, 429},
		{ErrDraining, 503},
		{discoverxfd.ErrBadLimits, 400},
		{context.DeadlineExceeded, 504},
		{context.Canceled, statusClientClosedRequest},
		{badRequest("x"), 400},
		{&httpError{status: 413, msg: "big"}, 413},
		{errors.New("mystery"), 500},
	}
	for _, c := range cases {
		if got := statusOf(c.err); got != c.want {
			t.Errorf("statusOf(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
