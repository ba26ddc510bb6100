package server

import (
	"sort"
	"sync"
	"sync/atomic"
)

// counters is the server's cumulative operational state, updated
// atomically from request handlers and job goroutines.
type counters struct {
	accepted         atomic.Int64 // requests granted an admission slot
	completed        atomic.Int64 // runs that produced a Result
	failed           atomic.Int64 // runs that returned an error
	truncated        atomic.Int64 // Results carrying Stats.Truncated
	deadline         atomic.Int64 // requests that exhausted their wall-clock budget
	rejectedOverload atomic.Int64 // 429s: queue full or tenant over quota
	rejectedDraining atomic.Int64 // 503s: submissions during drain
	panics           atomic.Int64 // handler/job panics contained

	tuples       atomic.Int64 // summed Stats.Tuples of completed runs
	latticeNodes atomic.Int64 // summed Stats.NodesVisited of completed runs

	docsCreated        atomic.Int64 // resident documents built
	docsDeleted        atomic.Int64 // resident documents removed
	docUpdates         atomic.Int64 // accepted PATCH update batches
	docUpdateOps       atomic.Int64 // update operations inside them
	docUpdatesRejected atomic.Int64 // 422s: rejected update scripts

	shedMu sync.Mutex
	// sheds counts declined requests per tenant: reason → count, keyed
	// by tenant. Guarded by shedMu — sheds are already the slow path.
	sheds map[string]map[string]int64 // guarded by shedMu
}

// shedTenant counts one declined request against its tenant.
func (c *counters) shedTenant(tenant, reason string) {
	c.shedMu.Lock()
	if c.sheds == nil {
		c.sheds = make(map[string]map[string]int64)
	}
	byReason := c.sheds[tenant]
	if byReason == nil {
		byReason = make(map[string]int64)
		c.sheds[tenant] = byReason
	}
	byReason[reason]++
	c.shedMu.Unlock()
}

// shedSnapshot copies the per-tenant shed counts.
func (c *counters) shedSnapshot() map[string]map[string]int64 {
	c.shedMu.Lock()
	defer c.shedMu.Unlock()
	out := make(map[string]map[string]int64, len(c.sheds))
	for tenant, byReason := range c.sheds {
		m := make(map[string]int64, len(byReason))
		for reason, n := range byReason {
			m[reason] = n
		}
		out[tenant] = m
	}
	return out
}

// TenantStats is one tenant's view in the stats snapshot: its live
// admission load and its cumulative shed counts by reason.
type TenantStats struct {
	Running int              `json:"running"`
	Queued  int              `json:"queued"`
	Sheds   map[string]int64 `json:"sheds,omitempty"`
}

// StatsSnapshot is one observation of the server (GET /v1/stats).
// Gauges (Running, Queued, Jobs, Draining, and the per-tenant load
// inside Tenants) are read at snapshot time; everything else is
// cumulative.
type StatsSnapshot struct {
	Accepted         int64 `json:"accepted"`
	Completed        int64 `json:"completed"`
	Failed           int64 `json:"failed"`
	Truncated        int64 `json:"truncated"`
	DeadlineExceeded int64 `json:"deadlineExceeded"`
	RejectedOverload int64 `json:"rejectedOverload"`
	RejectedDraining int64 `json:"rejectedDraining"`
	PanicsContained  int64 `json:"panicsContained"`
	Tuples           int64 `json:"tuples"`
	LatticeNodes     int64 `json:"latticeNodes"`

	DocumentsCreated int64 `json:"documentsCreated"`
	DocumentsDeleted int64 `json:"documentsDeleted"`
	DocUpdates       int64 `json:"docUpdates"`
	DocUpdateOps     int64 `json:"docUpdateOps"`
	DocUpdatesReject int64 `json:"docUpdatesRejected"`

	Running   int  `json:"running"`
	Queued    int  `json:"queued"`
	Jobs      int  `json:"jobs"`
	Documents int  `json:"documents"`
	Draining  bool `json:"draining"`

	// Tenants maps each tenant with live admission load or recorded
	// sheds to its per-tenant view (encoding/json renders map keys
	// sorted, so the document is deterministic).
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// Stats returns a consistent-enough snapshot of the server's counters
// and load gauges. Safe to call concurrently with traffic.
func (s *Server) Stats() StatsSnapshot {
	running, queued := s.adm.Load()
	snap := StatsSnapshot{
		Accepted:         s.stats.accepted.Load(),
		Completed:        s.stats.completed.Load(),
		Failed:           s.stats.failed.Load(),
		Truncated:        s.stats.truncated.Load(),
		DeadlineExceeded: s.stats.deadline.Load(),
		RejectedOverload: s.stats.rejectedOverload.Load(),
		RejectedDraining: s.stats.rejectedDraining.Load(),
		PanicsContained:  s.stats.panics.Load(),
		Tuples:           s.stats.tuples.Load(),
		LatticeNodes:     s.stats.latticeNodes.Load(),
		DocumentsCreated: s.stats.docsCreated.Load(),
		DocumentsDeleted: s.stats.docsDeleted.Load(),
		DocUpdates:       s.stats.docUpdates.Load(),
		DocUpdateOps:     s.stats.docUpdateOps.Load(),
		DocUpdatesReject: s.stats.docUpdatesRejected.Load(),
		Running:          running,
		Queued:           queued,
		Jobs:             s.jobs.count(),
		Documents:        s.docs.count(),
		Draining:         s.draining.Load(),
	}
	load := s.adm.PerTenant()
	sheds := s.stats.shedSnapshot()
	if len(load)+len(sheds) > 0 {
		snap.Tenants = make(map[string]TenantStats, len(load)+len(sheds))
		tenants := make(map[string]bool, len(load)+len(sheds))
		for tenant := range load {
			tenants[tenant] = true
		}
		for tenant := range sheds {
			tenants[tenant] = true
		}
		names := make([]string, 0, len(tenants))
		for tenant := range tenants {
			names = append(names, tenant)
		}
		sort.Strings(names)
		for _, tenant := range names {
			snap.Tenants[tenant] = TenantStats{
				Running: load[tenant].Running,
				Queued:  load[tenant].Queued,
				Sheds:   sheds[tenant],
			}
		}
	}
	return snap
}
