package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"discoverxfd"
	"discoverxfd/internal/trace"
)

// Job states. A job is queued from submission until it wins an
// admission slot, running until its discovery finishes, and then done
// (result available), failed (error available), or cancelled.
const (
	stateQueued    = "queued"
	stateRunning   = "running"
	stateDone      = "done"
	stateFailed    = "failed"
	stateCancelled = "cancelled"
)

// job is one async discovery. The feed carries the run's trace events
// to SSE and polling observers; result holds the rendered response
// bytes — rendered once, served verbatim, so the async path is
// byte-identical to the sync one.
type job struct {
	id      string
	tenant  string
	created time.Time
	cancel  context.CancelFunc
	feed    *trace.Feed

	mu       sync.Mutex
	state    string    // guarded by mu
	result   []byte    // rendered WriteJSON output (state done); guarded by mu
	status   int       // HTTP status for result (state done/failed); guarded by mu
	errMsg   string    // state failed/cancelled; guarded by mu
	truncate bool      // Stats.Truncated of the finished run; guarded by mu
	finished time.Time // guarded by mu
}

// view is the job's status document (GET /v1/jobs/{id}).
type jobView struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Truncated bool   `json:"truncated,omitempty"`
	Error     string `json:"error,omitempty"`
	Created   string `json:"created"`
	Finished  string `json:"finished,omitempty"`
	Links     struct {
		Events string `json:"events"`
		Result string `json:"result"`
	} `json:"links"`
}

func (j *job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:        j.id,
		State:     j.state,
		Truncated: j.truncate,
		Error:     j.errMsg,
		Created:   j.created.UTC().Format(time.RFC3339Nano),
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	v.Links.Events = "/v1/jobs/" + j.id + "/events"
	v.Links.Result = "/v1/jobs/" + j.id + "/result"
	return v
}

func (j *job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
}

// finish records the job's terminal state and closes its feed so
// observers drain and disconnect.
func (j *job) finish(state string, status int, result []byte, errMsg string, truncated bool) {
	j.mu.Lock()
	if j.state == stateDone || j.state == stateFailed || j.state == stateCancelled {
		j.mu.Unlock() // already terminal (e.g. cancel raced completion)
		return
	}
	j.state = state
	j.status = status
	j.result = result
	j.errMsg = errMsg
	j.truncate = truncated
	j.finished = time.Now()
	j.mu.Unlock()
	j.feed.Close()
}

// registry tracks jobs by id, evicting the oldest finished jobs
// beyond its cap, and owns the join point the drain path waits on.
type registry struct {
	mu    sync.Mutex
	byID  map[string]*job // guarded by mu
	order []string        // insertion order, for eviction; guarded by mu
	cap   int
	seq   int // guarded by mu
	//lint:governed drain join point for job goroutines: jobs outlive any single run, so they are joined per-server here rather than per-run by the engine's workerGroup; each spawn carries its own recover barrier.
	wg sync.WaitGroup
}

func newRegistry(cap int) *registry {
	return &registry{byID: make(map[string]*job), cap: cap}
}

// add registers a new job whose run traces to feed, evicting the
// oldest finished one if the registry is full. Returns nil if every
// slot holds a live job — the registry refuses to grow unboundedly,
// and refuses to forget live work.
func (r *registry) add(tenant string, feed *trace.Feed, cancel context.CancelFunc) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.order) >= r.cap && !r.evictLocked() {
		return nil
	}
	r.seq++
	j := &job{
		id:      "job-" + strconv.Itoa(r.seq),
		tenant:  tenant,
		created: time.Now(),
		cancel:  cancel,
		feed:    feed,
		state:   stateQueued,
	}
	r.byID[j.id] = j
	r.order = append(r.order, j.id)
	return j
}

// evictLocked drops the oldest terminal job; false if none is.
// Caller must hold r.mu.
func (r *registry) evictLocked() bool {
	for i, id := range r.order {
		j := r.byID[id]
		j.mu.Lock()
		terminal := j.state == stateDone || j.state == stateFailed || j.state == stateCancelled
		j.mu.Unlock()
		if terminal {
			delete(r.byID, id)
			r.order = append(r.order[:i], r.order[i+1:]...)
			return true
		}
	}
	return false
}

func (r *registry) get(id string) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}

func (r *registry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}

// wait joins every job goroutine (drain).
func (r *registry) wait() { r.wg.Wait() }

// handleSubmitJob is POST /v1/jobs: decode and enter admission
// synchronously (the client learns about a bad request or a shed
// immediately), then run discovery on a job goroutine that waits for
// its admission ticket like any sync request. Responds 202 with the
// job's status document.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeParams(r)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	// The job outlives the HTTP request: it runs under the server's
	// lifecycle context, bounded by the request's own timeout.
	ctx, cancel := context.WithCancel(s.base)
	if req.timeout > 0 {
		ctx, cancel = context.WithTimeout(s.base, req.timeout)
	}
	feed := trace.NewFeed(s.cfg.FeedCapacity)
	req.opts.Trace = trace.Multi(s.requestTracer(r), feed)
	eng := discoverxfd.NewEngine(&req.opts)
	// Until the job goroutine takes them over, the job context and the
	// engine die with this handler.
	started := false
	defer func() {
		if !started {
			cancel()
			s.met.retire(eng)
		}
	}()
	s.fault("decode", r)
	// The body is read under the *request* context (the upload needs
	// the connection) but parse CPU is bounded by the job ctx too;
	// use the request context here so a client disconnect mid-upload
	// fails the submission, not a zombie job.
	if err := s.decodeBody(r.Context(), w, r, eng, req); err != nil {
		s.writeError(w, r, err)
		return
	}

	// Admission sheds synchronously: a job the server cannot take is
	// refused here with 429/503, before any 202 promises a result.
	tk, err := s.adm.Enter(req.tenant)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	j := s.jobs.add(req.tenant, feed, cancel)
	if j == nil {
		s.adm.Abandon(tk)
		s.stats.rejectedOverload.Add(1)
		noteReason(r, "jobs_full")
		s.observeShed(req.tenant, "jobs_full")
		w.Header().Set("Retry-After", retryAfterValue(s.cfg.RetryAfter))
		writeJSONStatus(w, http.StatusTooManyRequests,
			map[string]string{"error": "job registry full; retry later"})
		return
	}

	started = true
	s.jobs.wg.Add(1)
	//lint:governed job goroutines are joined by registry.wait on the drain path, and runJob's recover barrier turns their panics into failed jobs.
	go s.runJob(ctx, cancel, j, eng, req, tk)

	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSONStatus(w, http.StatusAccepted, j.view())
}

// runJob executes one async discovery end to end: the wait for the
// admission ticket taken at submission, run, render, terminal state.
// Its recover barrier is the async counterpart of the HTTP recovery
// middleware — a panicking job fails that job, never the process.
func (s *Server) runJob(ctx context.Context, cancel context.CancelFunc, j *job, eng *discoverxfd.Engine, req *request, tk *ticket) {
	defer s.jobs.wg.Done()
	defer cancel()
	defer s.met.retire(eng) // one-shot engine: fold its counters on the way out
	defer func() {
		if p := recover(); p != nil {
			s.stats.panics.Add(1)
			s.cfg.Log.Error("job panic", "job", j.id, "panic", fmt.Sprint(p))
			s.cfg.Log.Debug("job panic stack", "stack", string(debug.Stack()))
			j.finish(stateFailed, http.StatusInternalServerError, nil, "internal server error", false)
		}
	}()

	release, err := s.adm.Wait(ctx, tk)
	if err != nil {
		s.jobFailed(j, err)
		return
	}
	defer release()

	s.stats.accepted.Add(1)
	req.fire("admitted")
	j.setState(stateRunning)
	res, err := eng.Discover(ctx, req.doc, req.schema)
	if err != nil {
		s.stats.failed.Add(1)
		s.jobFailed(j, err)
		return
	}
	s.finishRun(res)
	if status, ok := s.degradeStatus(res, req.degrade); !ok {
		j.finish(stateFailed, status, nil,
			"deadline exceeded: "+res.Stats.TruncatedReason, res.Stats.Truncated)
		return
	}
	var buf bytes.Buffer
	if err := discoverxfd.WriteJSON(&buf, res); err != nil {
		s.jobFailed(j, err)
		return
	}
	j.finish(stateDone, http.StatusOK, buf.Bytes(), "", res.Stats.Truncated)
}

// jobFailed records a job's error with the same status mapping the
// sync path uses; a run aborted by cancellation (DELETE, or the
// drain's grace period expiring) lands in the cancelled state.
func (s *Server) jobFailed(j *job, err error) {
	state := stateFailed
	if errors.Is(err, context.Canceled) {
		state = stateCancelled
	}
	j.finish(state, statusOf(err), nil, err.Error(), false)
}
