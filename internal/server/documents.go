package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"discoverxfd"
)

// Resident documents are the server's incremental-discovery surface:
// POST /v1/documents parses a document once and keeps its built
// hierarchy (and a dedicated engine with its warm partition layer)
// resident; PATCH /v1/documents/{id} applies an update script to it
// in place; POST /v1/documents/{id}/discover then runs incrementally,
// from warm partitions that the update kept or rebuilt column by
// column instead of discarding. This is the
// serving-layer shape of the update path — parse once, mutate and
// re-discover many times.

// document is one resident document: its engine (the warm layer is
// per-engine, so each document gets its own), its built hierarchy,
// and bookkeeping for the listing endpoint.
type document struct {
	id      string
	eng     *discoverxfd.Engine
	h       *discoverxfd.Hierarchy
	created time.Time

	mu      sync.Mutex
	updates int64 // ApplyUpdate batches accepted; guarded by mu
	ops     int64 // update operations inside them; guarded by mu
	runs    int64 // discoveries served; guarded by mu
}

// docStore is the bounded registry of resident documents. Unlike the
// job registry it never evicts silently — a resident document is
// client-owned state — so creation fails once the cap is reached
// until the client deletes one.
type docStore struct {
	mu   sync.Mutex
	max  int
	next int                  // guarded by mu
	docs map[string]*document // guarded by mu
}

func newDocStore(max int) *docStore {
	return &docStore{max: max, docs: make(map[string]*document)}
}

// ErrDocStoreFull rejects document creation at the cap.
var errDocStoreFull = &httpError{status: http.StatusConflict,
	msg: "document store is full; delete a resident document first"}

func (ds *docStore) add(eng *discoverxfd.Engine, h *discoverxfd.Hierarchy) (*document, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if len(ds.docs) >= ds.max {
		return nil, errDocStoreFull
	}
	ds.next++
	d := &document{
		id:      "doc-" + strconv.Itoa(ds.next),
		eng:     eng,
		h:       h,
		created: time.Now(),
	}
	ds.docs[d.id] = d
	return d, nil
}

func (ds *docStore) get(id string) *document {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.docs[id]
}

func (ds *docStore) remove(id string) *document {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	d := ds.docs[id]
	delete(ds.docs, id)
	return d
}

func (ds *docStore) list() []*document {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	out := make([]*document, 0, len(ds.docs))
	for _, d := range ds.docs {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func (ds *docStore) count() int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return len(ds.docs)
}

// docInfo is the wire form of a resident document's summary.
type docInfo struct {
	ID        string `json:"id"`
	Created   string `json:"created"`
	Tuples    int    `json:"tuples"`
	Relations int    `json:"relations"`
	Updatable bool   `json:"updatable"`
	Updates   int64  `json:"updates"`
	UpdateOps int64  `json:"updateOps"`
	Runs      int64  `json:"runs"`
}

func (d *document) info() docInfo {
	d.h.RLock()
	tuples := d.h.TotalTuples()
	rels := len(d.h.Relations)
	upd := d.h.Updatable()
	d.h.RUnlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	return docInfo{
		ID:        d.id,
		Created:   d.created.UTC().Format(time.RFC3339),
		Tuples:    tuples,
		Relations: rels,
		Updatable: upd,
		Updates:   d.updates,
		UpdateOps: d.ops,
		Runs:      d.runs,
	}
}

// handleCreateDocument is POST /v1/documents: parse the body like
// /v1/discover, build the hierarchy, and keep it resident. Building
// counts as work, so it runs under an admission slot.
func (s *Server) handleCreateDocument(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeParams(r)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	ctx := r.Context()
	if req.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.timeout)
		defer cancel()
	}
	// The engine outlives this request as the document's resident
	// engine, so it traces to the bare backend: stamping it with this
	// request's trace ids would mislabel every later run. Runs over
	// resident documents correlate with their requests through the
	// request span's timing instead.
	req.opts.Trace = s.cfg.Trace
	eng := discoverxfd.NewEngine(&req.opts)
	resident := false
	defer func() {
		if !resident {
			s.met.retire(eng) // the engine dies with the request
		}
	}()
	if err := s.decodeBody(ctx, w, r, eng, req); err != nil {
		s.writeError(w, r, err)
		return
	}
	release, err := s.adm.Acquire(ctx, req.tenant)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	defer release()
	s.stats.accepted.Add(1)

	h, err := eng.BuildHierarchy(ctx, req.doc, req.schema)
	if err != nil {
		s.stats.failed.Add(1)
		s.writeError(w, r, decodeErr("document", err))
		return
	}
	d, err := s.docs.add(eng, h)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	resident = true
	s.stats.docsCreated.Add(1)
	s.cfg.Log.Info("document resident", "id", d.id, "tuples", d.h.TotalTuples())
	writeJSONStatus(w, http.StatusCreated, d.info())
}

// handleListDocuments is GET /v1/documents.
func (s *Server) handleListDocuments(w http.ResponseWriter, r *http.Request) {
	ds := s.docs.list()
	infos := make([]docInfo, len(ds))
	for i, d := range ds {
		infos[i] = d.info()
	}
	writeJSONStatus(w, http.StatusOK, map[string]any{"documents": infos})
}

// handleGetDocument is GET /v1/documents/{id}.
func (s *Server) handleGetDocument(w http.ResponseWriter, r *http.Request) {
	d := s.docs.get(r.PathValue("id"))
	if d == nil {
		s.writeError(w, r, docNotFound(r.PathValue("id")))
		return
	}
	writeJSONStatus(w, http.StatusOK, d.info())
}

// handleDeleteDocument is DELETE /v1/documents/{id}.
func (s *Server) handleDeleteDocument(w http.ResponseWriter, r *http.Request) {
	d := s.docs.remove(r.PathValue("id"))
	if d == nil {
		s.writeError(w, r, docNotFound(r.PathValue("id")))
		return
	}
	// Fold the retired engine's final counters so the bridged engine
	// totals stay monotonic across the deletion.
	s.met.retire(d.eng)
	s.stats.docsDeleted.Add(1)
	writeJSONStatus(w, http.StatusOK, map[string]string{"deleted": d.id})
}

// updateResult is the wire form of an accepted update batch.
type updateResult struct {
	Ops int `json:"ops"`
	// Keys holds, per op, the affected pivot key — for inserts, the
	// newly assigned key, which later scripts use to address the
	// tuple.
	Keys []int `json:"keys"`
	// Relations lists the pivot paths of relations the batch touched.
	Relations []string `json:"relations"`
}

// handleUpdateDocument is PATCH /v1/documents/{id}: decode a JSON
// update script (see discoverxfd.ParseUpdates) and apply it to the
// resident hierarchy. On success the engine has already rebuilt the
// warm partitions of the dirty columns, so the next discover on the
// document runs incrementally; a rejected script (unknown key, schema
// violation) returns 422 with the failing op's error — earlier ops in
// the batch remain applied, exactly the library contract.
func (s *Server) handleUpdateDocument(w http.ResponseWriter, r *http.Request) {
	d := s.docs.get(r.PathValue("id"))
	if d == nil {
		s.writeError(w, r, docNotFound(r.PathValue("id")))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	ops, err := discoverxfd.ParseUpdates(body)
	if err != nil {
		s.writeError(w, r, decodeErr("update script", err))
		return
	}
	if len(ops) == 0 {
		s.writeError(w, r, badRequest("empty update script"))
		return
	}
	s.fault("update", r)
	cs, err := d.eng.ApplyUpdate(d.h, ops)
	if err != nil {
		s.stats.docUpdatesRejected.Add(1)
		s.writeError(w, r, &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()})
		return
	}
	d.mu.Lock()
	d.updates++
	d.ops += int64(cs.Ops())
	d.mu.Unlock()
	s.stats.docUpdates.Add(1)
	s.stats.docUpdateOps.Add(int64(cs.Ops()))

	out := updateResult{Ops: cs.Ops(), Keys: cs.Keys}
	for _, rc := range cs.Rels {
		if rc != nil {
			out.Relations = append(out.Relations, string(rc.Rel.Pivot))
		}
	}
	sort.Strings(out.Relations)
	writeJSONStatus(w, http.StatusOK, out)
}

// handleDiscoverDocument is POST /v1/documents/{id}/discover:
// synchronous discovery over the resident hierarchy, warm after the
// first run and incrementally after updates. Honors the same
// ?timeout= and ?degrade= parameters as /v1/discover; limit
// parameters are a 400 (see fixedLimits).
func (s *Server) handleDiscoverDocument(w http.ResponseWriter, r *http.Request) {
	d := s.docs.get(r.PathValue("id"))
	if d == nil {
		s.writeError(w, r, docNotFound(r.PathValue("id")))
		return
	}
	if err := fixedLimits(r.URL.Query()); err != nil {
		s.writeError(w, r, err)
		return
	}
	req, err := s.decodeParams(r)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	ctx := r.Context()
	if req.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.timeout)
		defer cancel()
	}
	release, err := s.adm.Acquire(ctx, req.tenant)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	defer release()
	s.stats.accepted.Add(1)
	req.fire("admitted")

	res, err := d.eng.DiscoverHierarchy(ctx, d.h)
	if err != nil {
		s.stats.failed.Add(1)
		s.writeError(w, r, err)
		return
	}
	d.mu.Lock()
	d.runs++
	d.mu.Unlock()
	s.writeResult(w, r, res, req.degrade)
}

func docNotFound(id string) error {
	return &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("no resident document %q", id)}
}
