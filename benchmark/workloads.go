package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"discoverxfd"
	"discoverxfd/internal/datatree"
	"discoverxfd/internal/relation"
	"discoverxfd/internal/source"
)

// env is what a workload's set-up receives.
type env struct {
	seed int64
	size sizes
	rec  *recorder                       // nil: tracing off
	wrap func(http.Handler) http.Handler // wraps the server's handler (tests only)
}

// workload is one benchmark workload; see README.md for why each one
// exists and what it should and should not move.
type workload struct {
	name    string
	clients int // concurrent closed-loop clients in the timed run
	warmup  int // ops per client before the window
	setup   func(ctx context.Context, e env) (instance, error)
}

var workloads = []workload{
	{"psd_cold", 1, docsPerWorkload, func(ctx context.Context, e env) (instance, error) {
		return newColdDocs(ctx, e, psdDocs(e.seed, e.size))
	}},
	{"wide_lattice", 1, docsPerWorkload, func(ctx context.Context, e env) (instance, error) {
		return newColdDocs(ctx, e, wideDocs(e.seed, e.size))
	}},
	{"serve_mix", 2, 6, newServeMix},
	{"update_resident", 1, 3, newUpdateResident},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// publicPipeline is the op of psd_cold and wide_lattice as a library
// user writes it: a fresh Engine, LoadDocument (LoadJSON for JSON),
// Discover with the schema inferred, WriteJSON.
func publicPipeline(ctx context.Context, format string, data []byte, out *bytes.Buffer) error {
	eng := discoverxfd.NewEngine(nil)
	load := eng.LoadDocument
	if format == "json" {
		load = eng.LoadJSON
	}
	doc, err := load(ctx, bytes.NewReader(data))
	if err != nil {
		return err
	}
	res, err := eng.Discover(ctx, doc, nil)
	if err != nil {
		return err
	}
	return discoverxfd.WriteJSON(out, res)
}

// layeredPipeline is publicPipeline split at the layer boundaries, each
// call a layer span: source (parse), datatree (schema inference),
// relation (hierarchy build), core (discovery), encode. It is the path
// Engine.Discover(ctx, doc, nil) takes. container names the span
// holding the layers.
func layeredPipeline(ctx context.Context, rec *recorder, container, format string, data []byte, out *bytes.Buffer) error {
	eng := discoverxfd.NewEngine(&discoverxfd.Options{Trace: rec.tracer()})
	return rec.span(container, func(*span) error {
		var doc *datatree.Tree
		err := rec.layer("source", func(s *span) error {
			src, err := source.ByFormat(format)
			if err != nil {
				return err
			}
			doc, err = src.Load(ctx, bytes.NewReader(data), datatree.DefaultLimits())
			rec.set(s, "bytes", float64(len(data)))
			return err
		})
		if err != nil {
			return err
		}
		var sch *discoverxfd.Schema
		if err := rec.layer("datatree", func(*span) error {
			sch, err = datatree.InferSchema(doc)
			return err
		}); err != nil {
			return err
		}
		var h *discoverxfd.Hierarchy
		if err := rec.layer("relation", func(s *span) error {
			h, err = relation.BuildContext(ctx, doc, sch, relation.Options{Parse: datatree.DefaultLimits()})
			if err == nil {
				rec.set(s, "tuples", float64(h.TotalTuples()))
			}
			return err
		}); err != nil {
			return err
		}
		return discoverAndEncode(ctx, rec, eng, h, out)
	})
}

// discoverAndEncode runs the core and encode layers over a hierarchy.
func discoverAndEncode(ctx context.Context, rec *recorder, eng *discoverxfd.Engine, h *discoverxfd.Hierarchy, out *bytes.Buffer) error {
	var res *discoverxfd.Result
	err := rec.layer("core", func(s *span) error {
		var err error
		if res, err = eng.DiscoverHierarchy(ctx, h); err != nil {
			return err
		}
		st := res.Stats
		for k, v := range map[string]float64{
			"intra_ms": ms(st.IntraTime), "inter_ms": ms(st.InterTime),
			"lattice_nodes": float64(st.NodesVisited), "partitions_computed": float64(st.PartitionsComputed),
			"cache_hits": float64(st.PartitionCacheHits), "cache_misses": float64(st.PartitionCacheMisses),
			"targets_created": float64(st.TargetsCreated), "targets_dropped": float64(st.TargetsDropped),
			"relations": float64(st.Relations), "relations_reused": float64(st.RelationsReused),
		} {
			rec.set(s, k, v)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return rec.layer("encode", func(s *span) error {
		err := discoverxfd.WriteJSON(out, res)
		rec.set(s, "bytes", float64(out.Len()))
		return err
	})
}

// coldDocs is psd_cold and wide_lattice: one client goes through the
// documents in turn, each op a cold library run on a fresh Engine.
// Traced runs split the op into layers and replay each document
// through xfdd afterwards, for the server-side numbers.
type coldDocs struct {
	e    env
	docs [][]byte
	want []string
	svc  *service // traced runs only
}

func newColdDocs(ctx context.Context, e env, docs [][]byte) (instance, error) {
	w := &coldDocs{e: e, docs: docs}
	for i, d := range docs {
		fp, err := libraryFingerprint(ctx, "xml", d)
		if err != nil {
			return nil, fmt.Errorf("document %d: %w", i, err)
		}
		w.want = append(w.want, fp)
	}
	if e.rec != nil {
		w.svc = startService(ctx, e.rec, e.wrap)
	}
	return w, nil
}

func (w *coldDocs) op(ctx context.Context, _, k int) (func() error, error) {
	i := k % len(w.docs)
	var out bytes.Buffer
	var err error
	if w.e.rec == nil {
		err = publicPipeline(ctx, "xml", w.docs[i], &out)
	} else {
		err = layeredPipeline(ctx, w.e.rec, "library", "xml", w.docs[i], &out)
	}
	if err != nil {
		return nil, err
	}
	return func() error {
		what := fmt.Sprintf("document %d", i)
		if err := matches(w.want[i], out.Bytes(), what); err != nil {
			return err
		}
		if w.svc == nil {
			return nil
		}
		return w.e.rec.span("replay", func(*span) error {
			reply, err := w.svc.call(ctx, http.MethodPost, "/v1/discover", "application/xml", w.docs[i], http.StatusOK)
			if err != nil {
				return err
			}
			return matches(w.want[i], reply, "served "+what)
		})
	}, nil
}

func (w *coldDocs) finish(context.Context) ([]int, error) { return nil, nil }

func (w *coldDocs) close() {
	if w.svc != nil {
		w.svc.close()
	}
}

// serveMix is serve_mix: clients POST raw document bodies to
// /v1/discover, going through the mix in turn from different offsets.
// Traced runs replay each body through the library pipeline, for the
// layer numbers and the server's overhead over them.
type serveMix struct {
	e      env
	bodies []body
	want   []string
	svc    *service
}

func newServeMix(ctx context.Context, e env) (instance, error) {
	w := &serveMix{e: e, bodies: serveBodies(e.seed)}
	for _, b := range w.bodies {
		fp, err := libraryFingerprint(ctx, b.format, b.data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.name, err)
		}
		w.want = append(w.want, fp)
	}
	w.svc = startService(ctx, e.rec, e.wrap)
	return w, nil
}

func (w *serveMix) op(ctx context.Context, c, k int) (func() error, error) {
	i := (c*len(w.bodies)/2 + k) % len(w.bodies)
	b := w.bodies[i]
	reply, err := w.svc.call(ctx, http.MethodPost, "/v1/discover", b.contentType, b.data, http.StatusOK)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.name, err)
	}
	return func() error {
		if err := matches(w.want[i], reply, "served "+b.name); err != nil {
			return err
		}
		if w.e.rec == nil {
			return nil
		}
		var out bytes.Buffer
		if err := w.e.rec.span("replay", func(*span) error {
			return layeredPipeline(ctx, w.e.rec, "library", b.format, b.data, &out)
		}); err != nil {
			return err
		}
		return matches(w.want[i], out.Bytes(), b.name)
	}, nil
}

func (w *serveMix) finish(context.Context) ([]int, error) { return nil, nil }

func (w *serveMix) close() { w.svc.close() }

// updateResident is update_resident: one resident document on xfdd,
// each op a PATCH of a seeded 1% batch followed by a rediscovery. The
// benchmark keeps a library mirror of the document: every served
// result must equal the mirror's after the same scripts, and the final
// one a cold rebuild of the mutated tree. Untraced runs replay the
// mirror after the timed window; traced runs replay it after every op
// and also rebuild cold after every op.
type updateResident struct {
	e     env
	svc   *service
	path  string // /v1/documents/{id}
	eng   *discoverxfd.Engine
	doc   *discoverxfd.Document
	h     *discoverxfd.Hierarchy
	patch *patcher
	log   []served
}

// served is one untraced op awaiting its check.
type served struct {
	k      int
	script []byte
	fp     string
}

func newUpdateResident(ctx context.Context, e env) (instance, error) {
	data := forestDoc(e.seed, e.size)
	w := &updateResident{e: e, svc: startService(ctx, e.rec, e.wrap)}
	ok := false
	defer func() {
		if !ok {
			w.svc.close()
		}
	}()
	reply, err := w.svc.call(ctx, http.MethodPost, "/v1/documents", "application/xml", data, http.StatusCreated)
	if err != nil {
		return nil, err
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(reply, &info); err != nil {
		return nil, fmt.Errorf("decoding the created document: %w", err)
	}
	w.path = "/v1/documents/" + info.ID
	warm, err := w.svc.call(ctx, http.MethodPost, w.path+"/discover", "", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}

	w.eng = discoverxfd.NewEngine(&discoverxfd.Options{Trace: e.rec.tracer()})
	if w.doc, err = w.eng.LoadDocument(ctx, bytes.NewReader(data)); err != nil {
		return nil, err
	}
	if w.h, err = w.eng.BuildHierarchy(ctx, w.doc, nil); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := discoverAndEncode(ctx, nil, w.eng, w.h, &out); err != nil {
		return nil, err
	}
	want, err := fingerprint(out.Bytes())
	if err != nil {
		return nil, err
	}
	if err := matches(want, warm, "served warm-up result"); err != nil {
		return nil, err
	}
	w.patch = newPatcher(e.seed, w.h)
	ok = true
	return w, nil
}

func (w *updateResident) op(ctx context.Context, _, k int) (func() error, error) {
	script := w.patch.next()
	if _, err := w.svc.call(ctx, http.MethodPatch, w.path, "application/json", script, http.StatusOK); err != nil {
		return nil, err
	}
	reply, err := w.svc.call(ctx, http.MethodPost, w.path+"/discover", "", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return func() error {
		if w.e.rec == nil {
			fp, err := fingerprint(reply)
			if err != nil {
				return err
			}
			w.log = append(w.log, served{k, script, fp})
			return nil
		}
		want, err := w.mirror(ctx, script)
		if err != nil {
			return err
		}
		if err := matches(want, reply, "served result"); err != nil {
			return err
		}
		return w.coldCheck(ctx, want)
	}, nil
}

// mirror applies a script to the library mirror and rediscovers.
func (w *updateResident) mirror(ctx context.Context, script []byte) (string, error) {
	ops, err := discoverxfd.ParseUpdates(bytes.NewReader(script))
	if err != nil {
		return "", err
	}
	var out bytes.Buffer
	rec := w.e.rec
	err = rec.span("replay", func(*span) error {
		return rec.span("library", func(*span) error {
			if err := rec.layer("update", func(*span) error {
				_, err := w.eng.ApplyUpdate(w.h, ops)
				return err
			}); err != nil {
				return err
			}
			return discoverAndEncode(ctx, rec, w.eng, w.h, &out)
		})
	})
	if err != nil {
		return "", err
	}
	return fingerprint(out.Bytes())
}

// coldCheck serializes the mirror's mutated document and runs it
// through the whole library pipeline on a fresh engine; the result must
// equal the incremental one.
func (w *updateResident) coldCheck(ctx context.Context, want string) error {
	var out bytes.Buffer
	if err := layeredPipeline(ctx, w.e.rec, "oracle", "xml", xmlBytes(w.doc), &out); err != nil {
		return err
	}
	return matches(want, out.Bytes(), "cold rebuild of the mutated document")
}

func (w *updateResident) finish(ctx context.Context) ([]int, error) {
	var wrong []int
	want := ""
	for _, s := range w.log {
		fp, err := w.mirror(ctx, s.script)
		if err != nil {
			return nil, fmt.Errorf("replaying op %d on the mirror: %w", s.k, err)
		}
		if fp != s.fp {
			wrong = append(wrong, s.k)
		}
		want = fp
	}
	if len(w.log) > 0 {
		if err := w.coldCheck(ctx, want); err != nil {
			wrong = append(wrong, w.log[len(w.log)-1].k)
		}
	}
	return wrong, nil
}

func (w *updateResident) close() { w.svc.close() }
