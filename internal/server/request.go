package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"discoverxfd"
)

// request is one decoded discovery request: the parsed document and
// schema plus the per-request options derived from the server's base
// configuration and the request's own parameters.
type request struct {
	doc    *discoverxfd.Document
	schema *discoverxfd.Schema // nil = infer from the document
	opts   discoverxfd.Options
	// degrade is true for degrade=truncate: budget exhaustion returns
	// the partial Result with 200 instead of 504.
	degrade bool
	tenant  string
	timeout time.Duration
	// fault fires the server's named fault points for this request
	// (chaos builds only; nil otherwise). decodeParams binds it to a
	// copy of the request headers so async job goroutines can fire
	// points after the HTTP exchange has ended.
	fault func(point string)
}

// fire triggers the named per-request fault point; free when no fault
// hook is configured.
func (r *request) fire(point string) {
	if r.fault != nil {
		r.fault(point)
	}
}

// envelope is the JSON request body form: the document as a string
// plus an optional schema in the nested-relational text notation and
// an optional format naming how the document string should be parsed
// ("xml" or "json"; default xml, the historical envelope payload).
// Raw document bodies skip the envelope entirely.
type envelope struct {
	Document string `json:"document"`
	Schema   string `json:"schema,omitempty"`
	Format   string `json:"format,omitempty"`
}

// httpError is an error with a fixed HTTP status, produced by the
// decode layer where the classification is known at the error site.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// decodeParams derives a request's options from its query parameters
// and headers, before the body is touched: the degrade mode, the
// effective timeout, the limits (which may only tighten the server's
// base), and — on chaos builds — the engine-stage fault hook. The
// caller uses the returned timeout to build the request context that
// decodeBody and the run itself then honor.
func (s *Server) decodeParams(r *http.Request) (*request, error) {
	req := &request{
		opts:   s.cfg.Options,
		tenant: tenantOf(r),
	}
	req.opts.Trace = nil // per-request tracers are attached by the caller

	q := r.URL.Query()
	switch q.Get("degrade") {
	case "", "error":
	case "truncate":
		req.degrade = true
	default:
		return nil, badRequest("unknown degrade mode %q (use \"truncate\" or \"error\")", q.Get("degrade"))
	}

	var err error
	if req.timeout, err = timeoutParam(q.Get("timeout"), s.cfg.DefaultTimeout, s.cfg.MaxTimeout); err != nil {
		return nil, err
	}
	if req.opts.Limits, err = limitsParams(q, s.cfg.Limits); err != nil {
		return nil, err
	}
	if err := req.opts.Limits.Validate(); err != nil {
		return nil, &httpError{status: http.StatusBadRequest, msg: err.Error()}
	}

	// Fault injection (chaos builds only: the headers are inert unless
	// the server was constructed with a fault hook).
	if s.cfg.Fault != nil {
		hdr := r.Header.Clone()
		req.fault = func(point string) { s.cfg.Fault(point, hdr) }
		if substr := r.Header.Get("X-Fault-Relation"); substr != "" {
			req.opts.RelationHook = func(pivot discoverxfd.Path) {
				if strings.Contains(string(pivot), substr) {
					panic(fmt.Sprintf("server: injected fault at relation %s", pivot))
				}
			}
		}
	}
	return req, nil
}

// decodeBody reads and parses the document (and optional schema) into
// req through eng, the engine that then runs the request, so parsing
// honors the request's limits. A body with Content-Type
// application/json is either an envelope — a top-level object whose
// "document" member is a string, parsed per its "format" member — or,
// failing that shape, a raw JSON document (schema inferred); any
// other content type is a raw document in the server's default
// format. Parsing runs under ctx — the request context bounded by the
// effective timeout — so a disconnected or out-of-budget client
// aborts the parse, and under http.MaxBytesReader, so an oversized
// body fails with 413. A deadline that fires during parse is an error
// even in degrade=truncate mode: no partial result exists yet. A JSON
// body is read whole into a pooled buffer, returned when decodeBody
// returns: every reader of its bytes finishes here, and the parsers
// copy what they keep.
func (s *Server) decodeBody(ctx context.Context, w http.ResponseWriter, r *http.Request, eng *discoverxfd.Engine, req *request) error {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var err error
	if isJSON(r.Header.Get("Content-Type")) {
		buf := jsonBodies.Get().(*bytes.Buffer)
		defer putJSONBody(buf)
		if _, rerr := buf.ReadFrom(body); rerr != nil {
			return decodeErr("request body", rerr)
		}
		data := buf.Bytes()
		if !isEnvelope(data) {
			req.doc, err = eng.LoadJSON(ctx, bytes.NewReader(data))
			if err != nil {
				return decodeErr("document", err)
			}
			return nil
		}
		var env envelope
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&env); err != nil {
			return decodeErr("request envelope", err)
		}
		if env.Document == "" {
			return badRequest("request envelope has no document")
		}
		if env.Schema != "" {
			sch, err := discoverxfd.ParseSchema(env.Schema)
			if err != nil {
				return decodeErr("schema", err)
			}
			req.schema = sch
		}
		req.doc, err = s.loadAs(ctx, eng, env.Format, strings.NewReader(env.Document))
	} else {
		req.doc, err = s.loadAs(ctx, eng, "", body)
	}
	if err != nil {
		return decodeErr("document", err)
	}
	return nil
}

// jsonBodies holds the buffers JSON bodies are read into, so a body
// costs no allocation once a buffer has grown to its size.
var jsonBodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putJSONBody returns buf to jsonBodies, unless it grew past 1 MiB:
// one large body must not stay pinned in the pool.
func putJSONBody(buf *bytes.Buffer) {
	if buf.Cap() <= 1<<20 {
		buf.Reset()
		jsonBodies.Put(buf)
	}
}

// isJSON reports whether a Content-Type header names application/json.
// Type and subtype compare case-insensitively, and parameters and the
// white space around them are ignored (RFC 9110 §8.3.1).
func isJSON(ct string) bool {
	mt, _, _ := strings.Cut(ct, ";")
	return strings.EqualFold(strings.TrimSpace(mt), "application/json")
}

// isEnvelope reports whether a JSON body has the envelope shape: the
// body is valid JSON, its top level is an object, and the last of its
// members named "document" holds a string. The name is unescaped and
// matched case-insensitively, as encoding/json matches struct fields,
// so a later null or object "document" cancels an earlier string.
// Everything else is a raw JSON document. The top-level members are
// walked without decoding them, and the body is validated only when
// the walk finds the envelope shape.
func isEnvelope(data []byte) bool {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return false
	}
	str := false
	for i = skipSpace(data, i+1); i < len(data) && data[i] == '"'; {
		end := skipString(data, i)
		named := isDocumentName(data[i:end])
		if i = skipSpace(data, end); i == len(data) || data[i] != ':' {
			return false
		}
		i = skipSpace(data, i+1)
		if named {
			str = i < len(data) && data[i] == '"'
		}
		if i = skipSpace(data, skipValue(data, i)); i == len(data) || data[i] != ',' {
			break
		}
		i = skipSpace(data, i+1)
	}
	return str && json.Valid(data)
}

// isDocumentName reports whether the quoted member name q spells
// "document" in any case once unescaped.
func isDocumentName(q []byte) bool {
	if bytes.IndexByte(q, '\\') < 0 {
		return len(q) >= 2 && bytes.EqualFold(q[1:len(q)-1], []byte("document"))
	}
	var name string
	return json.Unmarshal(q, &name) == nil && strings.EqualFold(name, "document")
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON white space.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the index after the string whose opening quote
// is at i, or len(data) if it does not close.
func skipString(data []byte, i int) int {
	for i++; i < len(data); i++ {
		switch data[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return len(data)
}

// skipValue returns the index after the value starting at i, which
// it does not validate: a string, an object or array through its
// matching close, or a scalar up to the next delimiter.
func skipValue(data []byte, i int) int {
	depth := 0
	for ; i < len(data); i++ {
		switch data[i] {
		case '"':
			i = skipString(data, i) - 1
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',', ' ', '\n', '\t', '\r':
			if depth == 0 {
				return i
			}
		}
	}
	return i
}

// loadAs parses one document in the named format through eng; "" falls
// back to the server's default.
func (s *Server) loadAs(ctx context.Context, eng *discoverxfd.Engine, format string, r io.Reader) (*discoverxfd.Document, error) {
	if format == "" {
		format = s.cfg.DefaultFormat
	}
	switch format {
	case "xml":
		return eng.LoadDocument(ctx, r)
	case "json":
		return eng.LoadJSON(ctx, r)
	default:
		return nil, badRequest("unknown document format %q (use \"xml\" or \"json\")", format)
	}
}

// decodeErr classifies a body/parse failure: client-caused problems
// are 400s (413 for an oversized body), everything else keeps its
// error for the generic mapping in writeError.
func decodeErr(what string, err error) error {
	var httpErr *httpError
	if errors.As(err, &httpErr) {
		return httpErr // already classified at the error site
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return &httpError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("%s exceeds the %d-byte body limit", what, tooLarge.Limit)}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf("bad %s: %v", what, err)}
}

// tenantOf returns the request's tenant identity (the X-Tenant
// header; absent means the anonymous tenant, which shares one quota).
func tenantOf(r *http.Request) string { return r.Header.Get("X-Tenant") }

// timeoutParam resolves the per-request wall-clock budget: the
// ?timeout= duration if given, else the server default, never more
// than the server maximum.
func timeoutParam(v string, def, max time.Duration) (time.Duration, error) {
	d := def
	if v != "" {
		var err error
		if d, err = time.ParseDuration(v); err != nil {
			return 0, badRequest("bad timeout %q: %v", v, err)
		}
		if d <= 0 {
			return 0, badRequest("bad timeout %q: must be positive", v)
		}
	}
	if max > 0 && (d == 0 || d > max) {
		d = max
	}
	return d, nil
}

// limitParams are the query parameters that tighten Limits fields,
// in the order limitsParams reads them.
var limitParams = []string{"max_tuples", "max_lattice_level", "max_nodes", "max_depth"}

// limitsParams tightens the server's base limits with the request's
// query parameters. A request may only narrow the budget: when the
// server bounds a field, a larger (or unlimited) request value is
// clamped to the server's — limits are a protection, not a
// negotiation.
func limitsParams(q url.Values, base discoverxfd.Limits) (discoverxfd.Limits, error) {
	l := base
	for i, dst := range []*int{&l.MaxTuples, &l.MaxLatticeLevel, &l.MaxNodes, &l.MaxDepth} {
		// l starts as base, so *dst is the server's bound until set below.
		name, server := limitParams[i], *dst
		vs := q[name]
		if len(vs) == 0 {
			continue
		}
		n, err := strconv.Atoi(vs[0])
		if err != nil {
			return l, badRequest("bad %s %q: %v", name, vs[0], err)
		}
		if n < 0 {
			return l, badRequest("bad %s %d: must be non-negative", name, n)
		}
		// 0 asks for "unlimited", which only an unbounded server grants.
		if server > 0 && (n == 0 || n > server) {
			n = server
		}
		*dst = n
	}
	return l, nil
}

// fixedLimits rejects limit parameters on a resident document's
// discover: its engine, and so its limits, were fixed when POST
// /v1/documents created it, and the warm layer is not keyed by them.
func fixedLimits(q url.Values) error {
	for _, name := range limitParams {
		if q.Has(name) {
			return badRequest("%s is not accepted here: a resident document's limits are set at POST /v1/documents", name)
		}
	}
	return nil
}
