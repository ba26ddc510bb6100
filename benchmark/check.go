package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"

	"discoverxfd/internal/server"
)

// fingerprint renders the semantic content of an encoded Result — FDs
// with their redundancy witnesses, keys and approximate FDs, but not
// Stats — as one canonical string. Library results and HTTP replies
// both pass through it, so a served result and a library result agree
// exactly when their fingerprints do.
func fingerprint(encoded []byte) (string, error) {
	type fd struct {
		Class           string   `json:"class"`
		LHS             []string `json:"lhs"`
		RHS             string   `json:"rhs"`
		Inter           bool     `json:"interRelation"`
		Approximate     bool     `json:"approximate"`
		G3Error         float64  `json:"g3Error"`
		RedundantValues int      `json:"redundantValues"`
		WitnessGroups   int      `json:"witnessGroups"`
	}
	var res struct {
		FDs  []fd `json:"fds"`
		Keys []struct {
			Class string   `json:"class"`
			LHS   []string `json:"lhs"`
			Inter bool     `json:"interRelation"`
		} `json:"keys"`
		ApproxFDs []fd `json:"approxFDs"`
	}
	if err := json.Unmarshal(encoded, &res); err != nil {
		return "", fmt.Errorf("decoding a result: %w", err)
	}
	var lines []string
	for _, f := range res.FDs {
		lines = append(lines, fmt.Sprintf("fd %s {%s} -> %s inter=%t redundant=%d groups=%d",
			f.Class, strings.Join(f.LHS, ","), f.RHS, f.Inter, f.RedundantValues, f.WitnessGroups))
	}
	for _, k := range res.Keys {
		lines = append(lines, fmt.Sprintf("key %s {%s} inter=%t", k.Class, strings.Join(k.LHS, ","), k.Inter))
	}
	for _, f := range res.ApproxFDs {
		lines = append(lines, fmt.Sprintf("approx %s {%s} -> %s g3=%g", f.Class, strings.Join(f.LHS, ","), f.RHS, f.G3Error))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n"), nil
}

// libraryFingerprint runs the public pipeline on one document — the
// path psd_cold times — and fingerprints its encoded Result. Set-up
// uses it to fix the expected output of every input.
func libraryFingerprint(ctx context.Context, format string, data []byte) (string, error) {
	var out bytes.Buffer
	if err := publicPipeline(ctx, format, data, &out); err != nil {
		return "", err
	}
	return fingerprint(out.Bytes())
}

// matches compares an encoded result with its expected fingerprint.
func matches(want string, encoded []byte, what string) error {
	got, err := fingerprint(encoded)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if got != want {
		return fmt.Errorf("%s: result differs from the expected one", what)
	}
	return nil
}

// service is an in-process xfdd behind a loopback listener, with the
// HTTP client the workloads call it through.
type service struct {
	srv *server.Server
	ts  *httptest.Server
	hc  *http.Client
	rec *recorder
}

// startService starts xfdd with default settings, its trace events
// going to rec (nil: tracing off). wrap, when set, wraps the handler
// (the seeded-bug test uses it to corrupt replies).
func startService(ctx context.Context, rec *recorder, wrap func(http.Handler) http.Handler) *service {
	srv := server.New(ctx, server.Config{Trace: rec.tracer()})
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	return &service{
		srv: srv,
		ts:  httptest.NewServer(h),
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}},
		rec: rec,
	}
}

// call sends one request and returns the reply body, failing on any
// status but want. In a traced run the exchange is an "http" span.
func (s *service) call(ctx context.Context, method, path, contentType string, data []byte, want int) ([]byte, error) {
	var reply []byte
	err := s.rec.span("http", func(sp *span) error {
		req, err := http.NewRequestWithContext(ctx, method, s.ts.URL+path, bytes.NewReader(data))
		if err != nil {
			return err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := s.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if reply, err = io.ReadAll(resp.Body); err != nil {
			return fmt.Errorf("%s %s: reading the reply: %w", method, path, err)
		}
		s.rec.set(sp, "bytes", float64(len(reply)))
		if resp.StatusCode != want {
			return fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, resp.StatusCode, want, reply)
		}
		return nil
	})
	return reply, err
}

func (s *service) close() {
	s.ts.Close()
	s.hc.CloseIdleConnections()
	_ = s.srv.Drain(context.Background()) // no jobs run, so draining cannot be cut short
}
