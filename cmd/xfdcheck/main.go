// Command xfdcheck verifies a list of XML FD / Key constraints
// against an XML document — constraint regression testing: pin the
// dependencies your data must satisfy and fail the build when an
// update breaks one.
//
// Usage:
//
//	xfdcheck -constraints rules.txt data.xml
//
// The constraints file holds one constraint per line in the paper's
// notation ('#' comments allowed):
//
//	{./ISBN} -> ./title w.r.t. C(/warehouse/state/store/book)
//	{../contact/name, ./ISBN} -> ./price w.r.t. C(/warehouse/state/store/book)
//	{./contact} KEY of C(/warehouse/state/store)
//
// Observability flags mirror discoverxfd's: -trace=<file> writes the
// check's trace events as JSONL (each constraint yields a `check`
// event), -v/-vv log progress to stderr, and -metrics prints the
// engine's counter snapshot as JSON on stderr after the checks.
//
// Exit status is 0 when every constraint holds, 1 when a constraint
// is violated or a runtime error occurs, and 2 on a usage error (bad
// flags, -stream without -schema, a negative limit flag, or input whose shape contradicts
// the schema — classified via errors.Is/errors.As on the library's
// sentinel errors).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"discoverxfd"
	"discoverxfd/internal/cliutil"
)

// tracing is the run's tracer stack; fatal flushes it before exiting
// so a failed check still leaves a valid (truncated) trace file.
var tracing *cliutil.Tracing

func main() {
	rulesPath := flag.String("constraints", "", "constraints file (required)")
	schemaPath := flag.String("schema", "", "schema file in nested-relational notation (default: infer)")
	quiet := flag.Bool("quiet", false, "print only violated constraints")
	approx := flag.Float64("approx", 0, "tolerate FD violations up to this g3 error fraction (e.g. 0.01)")
	stream := flag.Bool("stream", false, "stream the document instead of materializing it (requires -schema)")
	tracePath := flag.String("trace", "", "write the check's trace events to this file as JSONL")
	verbose := flag.Bool("v", false, "log progress to stderr")
	veryVerbose := flag.Bool("vv", false, "like -v plus throttled per-level and per-target detail")
	metrics := flag.Bool("metrics", false, "print the engine's metrics snapshot as JSON on stderr after the checks")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: xfdcheck -constraints rules.txt [flags] data.xml\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 || *rulesPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	tr, err := cliutil.Open(*tracePath, *verbose, *veryVerbose)
	if err != nil {
		fatal(err)
	}
	tracing = tr

	rulesText, err := os.ReadFile(*rulesPath)
	if err != nil {
		fatal(err)
	}
	cs, err := discoverxfd.ParseConstraints(string(rulesText))
	if err != nil {
		fatal(err)
	}
	var s *discoverxfd.Schema
	if *schemaPath != "" {
		text, err := os.ReadFile(*schemaPath)
		if err != nil {
			fatal(err)
		}
		s, err = discoverxfd.ParseSchema(string(text))
		if err != nil {
			fatal(err)
		}
	}
	eng := discoverxfd.NewEngine(&discoverxfd.Options{Trace: tracing.Tracer()})
	var h *discoverxfd.Hierarchy
	if *stream {
		if s == nil {
			fmt.Fprintln(os.Stderr, "xfdcheck: -stream requires -schema")
			flag.Usage()
			os.Exit(2)
		}
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		h, err = eng.BuildHierarchyStream(context.Background(), f, s)
		if err != nil {
			fatal(err)
		}
	} else {
		doc, err := eng.LoadDocumentFile(context.Background(), flag.Arg(0), "auto")
		if err != nil {
			fatal(err)
		}
		h, err = eng.BuildHierarchy(context.Background(), doc, s)
		if err != nil {
			fatal(err)
		}
	}
	results, err := eng.CheckConstraints(context.Background(), h, cs)
	if err != nil {
		fatal(err)
	}
	violated := 0
	for _, r := range results {
		tolerated := !r.Holds && !r.Constraint.IsKey && *approx > 0 && r.G3Error <= *approx
		if !r.Holds && !tolerated {
			violated++
		}
		if tolerated {
			fmt.Printf("%-8s %s (g3=%.4f within budget)\n", "NEAR", r.Constraint, r.G3Error)
			continue
		}
		if !*quiet || !r.Holds {
			fmt.Println(r)
		}
	}
	finish(eng, *metrics)
	if violated > 0 {
		fmt.Fprintf(os.Stderr, "xfdcheck: %d of %d constraint(s) violated\n", violated, len(results))
		os.Exit(1)
	}
	if !*quiet {
		fmt.Printf("all %d constraint(s) hold\n", len(results))
	}
}

// finish flushes the trace file and, under -metrics, prints the
// engine's counter snapshot on stderr; it runs before the
// violation-driven exit so a failing check still leaves both.
func finish(eng *discoverxfd.Engine, metrics bool) {
	if err := tracing.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "xfdcheck: %v\n", err)
		os.Exit(1)
	}
	if metrics {
		if err := cliutil.WriteMetrics(os.Stderr, eng.Metrics()); err != nil {
			fmt.Fprintf(os.Stderr, "xfdcheck: %v\n", err)
			os.Exit(1)
		}
	}
}

// fatal prints the error and exits, classifying it through any %w
// wrapping on the call path: malformed input (wrong root, empty
// document) exits 2 like other usage errors, everything else exits 1.
// The trace file is flushed first so a failed check still leaves a
// valid (truncated) trace.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "xfdcheck: %v\n", err)
	if cerr := tracing.Close(); cerr != nil {
		fmt.Fprintf(os.Stderr, "xfdcheck: %v\n", cerr)
	}
	var rootErr *discoverxfd.RootMismatchError
	if errors.As(err, &rootErr) || errors.Is(err, discoverxfd.ErrEmptyTree) ||
		errors.Is(err, discoverxfd.ErrBadLimits) || errors.Is(err, discoverxfd.ErrUnknownFormat) {
		os.Exit(2)
	}
	os.Exit(1)
}
