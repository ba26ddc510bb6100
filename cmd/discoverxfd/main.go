// Command discoverxfd discovers XML functional dependencies, keys,
// and data redundancies in an XML or JSON document.
//
// Usage:
//
//	discoverxfd [flags] file.{xml,json}
//
// With no -schema flag the schema is inferred from the data (elements
// repeated under one parent become set elements). The report lists
// redundancy-indicating FDs per tuple class with witness counts, then
// keys, in the paper's path notation.
//
// The document format is detected from the file extension or, when
// the extension is not registered, from the first bytes of the
// content; -format=xml or -format=json forces it. JSON documents map
// onto the same data-tree model (arrays become set elements, nested
// objects singleton records, scalars leaves), so discovery is
// format-agnostic.
//
// Resource flags bound what a run may consume: -maxdepth and
// -maxnodes reject oversized or hostile input with an error, while
// -timeout and -maxtuples degrade gracefully — the run stops early
// and the report is marked PARTIAL RESULT.
//
// Observability flags: -trace=<file> writes the run's trace as JSONL
// events (stage spans, per-relation spans, lattice-level progress,
// target lifecycle, governor decisions — see docs/INTERNALS.md §12),
// -v logs run/stage/relation progress to stderr, -vv adds throttled
// per-level and per-target detail, and -metrics prints the engine's
// counter snapshot as JSON on stderr after the run.
//
// Exit status is 0 on success (including a partial result), 1 on a
// runtime error (unreadable file, malformed input, exceeded parse
// limit), and 2 on a usage error (bad flags, missing argument,
// -stream without -schema, a negative limit flag, a document in no
// recognizable format, or input whose shape contradicts the
// schema — an empty document or a mismatched root, classified via
// errors.Is/errors.As on the library's sentinel errors).
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
// so a failed run still leaves a valid (truncated) trace file.
var tracing *cliutil.Tracing

func main() {
	schemaPath := flag.String("schema", "", "schema file in nested-relational notation (default: infer from data)")
	format := flag.String("format", "auto", "document format: auto, xml, or json (auto detects from extension or content)")
	intraOnly := flag.Bool("intra", false, "intra-relation FDs only (skip partition targets)")
	noSets := flag.Bool("nosets", false, "disable set-element FDs (earlier tuple-based notion)")
	ordered := flag.Bool("ordered", false, "compare set elements as ordered lists (Section 4.5 ablation)")
	maxLHS := flag.Int("maxlhs", 0, "bound on LHS attributes per hierarchy level (0 = unbounded)")
	constants := flag.Bool("constants", false, "also report constant-element FDs (empty LHS)")
	printSchema := flag.Bool("printschema", false, "print the (inferred or parsed) schema and exit")
	approx := flag.Float64("approx", 0, "also report approximate FDs within this g3 error budget (e.g. 0.02)")
	suggest := flag.Bool("suggest", false, "print schema-refinement suggestions after the report")
	jsonOut := flag.Bool("json", false, "emit the result as JSON instead of the text report")
	stream := flag.Bool("stream", false, "stream the document instead of materializing it (requires -schema; disables -suggest)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole run; on expiry the partial result found so far is reported (0 = none)")
	maxNodes := flag.Int("maxnodes", 0, "reject documents with more than this many data nodes (0 = unlimited)")
	maxDepth := flag.Int("maxdepth", 0, "reject documents nested deeper than this many elements (0 = parser default)")
	maxTuples := flag.Int("maxtuples", 0, "ingest at most this many tuples, truncating the result (0 = unlimited)")
	tracePath := flag.String("trace", "", "write the run's trace events to this file as JSONL")
	verbose := flag.Bool("v", false, "log run/stage/relation progress to stderr")
	veryVerbose := flag.Bool("vv", false, "like -v plus throttled per-level and per-target detail")
	metrics := flag.Bool("metrics", false, "print the engine's metrics snapshot as JSON on stderr after the run")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: discoverxfd [flags] file.{xml,json}\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	switch *format {
	case "auto", "xml", "json":
	default:
		fmt.Fprintf(os.Stderr, "discoverxfd: unknown -format %q (use auto, xml, or json)\n", *format)
		os.Exit(2)
	}
	tr, err := cliutil.Open(*tracePath, *verbose, *veryVerbose)
	if err != nil {
		fatal(err)
	}
	tracing = tr
	opts := &discoverxfd.Options{
		MaxLHS:          *maxLHS,
		IntraOnly:       *intraOnly,
		NoSetElements:   *noSets,
		OrderedSets:     *ordered,
		KeepConstantFDs: *constants,
		ApproxError:     *approx,
		Limits: discoverxfd.Limits{
			MaxDepth:  *maxDepth,
			MaxNodes:  *maxNodes,
			MaxTuples: *maxTuples,
			Deadline:  *timeout,
		},
		Trace: tracing.Tracer(),
	}
	eng := discoverxfd.NewEngine(opts)
	defer finish(eng, *metrics)
	if *stream {
		if *schemaPath == "" {
			fmt.Fprintf(os.Stderr, "discoverxfd: -stream requires -schema (inference needs the whole document)\n")
			os.Exit(2)
		}
		if *format == "json" {
			fmt.Fprintf(os.Stderr, "discoverxfd: -stream supports only XML input (JSON documents are materialized)\n")
			os.Exit(2)
		}
		runStream(eng, flag.Arg(0), *schemaPath, *jsonOut)
		return
	}

	doc, err := eng.LoadDocumentFile(context.Background(), flag.Arg(0), *format)
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
	} else {
		s, err = discoverxfd.InferSchema(doc)
		if err != nil {
			fatal(err)
		}
	}
	if *printSchema {
		fmt.Print(s.String())
		return
	}

	h, err := eng.BuildHierarchy(context.Background(), doc, s)
	if err != nil {
		fatal(err)
	}
	res, err := eng.DiscoverHierarchy(context.Background(), h)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		if err := discoverxfd.WriteJSON(os.Stdout, res); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("document: %s (%d nodes)\n\n", flag.Arg(0), doc.Size())
	if err := discoverxfd.WriteReport(os.Stdout, res); err != nil {
		fatal(err)
	}
	if len(res.ApproxFDs) > 0 {
		fmt.Printf("\nApproximate XML FDs (g3 ≤ %.3f): %d\n", *approx, len(res.ApproxFDs))
		for _, fd := range res.ApproxFDs {
			fmt.Printf("  %s\n", fd)
		}
	}
	if *suggest {
		fmt.Printf("\nSchema-refinement suggestions:\n")
		sugs := discoverxfd.SuggestRefinements(h, res)
		if len(sugs) == 0 {
			fmt.Println("  none — the document is redundancy-free")
		}
		for _, sg := range sugs {
			fmt.Printf("  %s\n", sg)
		}
	}
}

// runStream discovers over a streamed document: constant memory in
// the document size, at the cost of node-level reporting.
func runStream(eng *discoverxfd.Engine, path, schemaPath string, jsonOut bool) {
	text, err := os.ReadFile(schemaPath)
	if err != nil {
		fatal(err)
	}
	s, err := discoverxfd.ParseSchema(string(text))
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	res, err := eng.DiscoverStream(context.Background(), f, s)
	if err != nil {
		fatal(err)
	}
	if jsonOut {
		if err := discoverxfd.WriteJSON(os.Stdout, res); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("document: %s (streamed)\n\n", path)
	if err := discoverxfd.WriteReport(os.Stdout, res); err != nil {
		fatal(err)
	}
}

// finish flushes the trace file and, under -metrics, prints the
// engine's counter snapshot on stderr. Deferred in main so every
// normal exit path (report, -json, -stream, -printschema) runs it.
func finish(eng *discoverxfd.Engine, metrics bool) {
	if err := tracing.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "discoverxfd: %v\n", err)
		os.Exit(1)
	}
	if metrics {
		if err := cliutil.WriteMetrics(os.Stderr, eng.Metrics()); err != nil {
			fmt.Fprintf(os.Stderr, "discoverxfd: %v\n", err)
			os.Exit(1)
		}
	}
}

// fatal prints the error and exits, classifying it through any %w
// wrapping on the call path: input whose shape contradicts the schema
// is a usage error (exit 2), everything else a runtime error (exit 1).
// The trace file is flushed first so a failed run still leaves a
// valid (truncated) trace.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "discoverxfd: %v\n", err)
	if cerr := tracing.Close(); cerr != nil {
		fmt.Fprintf(os.Stderr, "discoverxfd: %v\n", cerr)
	}
	var rootErr *discoverxfd.RootMismatchError
	if errors.As(err, &rootErr) || errors.Is(err, discoverxfd.ErrEmptyTree) ||
		errors.Is(err, discoverxfd.ErrBadLimits) || errors.Is(err, discoverxfd.ErrUnknownFormat) {
		os.Exit(2)
	}
	os.Exit(1)
}
