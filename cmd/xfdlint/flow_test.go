package main

// flow_test.go covers the v2 surface: the seeded-bug regression for
// the flow-aware analyzers (each planted bug must produce exactly one
// diagnostic), SARIF output, the GitHub annotation mode, and the
// suppression audit.

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"discoverxfd/internal/analysis"
)

// copyModule clones the module tree (minus VCS metadata and the lint
// fixtures, which go list skips anyway) into a temp dir so tests can
// plant bugs without touching the working tree.
func copyModule(t *testing.T) string {
	t.Helper()
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".claude", "testdata":
				if rel != "." {
					return filepath.SkipDir
				}
			}
			if rel == "." {
				return nil
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// mutate rewrites one file under root, replacing old (which must be
// present exactly once) with new.
func mutate(t *testing.T, root, relPath, old, new string) {
	t.Helper()
	path := filepath.Join(root, relPath)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), old); n != 1 {
		t.Fatalf("%s: seeded-bug anchor occurs %d times, want 1:\n%s", relPath, n, old)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(data), old, new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// lint runs the built tool standalone in dir and returns its combined
// output and exit error.
func lint(t *testing.T, bin, dir string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	return buf.String(), err
}

// countFindings counts diagnostic lines attributed to one analyzer.
func countFindings(out, analyzer string) int {
	n := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasSuffix(strings.TrimSpace(line), "["+analyzer+"]") {
			n++
		}
	}
	return n
}

// TestSeededFlowBugs is the acceptance check for the flow-aware
// analyzers: deleting one `defer e.mu.Unlock()` in the engine and the
// deferred stage_end emit in the run pipeline must each produce
// exactly one diagnostic from the right analyzer.
func TestSeededFlowBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and type-checks the whole module")
	}
	bin := buildTool(t)

	t.Run("lockguard", func(t *testing.T) {
		tree := copyModule(t)
		mutate(t, tree, filepath.Join("internal", "core", "engine.go"),
			"\te.mu.Lock()\n\tdefer e.mu.Unlock()\n\tfor _, w := range e.warm {", "\te.mu.Lock()\n\tfor _, w := range e.warm {")
		out, err := lint(t, bin, tree)
		if err == nil {
			t.Fatalf("seeded unlock leak not caught:\n%s", out)
		}
		if got := countFindings(out, "lockguard"); got != 1 {
			t.Fatalf("lockguard findings = %d, want exactly 1:\n%s", got, out)
		}
		if !strings.Contains(out, "e.mu is locked but not released on every path") {
			t.Fatalf("unexpected diagnostic:\n%s", out)
		}
	})

	t.Run("spanbalance", func(t *testing.T) {
		tree := copyModule(t)
		mutate(t, tree, filepath.Join("internal", "core", "run.go"),
			`		if run.tr != nil {
			trace.Emit(run.tr, &trace.Event{Kind: trace.KindStageEnd, Stage: name, DurationMS: ms(run.res.Stats.Stages[i])})
		}
`, "")
		out, err := lint(t, bin, tree)
		if err == nil {
			t.Fatalf("seeded missing stage_end not caught:\n%s", out)
		}
		if got := countFindings(out, "spanbalance"); got != 1 {
			t.Fatalf("spanbalance findings = %d, want exactly 1:\n%s", got, out)
		}
		if !strings.Contains(out, "StageStart span opened here can reach return without a KindStageEnd emit") {
			t.Fatalf("unexpected diagnostic:\n%s", out)
		}
	})
}

// TestSARIFAndAnnotations lints the clean repository with -sarif and
// -github: the SARIF log must be valid and list the full rule set,
// and no annotations may be emitted.
func TestSARIFAndAnnotations(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	bin := buildTool(t)
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	sarifPath := filepath.Join(t.TempDir(), "xfdlint.sarif")
	out, err := lint(t, bin, root, "-sarif", sarifPath, "-github")
	if err != nil {
		t.Fatalf("clean tree lint failed: %v\n%s", err, out)
	}
	if strings.Contains(out, "::error") {
		t.Fatalf("clean tree produced annotations:\n%s", out)
	}
	data, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Rules []any `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []any `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("invalid SARIF: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 ||
		len(log.Runs[0].Tool.Driver.Rules) != len(analysis.All()) ||
		len(log.Runs[0].Results) != 0 {
		t.Fatalf("unexpected SARIF shape: %s", data)
	}
}

// TestGitHubAnnotationsOnFindings plants a bug and expects a ::error
// workflow command with repo-relative path.
func TestGitHubAnnotationsOnFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and type-checks the whole module")
	}
	bin := buildTool(t)
	tree := copyModule(t)
	mutate(t, tree, filepath.Join("internal", "core", "engine.go"),
		"\te.mu.Lock()\n\tdefer e.mu.Unlock()\n\tfor _, w := range e.warm {", "\te.mu.Lock()\n\tfor _, w := range e.warm {")
	out, err := lint(t, bin, tree, "-github")
	if err == nil {
		t.Fatal("expected findings exit status")
	}
	if !strings.Contains(out, "::error file=internal/core/engine.go,line=") {
		t.Fatalf("missing or mis-pathed annotation:\n%s", out)
	}
}

// TestSuppressionsAudit runs the audit twice: the repository's own
// ledger must be fully used, and a planted stale directive must fail
// the audit with exit 1.
func TestSuppressionsAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	bin := buildTool(t)
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	out, err := lint(t, bin, root, "-suppressions")
	if err != nil {
		t.Fatalf("audit of the clean tree failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "0 stale or unknown") {
		t.Fatalf("unexpected audit summary:\n%s", out)
	}

	tree := copyModule(t)
	mutate(t, tree, filepath.Join("internal", "core", "engine.go"),
		"type Engine struct {",
		"//lint:detorder planted stale directive for the audit test\ntype Engine struct {")
	out, err = lint(t, bin, tree, "-suppressions")
	if err == nil {
		t.Fatalf("stale directive not caught:\n%s", out)
	}
	if !strings.Contains(out, "STALE //lint:detorder") {
		t.Fatalf("missing stale report:\n%s", out)
	}

	// An unknown directive fails too.
	tree2 := copyModule(t)
	mutate(t, tree2, filepath.Join("internal", "core", "engine.go"),
		"type Engine struct {",
		"//lint:nosuchcheck mystery directive\ntype Engine struct {")
	out, err = lint(t, bin, tree2, "-suppressions")
	if err == nil || !strings.Contains(out, "UNKNOWN //lint:nosuchcheck") {
		t.Fatalf("unknown directive not caught (err=%v):\n%s", err, out)
	}
}

// TestFixDryRunAndApply plants an errwrap violation, verifies that
// -fix -dry-run reports it without changing the tree and exits 1,
// then applies it with -fix and expects a clean follow-up lint.
func TestFixDryRunAndApply(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and type-checks the whole module")
	}
	bin := buildTool(t)
	tree := copyModule(t)
	target := filepath.Join("internal", "core", "parsefd.go")
	mutate(t, tree, target,
		`rhs := schema.RelPath(fields[0])
	if err := checkRelPath(rhs); err != nil {
		return FD{}, false, fmt.Errorf("core: %w in %q", err, orig)`,
		`rhs := schema.RelPath(fields[0])
	if err := checkRelPath(rhs); err != nil {
		return FD{}, false, fmt.Errorf("core: %v in %q", err, orig)`)
	before, err := os.ReadFile(filepath.Join(tree, target))
	if err != nil {
		t.Fatal(err)
	}

	out, err := lint(t, bin, tree, "-fix", "-dry-run")
	if err == nil {
		t.Fatalf("dry run found nothing:\n%s", out)
	}
	if !strings.Contains(out, "-fix would rewrite") || !strings.Contains(out, "parsefd.go") {
		t.Fatalf("unexpected dry-run output:\n%s", out)
	}
	after, err := os.ReadFile(filepath.Join(tree, target))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("dry run modified the tree")
	}

	if out, err := lint(t, bin, tree, "-fix"); err != nil {
		t.Fatalf("applying fixes failed: %v\n%s", err, out)
	}
	if out, err := lint(t, bin, tree); err != nil {
		t.Fatalf("tree still dirty after -fix: %v\n%s", err, out)
	}
}
