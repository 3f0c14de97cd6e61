package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func TestSelectPassesDefault(t *testing.T) {
	passes, err := selectPasses("")
	if err != nil {
		t.Fatalf("selectPasses(\"\"): %v", err)
	}
	if len(passes) != len(analysis.Passes) {
		t.Fatalf("empty filter selected %d passes, want the full registry (%d)",
			len(passes), len(analysis.Passes))
	}
}

func TestSelectPassesFilter(t *testing.T) {
	passes, err := selectPasses("secretescape, hotalloc,hotblock,hotalloc")
	if err != nil {
		t.Fatalf("selectPasses: %v", err)
	}
	var names []string
	for _, p := range passes {
		names = append(names, p.Name)
	}
	// Whitespace is trimmed and duplicates collapse; order is the caller's.
	if got := strings.Join(names, ","); got != "secretescape,hotalloc,hotblock" {
		t.Fatalf("selected %q, want secretescape,hotalloc,hotblock", got)
	}
}

func TestSelectPassesUnknown(t *testing.T) {
	if _, err := selectPasses("hotalloc,nosuchpass"); err == nil {
		t.Fatal("unknown pass name should error")
	} else if !strings.Contains(err.Error(), "nosuchpass") {
		t.Fatalf("error should name the bad pass: %v", err)
	}
}

// TestPassFilterScopesRun pins the behavioral contract of -pass: a filtered
// run reports only the named passes' findings. The hotalloc fixture trips
// hotalloc (five sites) but nothing from, say, weakrand.
func TestPassFilterScopesRun(t *testing.T) {
	passes, err := selectPasses("weakrand")
	if err != nil {
		t.Fatalf("selectPasses: %v", err)
	}
	rep, err := analysis.Run([]string{"repro/internal/analysis/testdata/src/hotalloc"}, passes)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range rep.Findings {
		if d.Pass != "weakrand" && d.Pass != "pragma" {
			t.Errorf("filtered run leaked a %s finding: %s", d.Pass, d)
		}
	}
}

// TestBudgetFileAbsorbs pins the -budget plumbing: a finding whose
// "file: pass: message" key is recorded in a budget file is absorbed and
// the remaining findings survive.
func TestBudgetFileAbsorbs(t *testing.T) {
	rep := &analysis.Report{Findings: []analysis.Diagnostic{
		{File: "a/b.go", Pass: "hotalloc", Message: "grandfathered site"},
		{File: "a/b.go", Pass: "hotalloc", Message: "new site"},
	}}
	dir := t.TempDir()
	budget := filepath.Join(dir, "budget.txt")
	if err := os.WriteFile(budget, []byte("a/b.go: hotalloc: grandfathered site\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	absorbed, err := applyBaseline(budget, rep, map[string]bool{"a/b.go": true})
	if err != nil {
		t.Fatalf("applyBaseline: %v", err)
	}
	if absorbed != 1 {
		t.Fatalf("absorbed %d findings, want 1", absorbed)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Message != "new site" {
		t.Fatalf("surviving findings = %+v, want only the new site", rep.Findings)
	}
}

// TestPruneRewritesKeyFile pins the shared key-file writer: pruning a
// budget file drops exactly the stale entry of an analyzed file, keeps
// entries of files outside the run, and writes the same format
// saveBaseline does.
func TestPruneRewritesKeyFile(t *testing.T) {
	dir := t.TempDir()
	budget := filepath.Join(dir, "budget.txt")
	keys := "a/b.go: hotalloc: still fires\na/b.go: hotalloc: fixed\nc/d.go: hotalloc: not in this run\n"
	if err := os.WriteFile(budget, []byte(keys), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := &analysis.Report{Findings: []analysis.Diagnostic{
		{File: "a/b.go", Pass: "hotalloc", Message: "still fires"},
	}}
	if _, err := applyBaseline(budget, rep, map[string]bool{"a/b.go": true}); err != nil {
		t.Fatalf("applyBaseline: %v", err)
	}
	pruned, err := os.ReadFile(budget)
	if err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(dir, "saved.txt")
	if err := saveBaseline(saved, []analysis.Diagnostic{
		{File: "c/d.go", Pass: "hotalloc", Message: "not in this run"},
		{File: "a/b.go", Pass: "hotalloc", Message: "still fires"},
	}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	if string(pruned) != string(want) {
		t.Fatalf("pruned file:\n%s\nwant (as saveBaseline writes it):\n%s", pruned, want)
	}
	if strings.Contains(string(pruned), "fixed") || !strings.HasPrefix(string(pruned), "#") {
		t.Fatalf("pruned file keeps the stale entry or lost its header:\n%s", pruned)
	}
}
