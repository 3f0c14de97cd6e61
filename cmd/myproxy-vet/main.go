// Command myproxy-vet runs the repository's static-analysis suite
// (internal/analysis): security and correctness invariants — crypto-grade
// randomness, secrets kept out of format strings, constant-time
// comparisons, proxy-aware chain verification, %w error wrapping — checked
// mechanically over any package pattern.
//
// Usage:
//
//	myproxy-vet [-json | -sarif] [-stats] [-pass names] [-baseline file] [-budget file] [patterns ...]
//
// Patterns default to ./.... Exit status is 0 when clean, 1 when findings
// were reported, 2 on load or usage errors. Findings are suppressed at a
// specific site with //myproxy:allow <pass> <reason>; see DESIGN.md
// ("Static-analysis gate"). -json emits the findings as a JSON object;
// -sarif emits a SARIF 2.1.0 log for CI annotation upload. -pass
// name[,name...] restricts the run to the named passes (see -passes for
// the registry) — the fast loop when developing or deburring one pass.
//
// For adopting a new pass over a codebase with existing findings,
// -write-baseline records the current findings as "file: pass: message"
// keys (no line numbers, so unrelated edits do not churn the file) and
// -baseline filters any finding whose key appears in such a file: only
// NEW findings fail the gate while the recorded debt is burned down.
// Entries whose finding no longer fires in a file the run analyzed are
// stale: -baseline prunes them from the file and prints each one, so the
// baseline ratchets monotonically toward empty. -budget names a second
// file with the same format and pruning, kept separate on principle: the
// baseline is debt being burned down, the budget (vet-cost-budget.txt)
// is the grandfathered allocation profile of the hot path — cost-pass
// findings recorded there are tolerated, anything new fails the gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	sarifOut := flag.Bool("sarif", false, "emit findings as SARIF 2.1.0 (for CI annotation upload)")
	listPasses := flag.Bool("passes", false, "list the registered passes and exit")
	stats := flag.Bool("stats", false, "emit per-pass wall-time and finding-count JSON to stderr")
	baselineFile := flag.String("baseline", "", "suppress findings recorded in this baseline file; stale entries are pruned")
	budgetFile := flag.String("budget", "", "additionally suppress findings recorded in this budget file (hot-path cost grandfathering, same format); stale entries are pruned")
	writeBaseline := flag.String("write-baseline", "", "record current findings to a baseline file and exit clean")
	passFilter := flag.String("pass", "", "run only the named passes, comma-separated (see -passes for the registry)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: myproxy-vet [-json | -sarif] [-pass name[,name...]] [-baseline file [-budget file] | -write-baseline file] [patterns ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *jsonOut && *sarifOut {
		fmt.Fprintf(os.Stderr, "myproxy-vet: -json and -sarif are mutually exclusive\n")
		os.Exit(2)
	}

	if *listPasses {
		for _, p := range analysis.Passes {
			fmt.Printf("%-12s %s\n", p.Name, p.Doc)
		}
		fmt.Printf("\nRun a subset with -pass name[,name...].\n")
		return
	}

	passes, err := selectPasses(*passFilter)
	if err != nil {
		fmt.Fprintf(os.Stderr, "myproxy-vet: %v\n", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	rep, err := analysis.Run(patterns, passes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "myproxy-vet: %v\n", err)
		os.Exit(2)
	}

	cwd, _ := os.Getwd()
	for i := range rep.Findings {
		rep.Findings[i].File = relativize(cwd, rep.Findings[i].File)
	}

	if *writeBaseline != "" {
		if err := saveBaseline(*writeBaseline, rep.Findings); err != nil {
			fmt.Fprintf(os.Stderr, "myproxy-vet: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "myproxy-vet: recorded %d finding(s) in %s\n", len(rep.Findings), *writeBaseline)
		return
	}

	analyzed := make(map[string]bool, len(rep.Files))
	for _, f := range rep.Files {
		analyzed[filepath.ToSlash(relativize(cwd, f))] = true
	}
	baselined, budgeted := 0, 0
	if *baselineFile != "" {
		if baselined, err = applyBaseline(*baselineFile, rep, analyzed); err != nil {
			fmt.Fprintf(os.Stderr, "myproxy-vet: %v\n", err)
			os.Exit(2)
		}
	}
	if *budgetFile != "" {
		if budgeted, err = applyBaseline(*budgetFile, rep, analyzed); err != nil {
			fmt.Fprintf(os.Stderr, "myproxy-vet: %v\n", err)
			os.Exit(2)
		}
	}

	if *sarifOut {
		out, err := analysis.SARIF(rep.Findings, analysis.Passes)
		if err == nil {
			_, err = os.Stdout.Write(append(out, '\n'))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "myproxy-vet: %v\n", err)
			os.Exit(2)
		}
	} else if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		out := struct {
			Findings   []analysis.Diagnostic `json:"findings"`
			Suppressed int                   `json:"suppressed"`
			// Stats carries the same per-pass wall-time and finding-count
			// data as -stats, so one -json artifact feeds both the CI
			// annotation step and the pass-cost trend tracking.
			Stats []analysis.PassStat `json:"stats"`
		}{Findings: rep.Findings, Suppressed: len(rep.Suppressed), Stats: rep.PassStats}
		if out.Findings == nil {
			out.Findings = []analysis.Diagnostic{}
		}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "myproxy-vet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range rep.Findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", d.File, d.Line, d.Col, d.Pass, d.Message)
		}
		if len(rep.Findings) > 0 || baselined > 0 || budgeted > 0 {
			fmt.Fprintf(os.Stderr, "myproxy-vet: %d finding(s), %d suppressed by pragma, %d baselined, %d budgeted\n",
				len(rep.Findings), len(rep.Suppressed), baselined, budgeted)
		}
	}
	if *stats {
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep.PassStats); err != nil {
			fmt.Fprintf(os.Stderr, "myproxy-vet: %v\n", err)
			os.Exit(2)
		}
	}
	if len(rep.Findings) > 0 {
		os.Exit(1)
	}
}

// selectPasses resolves a -pass filter against the registry; an empty
// filter selects everything.
func selectPasses(filter string) ([]*analysis.Pass, error) {
	if filter == "" {
		return analysis.Passes, nil
	}
	byName := make(map[string]*analysis.Pass, len(analysis.Passes))
	for _, p := range analysis.Passes {
		byName[p.Name] = p
	}
	var out []*analysis.Pass
	seen := make(map[string]bool)
	for _, name := range strings.Split(filter, ",") {
		name = strings.TrimSpace(name)
		p, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("-pass: unknown pass %q (run -passes for the registry)", name)
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, p)
		}
	}
	return out, nil
}

// applyBaseline filters rep.Findings through one baseline-format file,
// prunes its stale entries, and reports how many findings it absorbed.
func applyBaseline(path string, rep *analysis.Report, analyzed map[string]bool) (int, error) {
	known, err := loadBaseline(path)
	if err != nil {
		return 0, err
	}
	matched := make(map[string]bool)
	absorbed := 0
	kept := rep.Findings[:0]
	for _, d := range rep.Findings {
		if k := baselineKey(d); known[k] {
			absorbed++
			matched[k] = true
		} else {
			kept = append(kept, d)
		}
	}
	rep.Findings = kept
	pruned, err := pruneBaseline(path, known, matched, analyzed)
	if err != nil {
		return 0, err
	}
	for _, k := range pruned {
		fmt.Fprintf(os.Stderr, "myproxy-vet: %s entry fixed, pruned: %s\n", filepath.Base(path), k)
	}
	return absorbed, nil
}

// baselineKey identifies a finding across edits: file, pass, and message,
// but no line/column, so moving code does not churn the baseline.
func baselineKey(d analysis.Diagnostic) string {
	return fmt.Sprintf("%s: %s: %s", filepath.ToSlash(d.File), d.Pass, d.Message)
}

// saveBaseline writes the findings' keys, sorted and deduplicated.
func saveBaseline(path string, ds []analysis.Diagnostic) error {
	seen := make(map[string]bool)
	var keys []string
	for _, d := range ds {
		if k := baselineKey(d); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return writeKeyFile(path, keys)
}

// pruneBaseline rewrites the baseline without entries that no longer fire:
// a key is stale when no finding in this run matched it AND its file was
// actually analyzed — absence of a finding in a file outside the run's
// patterns means "not checked", not "fixed", and such entries are kept.
// Returns the pruned keys, sorted; the file is rewritten only when at least
// one entry was pruned.
func pruneBaseline(path string, known, matched, analyzed map[string]bool) ([]string, error) {
	var pruned, remaining []string
	for k := range known {
		file, _, ok := strings.Cut(k, ": ")
		if !matched[k] && ok && analyzed[file] {
			pruned = append(pruned, k)
		} else {
			remaining = append(remaining, k)
		}
	}
	if len(pruned) == 0 {
		return nil, nil
	}
	sort.Strings(pruned)
	return pruned, writeKeyFile(path, remaining)
}

// writeKeyFile writes a baseline-format key file — the -baseline debt file
// or the -budget cost file — sorted, under a header documenting the format.
func writeKeyFile(path string, keys []string) error {
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# myproxy-vet key file: known findings tolerated by the -baseline or -budget flag that names it.\n")
	b.WriteString("# One \"file: pass: message\" key per line; '#' starts a comment.\n")
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// loadBaseline reads a baseline file into a key set.
func loadBaseline(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		known[line] = true
	}
	if err := sc.Err(); err != nil {
		_ = f.Close()
		return nil, err
	}
	return known, f.Close()
}

// relativize shortens abs to a cwd-relative path when that is tidier.
func relativize(cwd, path string) string {
	if cwd == "" {
		return path
	}
	rel, err := filepath.Rel(cwd, path)
	if err != nil || len(rel) >= len(path) {
		return path
	}
	return rel
}
