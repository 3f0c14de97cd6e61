package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// The lock-flow tests need snippets that import "sync", but parseCFG's
// checker has no importer. Instead of reaching for export data, the tests
// type-check a hand-built stub sync package: the passes only ever look at
// the package *path* and the method names (see isSyncMutexMethod), so a
// stub with the right shape is indistinguishable from the real thing and
// keeps the tests hermetic.
const stubSyncSrc = `package sync

type Mutex struct{ state int32 }

func (m *Mutex) Lock()         {}
func (m *Mutex) Unlock()       {}
func (m *Mutex) TryLock() bool { return false }

type RWMutex struct{ state int32 }

func (m *RWMutex) Lock()          {}
func (m *RWMutex) Unlock()        {}
func (m *RWMutex) RLock()         {}
func (m *RWMutex) RUnlock()       {}
func (m *RWMutex) TryLock() bool  { return false }
func (m *RWMutex) TryRLock() bool { return false }
`

type stubImporter struct{ pkgs map[string]*types.Package }

func (i stubImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.pkgs[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("stub importer: %q not available", path)
}

// parseLockPkg type-checks a snippet (the body of `package p`, importing at
// most the stub sync) and returns the analysis Package.
func parseLockPkg(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	syncFile, err := parser.ParseFile(fset, "sync.go", stubSyncSrc, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse stub sync: %v", err)
	}
	syncPkg, err := (&types.Config{}).Check("sync", fset, []*ast.File{syncFile}, nil)
	if err != nil {
		t.Fatalf("type-check stub sync: %v", err)
	}

	file, err := parser.ParseFile(fset, "lock_test.go", "package p\n\nimport \"sync\"\n\n"+src,
		parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: stubImporter{pkgs: map[string]*types.Package{"sync": syncPkg}}}
	tpkg, err := conf.Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	return &Package{ImportPath: "p", Fset: fset, Files: []*ast.File{file}, Types: tpkg, Info: info}
}

// lockDiags runs lockcheck's per-body analysis over the named function.
func lockDiags(t *testing.T, src, fn string) []Diagnostic {
	t.Helper()
	pkg := parseLockPkg(t, src)
	ctx := &Context{}
	for _, decl := range pkg.Files[0].Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == fn && fd.Body != nil {
			return lockCheckBody(ctx, pkg, fn, fd.Body)
		}
	}
	t.Fatalf("function %q not found", fn)
	return nil
}

// TestLockFlowDeferUnlock pins the defer-unlock lattice semantics: a
// registered defer covers every later path (defMust), clears the pending
// leak bit (leakMay), and stays pending across temporary releases — while a
// defer on only *some* paths covers nothing at the join.
func TestLockFlowDeferUnlock(t *testing.T) {
	tests := []struct {
		name string
		src  string
		fn   string
		want []string // required substrings, one per expected finding
	}{
		{
			name: "direct defer discharges every return",
			src: `func f(mu *sync.Mutex, fail bool) int {
				mu.Lock()
				defer mu.Unlock()
				if fail {
					return -1
				}
				return 1
			}`,
			fn: "f",
		},
		{
			name: "no defer leaks out of the early return",
			src: `func f(mu *sync.Mutex, fail bool) int {
				mu.Lock()
				if fail {
					return -1
				}
				mu.Unlock()
				return 1
			}`,
			fn:   "f",
			want: []string{"still locked"},
		},
		{
			name: "unlock inside a deferred closure discharges",
			src: `func f(mu *sync.Mutex, n *int) int {
				mu.Lock()
				defer func() {
					*n++
					mu.Unlock()
				}()
				return *n
			}`,
			fn: "f",
		},
		{
			name: "defer stays pending across release and re-acquisition",
			src: `func f(mu *sync.Mutex, n *int) {
				mu.Lock()
				defer mu.Unlock()
				*n++
				mu.Unlock()
				mu.Lock()
				*n++
			}`,
			fn: "f",
		},
		{
			name: "defer on one branch only does not cover the join",
			src: `func f(mu *sync.Mutex, c bool) {
				mu.Lock()
				if c {
					defer mu.Unlock()
				}
			}`,
			fn:   "f",
			want: []string{"still locked"},
		},
		{
			name: "re-lock under a pending defer is not a double-lock leak",
			src: `func f(mu *sync.Mutex) {
				mu.Lock()
				defer mu.Unlock()
				mu.Unlock()
				mu.Lock()
			}`,
			fn: "f",
		},
		{
			name: "rwmutex read side defers discharge too",
			src: `func f(mu *sync.RWMutex, n *int) int {
				mu.RLock()
				defer mu.RUnlock()
				return *n
			}`,
			fn: "f",
		},
		{
			name: "runlock with no rlock on any path",
			src: `func f(mu *sync.RWMutex) {
				mu.RUnlock()
			}`,
			fn:   "f",
			want: []string{"RUnlock"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			diags := lockDiags(t, tt.src, tt.fn)
			if len(diags) != len(tt.want) {
				t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(tt.want), renderLockDiags(diags))
			}
			for i, sub := range tt.want {
				if !strings.Contains(diags[i].Message, sub) {
					t.Errorf("finding %d = %q, want substring %q", i, diags[i].Message, sub)
				}
			}
		})
	}
}

// TestLockFlowSelectComm pins the select exemption: a communication lowered
// into a select's clause block is the idiomatic bounded wait and is not a
// bare channel operation, while the same receive outside a select is.
func TestLockFlowSelectComm(t *testing.T) {
	selectSrc := `func f(mu *sync.Mutex, ch, quit chan int) int {
		mu.Lock()
		defer mu.Unlock()
		select {
		case v := <-ch:
			return v
		case <-quit:
			return 0
		}
	}`
	if diags := lockDiags(t, selectSrc, "f"); len(diags) != 0 {
		t.Errorf("select communications under a lock must be exempt, got:\n%s", renderLockDiags(diags))
	}

	bareSrc := `func f(mu *sync.Mutex, ch chan int) int {
		mu.Lock()
		defer mu.Unlock()
		return <-ch
	}`
	diags := lockDiags(t, bareSrc, "f")
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "channel receive") {
		t.Errorf("bare receive under a lock must be reported, got:\n%s", renderLockDiags(diags))
	}
}

func renderLockDiags(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "  %s: %s: %s\n", d.Pos, d.Pass, d.Message)
	}
	return b.String()
}

// TestCFGSelectEdges pins the select lowering the comm exemption relies on:
// one clause block per communication, each fed from the head and rejoining
// at the after block, with the comm statement lowered into its clause block.
func TestCFGSelectEdges(t *testing.T) {
	cfg := parseCFG(t, `func f(ch, quit chan int) int {
		select {
		case v := <-ch:
			return v
		case <-quit:
			return 0
		}
	}`, "f")
	got := strings.TrimSpace(cfg.dump())
	want := strings.TrimSpace(`b0(entry): [] -> {b2 b3}
b1: [end] -> {b4}
b2: [assign return] -> {b4}
b3: [expr return] -> {b4}
b4(exit): [] -> {}`)
	if got != want {
		t.Errorf("select CFG mismatch\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestCFGSelectBreak pins that break inside a select clause targets the
// select's after block (the frame pushed by selectStmt), not an enclosing
// loop.
func TestCFGSelectBreak(t *testing.T) {
	cfg := parseCFG(t, `func f(ch chan int) int {
		n := 0
		for {
			select {
			case v := <-ch:
				if v == 0 {
					break
				}
				n += v
			}
			n++
		}
	}`, "f")
	// The loop must still be entered from the select's after block: a break
	// that (wrongly) escaped the loop would leave the n++ block unreachable.
	var incBlock *Block
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if inc, ok := n.(*ast.IncDecStmt); ok {
				if id, ok := inc.X.(*ast.Ident); ok && id.Name == "n" {
					incBlock = b
				}
			}
		}
	}
	if incBlock == nil {
		t.Fatal("n++ block not found")
	}
	reached := false
	for _, b := range cfg.Blocks {
		for _, e := range b.Succs {
			if e.To == incBlock {
				reached = true
			}
		}
	}
	if !reached {
		t.Fatal("break inside select escaped the select: n++ is unreachable")
	}
}

// TestLockFlowUnreachableAndLoops pins the lock solver's seeding: blocks no
// path from the entry reaches (after panic) are never observed — an Unlock
// there is not an unmatched unlock — and a lock taken inside a loop body is
// seen as may-held at the header only after the back edge (second visit),
// which is what makes the leak at the return after the loop a finding.
func TestLockFlowUnreachableAndLoops(t *testing.T) {
	unreachable := `func f(mu *sync.Mutex) {
		mu.Lock()
		panic("boom")
		mu.Unlock()
	}`
	if diags := lockDiags(t, unreachable, "f"); len(diags) != 0 {
		t.Errorf("code after panic must not be observed, got:\n%s", renderLockDiags(diags))
	}

	loop := `func f(mu *sync.Mutex, n int) {
		for i := 0; i < n; i++ {
			mu.Lock()
		}
	}`
	diags := lockDiags(t, loop, "f")
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "still locked when f returns") {
		t.Errorf("lock leaked around a loop must be reported once (and no double-lock), got:\n%s", renderLockDiags(diags))
	}
}
