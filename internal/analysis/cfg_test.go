package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// parseCFG type-checks a dependency-free snippet and builds the CFG of the
// function named fn.
func parseCFG(t *testing.T, src, fn string) *CFG {
	t.Helper()
	pkg, body := parseFuncBody(t, src, fn)
	return buildCFG(pkg, fn, body, nil)
}

// parseFuncBody type-checks a dependency-free snippet and returns the
// package with the body of the function named fn.
func parseFuncBody(t *testing.T, src, fn string) (*Package, *ast.BlockStmt) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg_test.go", "package p\n"+src, parser.ParseComments|parser.SkipObjectResolution)
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
	conf := types.Config{}
	tpkg, err := conf.Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	pkg := &Package{ImportPath: "p", Fset: fset, Files: []*ast.File{file}, Types: tpkg, Info: info}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == fn && fd.Body != nil {
			return pkg, fd.Body
		}
	}
	t.Fatalf("function %q not found", fn)
	return nil, nil
}

func TestCFGShapes(t *testing.T) {
	tests := []struct {
		name string
		src  string
		fn   string
		want string
	}{
		{
			name: "if-else with returns",
			src: `func f(x int) int {
				if x > 0 {
					return 1
				}
				return 2
			}`,
			fn: "f",
			// Condition is emitted in the predecessor and carried on both
			// edges; both returns flow to exit; the join block is dead.
			want: `b0(entry): [cond] -> {b1[true] b2[false]}
b1: [return] -> {b3}
b2: [return] -> {b3}
b3(exit): [] -> {}`,
		},
		{
			name: "for loop with break and continue",
			src: `func g(n int) int {
				s := 0
				for i := 0; i < n; i++ {
					if i == 3 {
						break
					}
					if i == 1 {
						continue
					}
					s += i
				}
				return s
			}`,
			fn: "g",
			want: `b0(entry): [assign assign] -> {b1}
b1: [cond] -> {b2[true] b3[false]}
b2: [cond] -> {b5[true] b6[false]}
b3: [return] -> {b9}
b4: [incdec] -> {b1}
b5: [] -> {b3}
b6: [cond] -> {b7[true] b8[false]}
b7: [] -> {b4}
b8: [assign] -> {b4}
b9(exit): [] -> {}`,
		},
		{
			name: "defer stays a plain node",
			src: `func h() {
				defer println("done")
				println("work")
			}`,
			fn: "h",
			want: `b0(entry): [defer expr end] -> {b1}
b1(exit): [] -> {}`,
		},
		{
			name: "range loop emits a marker and loops",
			src: `func r(b []int) int {
				s := 0
				for i := range b {
					s += i
				}
				return s
			}`,
			fn: "r",
			want: `b0(entry): [assign range] -> {b1}
b1: [] -> {b2 b3}
b2: [assign] -> {b1}
b3: [return] -> {b4}
b4(exit): [] -> {}`,
		},
		{
			name: "panic terminates the path",
			src: `func p(x int) int {
				if x < 0 {
					panic("no")
				}
				return x
			}`,
			fn: "p",
			want: `b0(entry): [cond] -> {b1[true] b2[false]}
b1: [expr] -> {}
b2: [return] -> {b3}
b3(exit): [] -> {}`,
		},
		{
			name: "switch with fallthrough and default",
			src: `func s(x int) int {
				switch x {
				case 1:
					fallthrough
				case 2:
					return 2
				default:
					return 3
				}
			}`,
			fn: "s",
			// b1 is the unreachable join after the exhaustive switch; it
			// carries the end-of-function marker.
			want: `b0(entry): [cond] -> {b2 b3 b4}
b1: [end] -> {b5}
b2: [cond] -> {b3}
b3: [cond return] -> {b5}
b4: [return] -> {b5}
b5(exit): [] -> {}`,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := parseCFG(t, tt.src, tt.fn)
			got := strings.TrimSpace(cfg.dump())
			want := strings.TrimSpace(tt.want)
			if got != want {
				t.Errorf("CFG mismatch\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestCFGShortCircuitRefinement pins the edge-refinement contract: the whole
// condition rides on the edge, and refineCond decomposes && / || / !.
func TestCFGShortCircuitRefinement(t *testing.T) {
	cfg := parseCFG(t, `func f(a, b bool) int {
		if a && b {
			return 1
		}
		return 0
	}`, "f")
	entry := cfg.Entry
	if len(entry.Succs) != 2 {
		t.Fatalf("entry successors = %d, want 2", len(entry.Succs))
	}
	for _, e := range entry.Succs {
		be, ok := e.Cond.(*ast.BinaryExpr)
		if !ok || be.Op != token.LAND {
			t.Fatalf("edge condition = %T, want the whole && expression", e.Cond)
		}
	}
}

// TestCFGEveryBlockReachesExitOrTerminates sanity-checks a gnarlier shape:
// labeled loops with goto.
func TestCFGLabeledGoto(t *testing.T) {
	cfg := parseCFG(t, `func f(n int) int {
	outer:
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j == 2 {
					continue outer
				}
				if j == 3 {
					break outer
				}
				if j == 4 {
					goto done
				}
			}
		}
	done:
		return n
	}`, "f")
	// The graph must contain the exit and at least one edge into it.
	hasExitEdge := false
	for _, b := range cfg.Blocks {
		for _, e := range b.Succs {
			if e.To == cfg.Exit {
				hasExitEdge = true
			}
		}
	}
	if !hasExitEdge {
		t.Fatal("no edge reaches the exit block")
	}
}

// genAssignHooks is a minimal obligation lattice for pinning the solver: an
// assignment to a plain identifier makes it a fact, nothing kills.
func genAssignHooks(pkg *Package, observe func(n ast.Node, fs factSet)) flowHooks {
	return flowHooks{
		transfer: func(n ast.Node, fs factSet) {
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, l := range as.Lhs {
					if obj := assignedObj(pkg, l); obj != nil {
						fs[obj] = fact{acquired: as.Pos(), desc: obj.Name()}
					}
				}
			}
		},
		report: observe,
	}
}

// factNames renders a fact set's variable names, sorted.
func factNames(fs factSet) string {
	var names []string
	for obj := range fs {
		names = append(names, obj.Name())
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// TestFlowSolverUnreachableBlocks pins how the obligation solver treats
// code no path from the entry reaches (after panic): the block keeps the
// empty fact set, and the report replay still visits it with that set.
func TestFlowSolverUnreachableBlocks(t *testing.T) {
	pkg, body := parseFuncBody(t, `func f(c bool) int {
		x := 1
		if c {
			panic("boom")
			return x + 1
		}
		return x
	}`, "f")
	cfg := buildCFG(pkg, "f", body, nil)
	var got []string
	runFlow(pkg, cfg, nil, genAssignHooks(pkg, func(n ast.Node, fs factSet) {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			got = append(got, fmt.Sprintf("line %d: {%s}", pkg.Fset.Position(ret.Pos()).Line, factNames(fs)))
		}
	}))
	sort.Strings(got)
	want := []string{"line 6: {}", "line 8: {x}"}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Errorf("reported returns = %q, want %q", got, want)
	}
}

// TestFlowSolverLoopSecondVisit pins iteration to the fixpoint: a fact
// generated in the loop body reaches the loop header (and the return after
// the loop) only through the back edge, i.e. on the header's second visit.
func TestFlowSolverLoopSecondVisit(t *testing.T) {
	pkg, body := parseFuncBody(t, `func f(n int) int {
		i := 0
		for i < n {
			y := i
			i = y + 1
		}
		return i
	}`, "f")
	cfg := buildCFG(pkg, "f", body, nil)
	var cond, ret string
	runFlow(pkg, cfg, nil, genAssignHooks(pkg, func(n ast.Node, fs factSet) {
		switch n.(type) {
		case *ast.BinaryExpr:
			cond = factNames(fs)
		case *ast.ReturnStmt:
			ret = factNames(fs)
		}
	}))
	if cond != "i,y" || ret != "i,y" {
		t.Errorf("facts at loop header = {%s}, at return = {%s}; want {i,y} at both", cond, ret)
	}
}

// countCalls counts calls to the named function for the path counter.
func countCalls(name string) func(ast.Node) int {
	return func(n ast.Node) int {
		c := 0
		ast.Inspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
					c++
				}
			}
			return true
		})
		return c
	}
}

// TestPathCountUnreachableAndLoops pins wgbalance's [min, max] path
// counter: code after a terminating call contributes nothing to the exit's
// count, and a call inside a loop saturates max only after the back edge is
// taken (second visit of the header).
func TestPathCountUnreachableAndLoops(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want pathCount
	}{
		{"after panic", `func f(c bool) {
			done()
			if c {
				panic("boom")
				done()
			}
		}
		func done() {}`, pathCount{1, 1}},
		{"loop", `func f(n int) {
			for i := 0; i < n; i++ {
				done()
			}
		}
		func done() {}`, pathCount{0, 2}},
		{"never returns", `func f() {
			done()
			panic("boom")
		}
		func done() {}`, pathCount{0, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pkg, body := parseFuncBody(t, tt.src, "f")
			got := countOnPaths(&Context{}, pkg, "f", body, countCalls("done"))
			if got != tt.want {
				t.Errorf("countOnPaths = %+v, want %+v", got, tt.want)
			}
		})
	}
}
