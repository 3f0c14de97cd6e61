package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Nilness flags dereferences of values that may be nil on the path reaching
// them — the repository's recurring shape being "use the result before
// checking the error": `resp, err := c.roundTrip(...)` followed by a field
// access on resp before err is tested panics exactly on the failure paths
// the resilience layer exists to exercise (partition and crash schedules,
// DESIGN.md §12), where it takes down a server goroutine mid-protocol
// instead of returning a classified error.
//
// The pass rides the dataflow engine's err-edge refinement in the inverted
// sense (fact.mayNil): `v, err := f()` with a pointer- or interface-typed v
// generates "v may be nil", paired errNonNil — the fact lives only where
// err != nil, so the idiomatic `if err != nil { return }` kills it and the
// pass stays quiet on correct code. An explicit `v = nil` assignment
// generates the unpaired form, killed only by a v != nil test or
// reassignment. Dereference means a selector or unary * on the tracked
// variable; checking is short-circuit aware (`v != nil && v.f` is clean).
//
// Soundness limits (DESIGN.md §13): `v, _ := f()` (error discarded) is not
// tracked — there is no error edge to refine, and errwrap polices discarded
// errors; uninitialized `var v *T` declarations are not tracked; a value
// whose address is taken or that is captured by a closure is dropped.
var Nilness = &Pass{
	Name: "nilness",
	Doc:  "dereference of a value that may be nil on this path",
	Run:  runNilness,
}

func runNilness(ctx *Context, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	funcBodies(pkg, func(fb funcBody) {
		cfg := ctx.cfgOf(pkg, fb.name, fb.body)
		reported := make(map[types.Object]bool)
		runFlow(pkg, cfg, nil, flowHooks{
			transfer: func(n ast.Node, fs factSet) {
				nilnessTransfer(pkg, n, fs)
			},
			report: func(n ast.Node, fs factSet) {
				checkNilDerefs(pkg, n, fs, func(pos token.Pos, obj types.Object, f fact) {
					if reported[obj] {
						return
					}
					reported[obj] = true
					diags = append(diags, pkg.diag("nilness", pos,
						"%s may be nil at this dereference (%s at line %d); check it (or its error) first",
						obj.Name(), f.desc, pkg.Fset.Position(f.acquired).Line))
				})
			},
		})
	})
	return diags
}

func nilnessTransfer(pkg *Package, n ast.Node, fs factSet) {
	switch n := n.(type) {
	case *ast.AssignStmt, *ast.DeclStmt:
		assignments(pkg, n, func(at ast.Node, lhs []types.Object, rhs []ast.Expr) {
			nilnessKills(pkg, at, fs)
			invalidateAssigned(fs, lhs)
			if len(rhs) != 1 {
				return
			}
			if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
				genNilableResults(pkg, at.Pos(), call, lhs, fs)
			} else if len(lhs) == 1 && lhs[0] != nil && isNilExpr(pkg, rhs[0]) && isNilableType(lhs[0].Type()) {
				fs[lhs[0]] = fact{acquired: at.Pos(), desc: "assigned nil", mayNil: true}
			}
		})
	case *ast.ReturnStmt:
		// Returning a may-nil value hands the question to the caller; the
		// path ends here either way.
		for obj := range fs {
			delete(fs, obj)
		}
	case *ast.DeferStmt, *ast.GoStmt:
		// The deferred/spawned work runs under different facts than hold
		// here; drop anything it mentions rather than guess.
		for obj := range fs {
			if mentionsObj(pkg, n, obj) {
				delete(fs, obj)
			}
		}
	case *ast.RangeStmt:
		// Marker node: only the range expression evaluates here — the body
		// is lowered into its own blocks. The generic kill over the whole
		// statement is kept (dropping a fact is always safe), and the loop
		// variables are reassigned by the range protocol.
		nilnessKills(pkg, n, fs)
		invalidateAssigned(fs, []types.Object{
			assignedObj(pkg, n.Key), assignedObj(pkg, n.Value),
		})
	default:
		nilnessKills(pkg, n, fs)
	}
}

// genNilableResults tracks the pointer- and interface-typed results of
// `v, err := call(...)` as may-nil, paired with the error so refinement
// kills the facts on err == nil edges. Requires a real (non-blank) error
// target: with the error discarded there is no edge to refine on, and
// errwrap already polices that.
func genNilableResults(pkg *Package, pos token.Pos, call *ast.CallExpr, lhs []types.Object, fs factSet) {
	errObj := pairedErr(lhs)
	if errObj == nil {
		return
	}
	desc := "result of " + shortCallee(calleeFunc(pkg, call))
	for _, o := range lhs {
		if o == nil || o == errObj || !isNilableType(o.Type()) {
			continue
		}
		fs[o] = fact{acquired: pos, desc: desc, err: errObj, errLive: errNonNil, mayNil: true}
	}
}

// nilnessKills drops facts the node invalidates without an assignment:
// address-taken variables (a store through the pointer is invisible to the
// flow) and variables captured by a function literal (the closure may
// assign them on a schedule the CFG does not order).
func nilnessKills(pkg *Package, n ast.Node, fs factSet) {
	if n == nil || len(fs) == 0 {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.UnaryExpr:
			if m.Op == token.AND {
				if obj := identObj(pkg, m.X); obj != nil {
					delete(fs, obj)
				}
			}
		case *ast.FuncLit:
			for obj := range fs {
				if mentionsObj(pkg, m, obj) {
					delete(fs, obj)
				}
			}
			return false
		}
		return true
	})
}

// checkNilDerefs reports dereferences of tracked variables within one CFG
// node, decomposing short-circuit operators the way refineCond does so that
// `v != nil && v.f` (and `v == nil || v.f`) never fires.
func checkNilDerefs(pkg *Package, n ast.Node, fs factSet, found func(pos token.Pos, obj types.Object, f fact)) {
	if n == nil || len(fs) == 0 {
		return
	}
	switch e := n.(type) {
	case *ast.FuncLit:
		return // its body runs under its own CFG and facts
	case *ast.BlockStmt:
		// End-of-function marker node: every statement inside was already
		// checked in its own block; replaying the whole body here against
		// end-of-function facts reports guarded dereferences as if the
		// guard never ran.
		return
	case *ast.RangeStmt:
		// Marker node: only the range expression evaluates here — the body
		// is lowered into its own blocks and checked there.
		checkNilDerefs(pkg, e.X, fs, found)
		return
	case *ast.BinaryExpr:
		if e.Op == token.LAND || e.Op == token.LOR {
			checkNilDerefs(pkg, e.X, fs, found)
			refined := fs.clone()
			refineCond(pkg, e.X, e.Op == token.LAND, refined)
			checkNilDerefs(pkg, e.Y, refined, found)
			return
		}
	case *ast.SelectorExpr:
		if obj := identObj(pkg, e.X); obj != nil {
			if f, tracked := fs[obj]; tracked {
				found(e.X.Pos(), obj, f)
			}
		}
		checkNilDerefs(pkg, e.X, fs, found)
		return
	case *ast.StarExpr:
		if obj := identObj(pkg, e.X); obj != nil {
			if f, tracked := fs[obj]; tracked {
				found(e.Pos(), obj, f)
			}
		}
		checkNilDerefs(pkg, e.X, fs, found)
		return
	}
	// Generic node: recurse into each direct child so the special cases
	// above see every subtree.
	ast.Inspect(n, func(m ast.Node) bool {
		if m == n {
			return true
		}
		checkNilDerefs(pkg, m, fs, found)
		return false
	})
}

// isNilExpr matches the predeclared nil.
func isNilExpr(pkg *Package, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pkg.Info.Uses[id].(*types.Nil)
	return isNil
}

// isNilableType restricts tracking to the types whose zero value makes a
// selector or * dereference panic: pointers and interfaces. (Nil maps,
// slices and funcs fail differently and far more rarely in this codebase.)
func isNilableType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface:
		return true
	}
	return false
}
