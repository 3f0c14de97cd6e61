package analysis

import (
	"go/ast"
	"go/types"
)

// ConnLeak flags connections, listeners and files acquired on a path that
// can return without closing them. MyProxy's server holds mutually
// authenticated TLS channels open per request (paper §4); a handler that
// errors out without closing the accepted channel pins the socket and its
// session state until the peer gives up, which is how repository processes
// run out of descriptors under fault load.
//
// The pass is flow-sensitive: an acquisition `c, err := net.Dial(...)`
// creates an obligation that error-branch refinement kills on err != nil
// edges (the conn does not exist there), Close/defer-Close kills, and any
// escape — stored, sent, captured, returned — discharges (the new owner is
// accountable). Call summaries carry the obligation one hop: a callee known
// to leave its connection parameter open on failure (a wrapper that can
// return an error before closing the raw conn it was given) converts the
// caller's fact into "still mine if the call failed", so
// `conn, err := wrap(raw); if err != nil { return }` is reported at the
// acquisition of raw.
var ConnLeak = &Pass{
	Name: "connleak",
	Doc:  "connection or file acquired on a path that can return without Close",
	Run:  runConnLeak,
}

func runConnLeak(ctx *Context, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	funcBodies(pkg, func(name string, body *ast.BlockStmt) {
		cfg := ctx.cfgOf(pkg, name, body)
		reported := make(map[types.Object]bool)
		runFlow(pkg, cfg, nil, flowHooks{
			transfer: func(n ast.Node, fs factSet) {
				connLeakTransfer(ctx, pkg, n, fs)
			},
			report: func(n ast.Node, fs factSet) {
				switch n := n.(type) {
				case *ast.ReturnStmt:
					for obj, f := range fs {
						if reported[obj] || mentionsObj(pkg, n, obj) {
							continue
						}
						reported[obj] = true
						diags = append(diags, pkg.diag("connleak", f.acquired,
							"%s is not closed on a path to the return at line %d; close it before returning",
							f.desc, pkg.Fset.Position(n.Pos()).Line))
					}
				case *ast.BlockStmt:
					for obj, f := range fs {
						if reported[obj] {
							continue
						}
						reported[obj] = true
						diags = append(diags, pkg.diag("connleak", f.acquired,
							"%s is not closed when the function ends at line %d",
							f.desc, pkg.Fset.Position(n.End()).Line))
					}
				}
			},
		})
	})
	return diags
}

func connLeakTransfer(ctx *Context, pkg *Package, n ast.Node, fs factSet) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		connLeakAssign(ctx, pkg, n, fs)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					connLeakValueSpec(ctx, pkg, vs, fs)
				}
			}
		}
	case *ast.DeferStmt, *ast.GoStmt:
		// A defer or goroutine that mentions the variable is assumed to be
		// (or to schedule) its cleanup; the goroutine case is also an escape.
		for obj := range fs {
			if mentionsObj(pkg, n, obj) {
				delete(fs, obj)
			}
		}
	case *ast.ReturnStmt:
		// Reported (or discharged as returned) by the report hook; either
		// way the path ends here.
		for obj := range fs {
			delete(fs, obj)
		}
	default:
		applyCalls(pkg, n, func(call *ast.CallExpr) {
			connLeakCall(ctx, pkg, call, fs, nil, false)
		})
		killEscapedMentions(pkg, n, fs, nil)
	}
}

func connLeakAssign(ctx *Context, pkg *Package, as *ast.AssignStmt, fs factSet) {
	lhs := make([]types.Object, len(as.Lhs))
	for i, l := range as.Lhs {
		lhs[i] = assignedObj(pkg, l)
	}
	errObj := pairedErr(lhs)
	hasCloserTarget := false
	for _, o := range lhs {
		if o != nil && isCloserType(o.Type()) {
			hasCloserTarget = true
		}
	}

	var genFrom *fact
	var genCall *ast.CallExpr
	if len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			genCall = call
		}
	}
	for _, call := range nonRootCalls(pkg, as, genCall) {
		connLeakCall(ctx, pkg, call, fs, nil, false)
	}
	killEscapedMentions(pkg, as, fs, nil)
	// Invalidate the LHS (clearing pairings with the *old* err value) before
	// the root call's transfer, so an errNonNil pairing the wrap rule creates
	// with the freshly assigned err survives.
	invalidateAssigned(fs, lhs)
	if genCall != nil {
		genFrom = connLeakCall(ctx, pkg, genCall, fs, errObj, hasCloserTarget)
	}

	gen := func(f fact) {
		for _, o := range lhs {
			if o != nil && isCloserType(o.Type()) {
				fs[o] = f
			}
		}
	}
	if genCall != nil {
		if conn, writable := acquirerCall(pkg, ctx.Summaries, genCall); conn || writable {
			fn := calleeFunc(pkg, genCall)
			gen(fact{acquired: as.Pos(), desc: shortCallee(fn) + " result",
				err: errObj, errLive: errIsNil})
		} else if genFrom != nil {
			// Ownership moved from a tracked argument into the result(s):
			// the wrapped resource leaks if the wrapper does.
			gen(fact{acquired: genFrom.acquired, desc: genFrom.desc,
				err: errObj, errLive: errIsNil})
		}
	}
}

// connLeakValueSpec handles `var c, err = acquire(...)` declarations.
func connLeakValueSpec(ctx *Context, pkg *Package, vs *ast.ValueSpec, fs factSet) {
	if len(vs.Values) != 1 {
		for _, v := range vs.Values {
			applyCalls(pkg, v, func(call *ast.CallExpr) {
				connLeakCall(ctx, pkg, call, fs, nil, false)
			})
			killEscapedMentions(pkg, v, fs, nil)
		}
		return
	}
	call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr)
	if !ok {
		killEscapedMentions(pkg, vs.Values[0], fs, nil)
		return
	}
	lhs := make([]types.Object, len(vs.Names))
	for i, id := range vs.Names {
		if id.Name != "_" {
			lhs[i] = pkg.Info.Defs[id]
		}
	}
	errObj := pairedErr(lhs)
	killEscapedMentions(pkg, call, fs, nil)
	invalidateAssigned(fs, lhs)
	connLeakCall(ctx, pkg, call, fs, errObj, true)
	if conn, writable := acquirerCall(pkg, ctx.Summaries, call); conn || writable {
		fn := calleeFunc(pkg, call)
		for _, o := range lhs {
			if o != nil && isCloserType(o.Type()) {
				fs[o] = fact{acquired: vs.Pos(), desc: shortCallee(fn) + " result",
					err: errObj, errLive: errIsNil}
			}
		}
	}
}

// connLeakCall applies one call's effect on tracked arguments:
//
//   - x.Close() kills the obligation.
//   - a callee that closes x's parameter (summary) kills it.
//   - a call whose closer-typed result is being captured wraps x: if an
//     error result is captured too, x stays the caller's problem exactly
//     when the call failed (errNonNil); otherwise ownership moves entirely.
//     The first wrapped fact is returned so the assignment can re-track it
//     under the result variable.
//   - any other pass of x across a call boundary discharges it — the
//     analysis is intraprocedural plus one summary hop, and guessing
//     further would only produce noise.
func connLeakCall(ctx *Context, pkg *Package, call *ast.CallExpr, fs factSet, errObj types.Object, wrapsResult bool) *fact {
	if obj := closeReceiver(pkg, call); obj != nil {
		delete(fs, obj)
		return nil
	}
	fn := calleeFunc(pkg, call)
	sum := ctx.Summaries.of(fn)
	var wrapped *fact
	for i, arg := range call.Args {
		obj := identObj(pkg, arg)
		if obj == nil {
			continue
		}
		f, tracked := fs[obj]
		if !tracked {
			continue
		}
		switch {
		case sum.closesParam(argParamIndex(fn, i)):
			delete(fs, obj)
		case wrapsResult:
			if wrapped == nil {
				w := f
				wrapped = &w
			}
			if errObj != nil {
				f.err = errObj
				f.errLive = errNonNil
				fs[obj] = f
			} else {
				delete(fs, obj)
			}
		default:
			delete(fs, obj)
		}
	}
	return wrapped
}

// nonRootCalls collects the calls within n other than root (already handled)
// and calls nested inside root's arguments.
func nonRootCalls(pkg *Package, n ast.Node, root *ast.CallExpr) []*ast.CallExpr {
	var out []*ast.CallExpr
	applyCalls(pkg, n, func(call *ast.CallExpr) {
		if call != root {
			out = append(out, call)
		}
	})
	return out
}
