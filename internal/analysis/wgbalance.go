package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WgBalance checks the fan-out discipline the cluster layer lives on:
// spawn N workers, account for every one of them. Router.Write's quorum
// collector (internal/cluster) is the motivating shape — a WaitGroup or
// result channel whose accounting is off by one does not fail a test run,
// it deadlocks a repository request under exactly the replica-failure
// schedule the cluster exists to survive.
//
// Four rules, all per spawned goroutine body (flow-sensitive through its
// CFG, so "on some path" means a real path):
//
//   - wg.Add inside the spawned goroutine races the spawner's wg.Wait: Wait
//     can observe the counter before the goroutine has run Add. Add must
//     happen-before the go statement.
//   - a spawned goroutine that calls wg.Done on some paths but not others
//     leaves Wait hanging on the paths that skip it (a min/max Done count
//     is computed through the worker's CFG; defers count on every path by
//     counting at the registration point).
//   - a Done that runs at least twice on every path panics the WaitGroup.
//   - a worker that sends its result on a captured channel on some paths
//     but not others starves the collector's receive. Sends that are select
//     communications are exempt (the select's other arms are the escape
//     hatch), as are workers whose send count the analysis cannot pin to
//     one (loops).
//
// Plus one spawner-side rule: an *unbuffered* channel fanned out to
// loop-spawned senders, received outside a range-over-channel loop, blocks
// the stragglers forever once the receiver stops early (the quorum
// collector takes Need of N). Buffer the channel to the fan-out size so
// losers can finish and exit. A range-over-channel receive is exempt — it
// implies a close-after-drain protocol.
var WgBalance = &Pass{
	Name: "wgbalance",
	Doc:  "WaitGroup or result-channel accounting unbalanced across goroutine paths",
	Run:  runWgBalance,
}

func runWgBalance(ctx *Context, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	funcBodies(pkg, func(fb funcBody) {
		litN := 0
		ast.Inspect(fb.body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok && fl.Body != fb.body {
				return false // visited as its own funcBodies entry
			}
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			litN++
			diags = append(diags, checkSpawnedWorker(ctx, pkg, fb.name, lit)...)
			return true
		})
		diags = append(diags, checkFanoutBuffer(pkg, fb.body)...)
	})
	return diags
}

// checkSpawnedWorker applies the per-worker rules to one `go func(){...}()`
// literal.
func checkSpawnedWorker(ctx *Context, pkg *Package, owner string, lit *ast.FuncLit) []Diagnostic {
	var diags []Diagnostic

	// Rule: Add inside the spawned goroutine (on a WaitGroup captured from
	// the spawner) races Wait.
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl != lit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj, method := waitGroupCall(pkg, call)
		if obj != nil && method == "Add" && capturedBy(lit, obj) {
			diags = append(diags, pkg.diag("wgbalance", call.Pos(),
				"%s.Add inside the spawned goroutine races Wait in the spawner; call Add before the go statement", obj.Name()))
		}
		return true
	})

	// Rules: Done path balance per captured WaitGroup; send balance per
	// captured channel.
	selectSends := selectComms(lit.Body, 1)
	for _, obj := range capturedAccounting(pkg, lit) {
		if isWaitGroupType(obj.Type()) {
			c := countOnPaths(ctx, pkg, owner+" worker", lit.Body, func(n ast.Node) int {
				return countMatches(lit, n, func(m ast.Node) bool {
					call, ok := m.(*ast.CallExpr)
					if !ok {
						return false
					}
					o, method := waitGroupCall(pkg, call)
					return o == obj && method == "Done"
				})
			})
			switch {
			case c.max == 1 && c.min == 0:
				diags = append(diags, pkg.diag("wgbalance", lit.Pos(),
					"spawned goroutine skips %s.Done on some path, so Wait hangs; defer the Done", obj.Name()))
			case c.min >= 2:
				diags = append(diags, pkg.diag("wgbalance", lit.Pos(),
					"spawned goroutine calls %s.Done at least twice on every path, which panics the WaitGroup", obj.Name()))
			}
			continue
		}
		// Channel: result sends.
		c := countOnPaths(ctx, pkg, owner+" worker", lit.Body, func(n ast.Node) int {
			return countMatches(lit, n, func(m ast.Node) bool {
				send, ok := m.(*ast.SendStmt)
				return ok && !selectSends[send] && identObj(pkg, send.Chan) == obj
			})
		})
		if c.max == 1 && c.min == 0 {
			diags = append(diags, pkg.diag("wgbalance", lit.Pos(),
				"spawned goroutine sends on %s on some paths but not others; the collector's receive blocks forever on the skipped send — send on every path (a zero value on failure) or select on ctx.Done", obj.Name()))
		}
	}
	return diags
}

// capturedAccounting lists the WaitGroup- and channel-typed variables the
// literal uses but does not declare, in first-use order.
func capturedAccounting(pkg *Package, lit *ast.FuncLit) []types.Object {
	var out []types.Object
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || seen[obj] || !capturedBy(lit, obj) {
			return true
		}
		if isWaitGroupType(obj.Type()) || isChanType(obj.Type()) {
			seen[obj] = true
			out = append(out, obj)
		}
		return true
	})
	return out
}

// capturedBy reports whether obj is declared outside the literal.
func capturedBy(lit *ast.FuncLit, obj types.Object) bool {
	return obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
}

// waitGroupCall matches `x.Add(...)` / `x.Done()` / `x.Wait()` on a
// sync.WaitGroup variable, returning the variable and method name.
func waitGroupCall(pkg *Package, call *ast.CallExpr) (types.Object, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	obj := identObj(pkg, sel.X)
	if obj == nil || !isWaitGroupType(obj.Type()) {
		return nil, ""
	}
	return obj, sel.Sel.Name
}

func isWaitGroupType(t types.Type) bool { return isSyncType(t, "WaitGroup") }

func isChanType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// countMatches counts match hits within one CFG node, not descending into
// nested function literals (their bodies run under their own CFG).
func countMatches(lit *ast.FuncLit, n ast.Node, match func(ast.Node) bool) int {
	count := 0
	ast.Inspect(n, func(m ast.Node) bool {
		if fl, ok := m.(*ast.FuncLit); ok && fl != lit {
			return false
		}
		if match(m) {
			count++
		}
		return true
	})
	return count
}

// pathCount is a [min, max] occurrence-count lattice, saturated at 2 —
// enough to distinguish "never", "exactly once", and "more than once".
type pathCount struct{ min, max int }

const countCap = 2

func (c pathCount) add(k int) pathCount {
	c.min += k
	c.max += k
	if c.min > countCap {
		c.min = countCap
	}
	if c.max > countCap {
		c.max = countCap
	}
	return c
}

func joinCounts(a, b pathCount) pathCount {
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	return a
}

// countOnPaths computes the min/max number of matches along the paths from
// entry to the function exit (returns and fall-through; panicking paths do
// not reach the exit). Defers are counted at their registration point,
// which equals their run count: a registered defer always executes.
func countOnPaths(ctx *Context, pkg *Package, name string, body *ast.BlockStmt, matchCount func(ast.Node) int) pathCount {
	cfg := ctx.cfgOf(pkg, name, body)
	in, reached := solveFlow(cfg, pathCount{}, flowSpec[pathCount]{
		clone: func(c pathCount) pathCount { return c },
		join: func(dst, src pathCount) (pathCount, bool) {
			j := joinCounts(dst, src)
			return j, j != dst
		},
		transfer: func(n ast.Node, c pathCount) pathCount {
			// The function's own BlockStmt is the end-of-function marker
			// node; counting it would re-walk the whole body. A RangeStmt
			// marker likewise holds its lowered body: only the range
			// expression evaluates at the marker itself.
			if root := shallowRoot(n); root != nil {
				c = c.add(matchCount(root))
			}
			return c
		},
	})
	if !reached[cfg.Exit.Index] {
		return pathCount{}
	}
	return in[cfg.Exit.Index]
}

// checkFanoutBuffer flags `ch := make(chan T)` (unbuffered) fanned out to
// goroutines spawned inside a loop, when the spawner's receives are not a
// range-over-channel drain.
func checkFanoutBuffer(pkg *Package, body *ast.BlockStmt) []Diagnostic {
	// Unbuffered channels declared in this body.
	unbuffered := make(map[types.Object]*ast.CallExpr)
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != body {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true // make with a size is buffered; leave it be
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "make" {
			return true
		}
		obj := assignedObj(pkg, as.Lhs[0])
		if obj != nil && isChanType(obj.Type()) {
			unbuffered[obj] = call
		}
		return true
	})
	if len(unbuffered) == 0 {
		return nil
	}

	// Loop-spawned senders on those channels.
	loopSenders := make(map[types.Object]bool)
	var inLoop func(n ast.Node, depth int)
	inLoop = func(n ast.Node, depth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt, *ast.RangeStmt:
				inLoop(m, depth+1)
				return false
			case *ast.GoStmt:
				if depth == 0 {
					return true
				}
				if lit, ok := ast.Unparen(m.Call.Fun).(*ast.FuncLit); ok {
					ast.Inspect(lit.Body, func(s ast.Node) bool {
						if send, ok := s.(*ast.SendStmt); ok {
							if obj := identObj(pkg, send.Chan); obj != nil {
								if _, isTracked := unbuffered[obj]; isTracked {
									loopSenders[obj] = true
								}
							}
						}
						return true
					})
				}
				return true
			}
			return true
		})
	}
	inLoop(body, 0)
	if len(loopSenders) == 0 {
		return nil
	}

	// Receives: a range-over-channel drain exempts; any other receive form
	// can stop early and strand the losers.
	var diags []Diagnostic
	for obj := range loopSenders {
		// Any non-range receive can stop early and strand the losers.
		if _, other := receiveForms(pkg, body, obj); other {
			diags = append(diags, pkg.diag("wgbalance", unbuffered[obj].Pos(),
				"unbuffered channel %s fans out to loop-spawned senders but is not drained by range; a receiver that stops early (quorum) strands the remaining senders — buffer it to the fan-out size", obj.Name()))
		}
	}
	sortDiags(diags)
	return diags
}

// receiveForms classifies how body receives from obj: via `for range ch`
// (drain protocol) and/or any other receive expression.
func receiveForms(pkg *Package, body *ast.BlockStmt, obj types.Object) (ranged, other bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n.Body != body {
				return false
			}
		case *ast.RangeStmt:
			if identObj(pkg, n.X) == obj {
				ranged = true
				// The range header consumes the channel; receives inside its
				// body (unusual) still count via the UnaryExpr case below.
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && identObj(pkg, n.X) == obj {
				other = true
			}
		}
		return true
	})
	return ranged, other
}
