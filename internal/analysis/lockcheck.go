package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockCheck models Lock/Unlock/RLock/RUnlock calls (and defer mu.Unlock())
// as dataflow obligations, the same way connleak models Close. The paper's
// repository is a long-lived multi-client server (§4, §6): a mutex that
// leaks out of one request path freezes every subsequent client, and a
// mutex held across a blocking handshake or delegation exchange lets a
// single stalled peer serialize the whole service. Four rules:
//
//   - double-lock: Lock (or RLock) of a mutex that is must-held on every
//     path to the call — sync.Mutex is not reentrant, so this self-deadlocks.
//   - unmatched unlock: Unlock of a mutex not locked on any path.
//   - held-at-return: a mutex may-held at a return (or fall-off-the-end)
//     with no deferred unlock covering it. Reported at the acquisition.
//   - lock-across-blocking-call: a must-held mutex live across a TLS
//     handshake, a gsi delegation exchange, or a bare channel operation
//     (select communications are exempt — a select is the idiomatic bounded
//     wait). Also interprocedural: calling a method whose summary says it
//     acquires a mutex field of the same receiver that the caller already
//     holds (see funcSummary.locksFields).
//
// The lattice is may/must combined (see lock.go): "must" keeps double-lock
// and blocking-call findings free of branch noise, "may" is what makes a
// leak on *some* path a finding. TryLock acquisitions are tracked may-only —
// the success-conditioned state is documented as out of scope.
var LockCheck = &Pass{
	Name: "lockcheck",
	Doc:  "mutex held at return, double-lock, unmatched unlock, lock across blocking call",
	Run:  runLockCheck,
}

func runLockCheck(ctx *Context, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	funcBodies(pkg, func(fb funcBody) {
		// An immediately deferred literal runs at return time under the
		// enclosing function's locks — whose own flow already credits its
		// unlocks via deferredUnlocks — so analyzing it as an independent
		// zero-state body would misreport those unlocks as unmatched.
		if !fb.deferred {
			diags = append(diags, lockCheckBody(ctx, pkg, fb.name, fb.body)...)
		}
	})
	return diags
}

func lockCheckBody(ctx *Context, pkg *Package, name string, body *ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	cfg := ctx.cfgOf(pkg, name, body)
	comms := selectComms(body, 1)
	reportedLeak := make(map[string]bool) // acquisition pos + key, one leak finding each

	line := func(p token.Pos) int { return pkg.Fset.Position(p).Line }

	solveFlow(cfg, make(lockSet), lockFlow(pkg, func(n ast.Node, ls lockSet) {
		// Held at return / fall off the end: anchored at the acquisition so
		// a pragma there covers every return the lock escapes through.
		switch n.(type) {
		case *ast.ReturnStmt, *ast.BlockStmt:
			for _, info := range ls {
				if !info.leakMay || info.pos == token.NoPos {
					continue
				}
				dk := info.name + "@" + pkg.Fset.Position(info.pos).String()
				if reportedLeak[dk] {
					continue
				}
				reportedLeak[dk] = true
				diags = append(diags, pkg.diag("lockcheck", info.pos,
					"%s is still locked when %s returns (line %d reachable with the lock held); unlock on every path or defer %s.Unlock()",
					info.name, name, line(n.Pos()), info.name))
			}
		}

		applyCalls(pkg, n, func(call *ast.CallExpr) {
			if ref, op, ok := syncLockCall(pkg, call); ok {
				info := ls[ref.key()]
				switch op {
				case opLock:
					if info.heldMust() {
						diags = append(diags, pkg.diag("lockcheck", call.Pos(),
							"%s.Lock() but %s is already held (acquired at line %d); sync mutexes are not reentrant, this deadlocks",
							ref.name, info.name, line(info.pos)))
					}
				case opRLock:
					if info.wmust {
						diags = append(diags, pkg.diag("lockcheck", call.Pos(),
							"%s.RLock() but %s is already write-locked (acquired at line %d); this deadlocks",
							ref.name, info.name, line(info.pos)))
					}
				case opUnlock:
					if !info.wmay {
						diags = append(diags, pkg.diag("lockcheck", call.Pos(),
							"%s.Unlock() but no path holds the write lock here; unlocking an unlocked mutex panics",
							ref.name))
					}
				case opRUnlock:
					if !info.rmay {
						diags = append(diags, pkg.diag("lockcheck", call.Pos(),
							"%s.RUnlock() but no path holds the read lock here; unlocking an unlocked mutex panics",
							ref.name))
					}
				}
				return
			}

			fn := calleeFunc(pkg, call)
			if fn == nil {
				return
			}
			if what := blockingSinkCall(fn); what != "" {
				if mu, ok := anyMustHeld(ls); ok {
					diags = append(diags, pkg.diag("lockcheck", call.Pos(),
						"%s while %s is held (acquired at line %d); one stalled peer blocks every user of the lock — release it first or bound the call",
						what, mu.name, line(mu.pos)))
				}
				return
			}
			// Interprocedural self-deadlock: x.Foo() where Foo's summary says
			// it acquires a mutex reachable from x that is already must-held.
			sum := ctx.Summaries.of(fn)
			if sum == nil || len(sum.locksFields) == 0 {
				return
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return
			}
			base, ok := resolvePath(pkg, sel.X)
			if !ok {
				return
			}
			for fpath, calleeWrites := range sum.locksFields {
				mu := extendRef(base, fpath)
				info := ls[mu.key()]
				// Lock-vs-anything and anything-vs-Lock deadlock; shared
				// RLock-while-RLock is allowed.
				if (calleeWrites && info.heldMust()) || (!calleeWrites && info.wmust) {
					diags = append(diags, pkg.diag("lockcheck", call.Pos(),
						"%s acquires %s, which is already held (acquired at line %d); this deadlocks",
						shortCallee(fn), mu.name, line(info.pos)))
				}
			}
		})

		// Bare channel operations outside selects block unboundedly.
		if comms[n] {
			return
		}
		if mu, ok := anyMustHeld(ls); ok {
			if chanOp := bareChannelOp(n); chanOp != "" {
				diags = append(diags, pkg.diag("lockcheck", n.Pos(),
					"channel %s while %s is held (acquired at line %d); a slow counterpart blocks every user of the lock",
					chanOp, mu.name, line(mu.pos)))
			}
		}
	}))
	return diags
}

// blockingSinkCall names the unbounded-blocking calls lockcheck refuses to
// see under a held mutex: TLS handshakes and the repository's delegation
// exchanges (the same sinks ctxdeadline bounds with deadlines).
func blockingSinkCall(fn *types.Func) string {
	switch funcKey(fn) {
	case "(crypto/tls.Conn).Handshake", "(crypto/tls.Conn).HandshakeContext":
		return "TLS handshake"
	}
	if fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/gsi") && gsiDelegationFuncs[fn.Name()] {
		return "delegation exchange (" + shortCallee(fn) + ")"
	}
	return ""
}

// anyMustHeld returns some mutex held on every path, preferring the earliest
// acquisition for stable messages.
func anyMustHeld(ls lockSet) (lockInfo, bool) {
	var best lockInfo
	found := false
	for _, info := range ls {
		if !info.heldMust() || info.pos == token.NoPos {
			continue
		}
		if !found || info.pos < best.pos {
			best = info
			found = true
		}
	}
	return best, found
}

// bareChannelOp classifies a shallow node as a blocking channel operation:
// a send statement or a receive expression, outside any select communication
// clause and outside nested function literals.
func bareChannelOp(n ast.Node) string {
	root := shallowRoot(n)
	if root == nil {
		return ""
	}
	if _, ok := n.(*ast.DeferStmt); ok {
		return "" // runs at return, after unlocks
	}
	op := ""
	ast.Inspect(root, func(m ast.Node) bool {
		if op != "" {
			return false
		}
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			op = "send"
			return false
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				op = "receive"
				return false
			}
		case *ast.RangeStmt:
			return false
		}
		return true
	})
	return op
}

// extendRef appends a dotted field path to a base reference.
func extendRef(base lockRef, fpath string) lockRef {
	if fpath == "" {
		return base
	}
	ref := base
	for _, part := range strings.Split(fpath, ".") {
		ref = ref.child(part)
	}
	return ref
}
