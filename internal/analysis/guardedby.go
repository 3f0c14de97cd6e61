package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GuardedBy enforces //myproxy:guardedby annotations: a struct field (or
// package-level variable) annotated with the name of a sibling sync.Mutex /
// sync.RWMutex may only be read or written where the lock-obligation engine
// proves that mutex held on *every* path (must-held; reads additionally
// accept a held read lock when the guard is an RWMutex). The annotation is
// the contract the PR-3 concurrency work relies on — the verification cache
// map, the portal session table, server drain state — made checkable.
//
// Grammar (see DESIGN.md §11):
//
//	type Sessions struct {
//		mu      sync.Mutex
//		byToken map[string]*Session //myproxy:guardedby mu
//	}
//
//	var randMu sync.Mutex
//	//myproxy:guardedby randMu
//	var sharedRand = mrand.New(...)
//
// The named mutex must be a sibling field of the same struct (or a
// package-level mutex variable in the same package). Cross-struct guarding
// is out of scope and documented as a limitation.
//
// Interprocedural checking: an unproven access whose base is the method's
// own receiver is not reported in place — it becomes a requiresLock entry in
// the method's summary (propagated to a fixpoint through same-receiver
// helper calls), and every *call site* of that method must instead prove the
// mutex held. Helpers like a stats() accessor therefore check without being
// forced to lock internally.
var GuardedBy = &Pass{
	Name: "guardedby",
	Doc:  "access to a //myproxy:guardedby field without its mutex provably held",
	Run:  runGuardedBy,
}

// guardTable is the collected annotation set for one load.
type guardTable struct {
	// fields maps "pkgpath.StructType.field" to the sibling mutex field name.
	fields map[string]string
	// vars maps a guarded package-level variable to its package-level mutex.
	vars map[types.Object]types.Object
}

func (g *guardTable) empty() bool {
	return g == nil || (len(g.fields) == 0 && len(g.vars) == 0)
}

// annotate records one //myproxy:guardedby annotation (args are the words
// after the marker) on a struct field or package variables. Malformed
// annotations — no target, an unknown sibling, a non-mutex — are reported
// as "pragma" diagnostics, like other pragma misuse.
func (g *guardTable) annotate(tgt markTarget, args []string, pos token.Pos) []Diagnostic {
	pkg := tgt.pkg
	var diags []Diagnostic
	bad := func(format string, a ...interface{}) {
		diags = append(diags, pkg.diag("pragma", pos, format, a...))
	}
	if tgt.field != nil {
		var muField *ast.Field
		if len(args) == 1 {
			muField = structFieldNamed(tgt.st, args[0])
		}
		tv, typed := types.TypeAndValue{}, false
		if muField != nil {
			tv, typed = pkg.Info.Types[muField.Type]
		}
		switch {
		case len(args) != 1:
			bad("malformed annotation: want //myproxy:guardedby <sibling-mutex-field>")
		case muField == nil:
			bad("guardedby names %q, which is not a field of struct %s", args[0], tgt.ts.Name.Name)
		case !typed || !isMutexType(tv.Type):
			bad("guardedby names %q, which is not a sync.Mutex or sync.RWMutex", args[0])
		default:
			for _, name := range tgt.field.Names {
				g.fields[pkg.Types.Path()+"."+tgt.ts.Name.Name+"."+name.Name] = args[0]
			}
		}
	}
	// Package-level variables: the annotation names a package-level mutex.
	for _, vs := range tgt.vars {
		var muObj types.Object
		if len(args) == 1 {
			muObj = pkg.Types.Scope().Lookup(args[0])
		}
		switch {
		case len(args) != 1:
			bad("malformed annotation: want //myproxy:guardedby <package-mutex-var>")
		case muObj == nil:
			bad("guardedby names %q, which is not a package-level variable here", args[0])
		case !isMutexType(muObj.Type()):
			bad("guardedby names %q, which is not a sync.Mutex or sync.RWMutex", args[0])
		default:
			for _, name := range vs.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					g.vars[obj] = muObj
				}
			}
		}
	}
	return diags
}

func structFieldNamed(st *ast.StructType, name string) *ast.Field {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name == name {
				return f
			}
		}
	}
	return nil
}

// --- access checking ---

// guardedHit is one unproven guarded access or obligation-carrying call.
type guardedHit struct {
	pos token.Pos
	// root is the base variable the access path starts from (a receiver, a
	// local, a package var); the interprocedural machinery compares it with
	// the enclosing method's receiver.
	root types.Object
	// mpath is the mutex's field path relative to root ("" when root *is*
	// the mutex — the package-variable case).
	mpath string
	// muLabel renders the mutex for messages ("s.mu", "randMu").
	muLabel string
	// write marks the access (or the callee's strongest need) as a write.
	write bool
	// what describes the access for messages.
	what string
	// isCall marks a call to a function whose summary requires the lock.
	isCall bool
}

// guardedScan runs the lock flow over one body and invokes hit for every
// guarded access (and requiresLock call) the engine cannot prove protected.
// The summary table is passed explicitly because the fixpoint in
// buildSummaries calls this while the table is still being built.
func guardedScan(ctx *Context, t summaryTable, pkg *Package, name string, body *ast.BlockStmt, hit func(guardedHit)) {
	if ctx.Guarded.empty() {
		return
	}
	cfg := ctx.cfgOf(pkg, name, body)
	fresh := freshLocals(pkg, body)
	solveFlow(cfg, make(lockSet), lockFlow(pkg, func(n ast.Node, ls lockSet) {
		root := shallowRoot(n)
		if root == nil {
			return
		}
		walkGuardedAccesses(ctx, pkg, root, func(a guardedAccess) {
			if fresh[a.base.root] {
				return
			}
			mu := extendRef(a.base, a.muName) // a sibling: base already holds the field path
			if guardProven(ls, mu, a.write) {
				return
			}
			hit(guardedHit{
				pos:  a.pos,
				root: a.base.root, mpath: joinPath(a.base.fields, a.muName),
				muLabel: mu.name, write: a.write, what: a.what,
			})
		})
		applyCalls(pkg, n, func(call *ast.CallExpr) {
			fn := calleeFunc(pkg, call)
			sum := t.of(fn)
			if sum == nil || len(sum.requiresLock) == 0 {
				return
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return
			}
			base, ok := resolvePath(pkg, sel.X)
			if !ok || fresh[base.root] {
				return
			}
			for mpath, write := range sum.requiresLock {
				mu := extendRef(base, mpath) // relative to the callee's receiver, i.e. to base
				if guardProven(ls, mu, write) {
					continue
				}
				hit(guardedHit{
					pos:  call.Pos(),
					root: base.root, mpath: joinPath(base.fields, mpath),
					muLabel: mu.name, write: write,
					what: "call to " + shortCallee(fn), isCall: true,
				})
			}
		})
	}))
}

// guardProven reports whether the mutex is provably held: writes need the
// write lock on every path; reads also accept a read lock on every path.
func guardProven(ls lockSet, mu lockRef, write bool) bool {
	info := ls[mu.key()]
	if write {
		return info.wmust
	}
	return info.wmust || info.rmust
}

// joinPath prepends the base's own field path to a relative mutex path, so
// obligations hop outward one receiver at a time: s.inner.helper() with
// callee need "mu" becomes need "inner.mu" for s's methods.
func joinPath(baseFields []string, mpath string) string {
	if len(baseFields) == 0 {
		return mpath
	}
	if mpath == "" {
		return strings.Join(baseFields, ".")
	}
	return strings.Join(baseFields, ".") + "." + mpath
}

// guardedAccess is one syntactic read/write of a guarded field or variable.
type guardedAccess struct {
	pos    token.Pos
	base   lockRef // owner path for fields; a ref of the mutex var for vars
	muName string  // sibling mutex field name; "" when base is the mutex var
	write  bool
	what   string
}

// walkGuardedAccesses finds reads/writes of guarded fields and variables in
// a shallow CFG node, skipping nested function literals (they are scanned as
// their own bodies).
func walkGuardedAccesses(ctx *Context, pkg *Package, root ast.Node, visit func(guardedAccess)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			field, ok := pkg.Info.Uses[n.Sel].(*types.Var)
			if !ok || !field.IsField() {
				return true
			}
			muName, guarded := ctx.Guarded.fields[fieldOwnerKey(pkg, n)]
			if !guarded {
				return true
			}
			base, ok := resolvePath(pkg, n.X)
			if !ok {
				return true // unresolvable base: documented limitation
			}
			write := accessIsWrite(pkg, stack)
			visit(guardedAccess{
				pos: n.Sel.Pos(), base: base, muName: muName, write: write,
				what: accessVerb(write) + " of " + base.name + "." + n.Sel.Name,
			})
		case *ast.Ident:
			obj := pkg.Info.Uses[n]
			if obj == nil {
				return true
			}
			muObj, guarded := ctx.Guarded.vars[obj]
			if !guarded {
				return true
			}
			write := accessIsWrite(pkg, stack)
			visit(guardedAccess{
				pos:  n.Pos(),
				base: lockRef{root: muObj, name: muObj.Name()}, muName: "",
				write: write,
				what:  accessVerb(write) + " of " + n.Name,
			})
		}
		return true
	})
}

func accessVerb(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// fieldOwnerKey renders "pkgpath.StructType.field" for a selector whose Sel
// is a struct field, matching guardTable.fields keys. Promoted (embedded)
// access paths are not resolved — annotate at the owning struct.
func fieldOwnerKey(pkg *Package, sel *ast.SelectorExpr) string {
	tv, ok := pkg.Info.Types[sel.X]
	if !ok {
		return ""
	}
	named := namedOf(tv.Type)
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Sel.Name
}

// accessIsWrite classifies the innermost expression on the stack: assignment
// target (through index/slice/field/paren/star chains), IncDecStmt, address
// taken, or the map argument of delete().
func accessIsWrite(pkg *Package, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	cur, ok := stack[len(stack)-1].(ast.Expr)
	if !ok {
		return false
	}
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			cur = p
		case *ast.StarExpr:
			cur = p
		case *ast.IndexExpr:
			if p.X != cur {
				return false // used as the index: a read
			}
			cur = p
		case *ast.SliceExpr:
			if p.X != cur {
				return false
			}
			cur = p
		case *ast.SelectorExpr:
			if p.X != cur {
				return false
			}
			cur = p
		case *ast.AssignStmt:
			for _, l := range p.Lhs {
				if l == cur {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return p.X == cur
		case *ast.UnaryExpr:
			return p.Op == token.AND && p.X == cur
		case *ast.CallExpr:
			if id, ok := ast.Unparen(p.Fun).(*ast.Ident); ok {
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					return len(p.Args) > 0 && p.Args[0] == cur
				}
			}
			return false
		default:
			return false
		}
	}
	return false
}

// freshLocals collects local variables assigned from a composite literal,
// &composite, or new(T) in this body: values no other goroutine can see yet,
// exempt from guard checking (the constructor pattern).
func freshLocals(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if !isFreshExpr(pkg, as.Rhs[i]) {
				continue
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if obj := pkg.Info.Defs[id]; obj != nil {
				fresh[obj] = true
			}
		}
		return true
	})
	return fresh
}

func isFreshExpr(pkg *Package, e ast.Expr) bool {
	expr := ast.Unparen(e)
	if ue, ok := expr.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		expr = ast.Unparen(ue.X)
	}
	switch expr := expr.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(expr.Fun).(*ast.Ident); ok {
			if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "new" {
				return true
			}
		}
	}
	return false
}

// --- the pass ---

func runGuardedBy(ctx *Context, pkg *Package) []Diagnostic {
	if ctx.Guarded.empty() {
		return nil
	}
	var diags []Diagnostic
	report := func(h guardedHit) {
		if h.isCall {
			diags = append(diags, pkg.diag("guardedby", h.pos,
				"%s accesses state guarded by %s, which is not provably held here; lock it around the call",
				h.what, h.muLabel))
			return
		}
		diags = append(diags, pkg.diag("guardedby", h.pos,
			"%s, which is guarded by %s; no path proves the lock held — lock it or move the access under the existing critical section",
			h.what, h.muLabel))
	}
	funcBodies(pkg, func(fb funcBody) {
		fd, isDecl := fb.fn.(*ast.FuncDecl)
		if !isDecl {
			// A literal may run as its own goroutine: receiver-based
			// accesses cannot be deferred to call sites — report them.
			guardedScan(ctx, ctx.Summaries, pkg, fb.name, fb.body, report)
			return
		}
		recv := receiverObj(pkg, fd)
		guardedScan(ctx, ctx.Summaries, pkg, fb.name, fb.body, func(h guardedHit) {
			// An unproven access through the method's own receiver is the
			// *callers'* obligation: the summary sweep recorded it as a
			// requiresLock entry, and every call site checks it instead.
			if recv == nil || h.root != recv {
				report(h)
			}
		})
	})
	return diags
}
