package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Call summaries let the intraprocedural dataflow passes see one hop across
// a call: "this function returns a freshly opened closer", "this function
// closes (or never closes) its connection parameter", "this function wipes
// the byte slice it is given", "the byte slice this function returns holds
// secret material". Summaries are keyed by the callee's fully-qualified
// name — "repro/internal/gsi.Client", "(net.Dialer).DialContext" — rather
// than by *types.Func identity, because the same function is a different
// object when reached through export data than when loaded from source.
//
// The table is seeded with facts about standard-library functions and then
// extended by scanning every function declaration in the load:
//
//   - secretResult: the declaration's doc comment carries a standalone
//     //myproxy:secret line and a result is a byte slice (the function-level
//     counterpart of the type marker in secret.go).
//   - wipesParam: the body zeroes a byte-slice parameter (range-assign 0 or
//     clear()), or forwards it to a function that does; propagated to a
//     fixpoint so trivial wrappers inherit the fact.
//   - closesParam / leakOnError: for every closer-typed parameter the
//     shared obligation tracker (dataflow.go) runs over the body with the
//     parameter seeded "open"; closed-or-retained on every path ⇒
//     closesParam, still open at some return ⇒ leakOnError. A caller whose
//     wrapper call does not close its conn keeps ownership if the call
//     failed (see connleak.go).
//   - acquiresConn / acquiresWritable: a return statement returns the result
//     of a known acquirer (directly or via a local), so the function itself
//     hands its caller an open resource.
//   - armsResult: the body arms a deadline (SetDeadline family), so the
//     ctxdeadline pass trusts the connections it returns.

// funcSummary is the per-function entry of the table.
type funcSummary struct {
	acquiresConn     bool
	acquiresWritable bool
	// freshConn: the function hands back a newly built connection object (a
	// composite literal of a deadline-capable type, or a forwarded fresh
	// conn) — the ctxdeadline pass treats such results as unarmed unless
	// armsResult also holds.
	freshConn    bool
	armsResult   bool
	secretResult bool
	// noReturn: every execution path reaches a terminating call (panic,
	// os.Exit, a noReturn callee) before any statement that could leave
	// the function normally. The CFG builder ends paths at calls to such
	// functions exactly as it does for os.Exit, so `if err != nil {
	// cliutil.Fatalf(...) }` kills the error path's facts even though the
	// branch has no return.
	noReturn bool
	// wipes, closes, leakOnError are keyed by parameter index (variadic
	// parameters use their declared index).
	wipes       map[int]bool
	closes      map[int]bool
	leakOnError map[int]bool
	// locksFields maps mutex field paths of the receiver ("mu", "inner.mu",
	// "" for an embedded mutex locked via the receiver itself) that the
	// method acquires at some point; the value records a write acquisition
	// (Lock) vs read (RLock). lockcheck uses it to flag calling a method
	// that re-acquires a mutex the caller already holds.
	locksFields map[string]bool
	// requiresLock maps mutex field paths (relative to the receiver) whose
	// lock the *caller* must hold: the method accesses a //myproxy:guardedby
	// field without locking internally. The value records whether a write
	// lock is needed. Propagated through same-receiver helper calls by the
	// summary sweep (see deriveLockFacts).
	requiresLock map[string]bool
	// retryMarks records the retry-safe-ambiguity constructions reachable
	// from this function whose op name or safety gate is one of its own
	// parameters; the retrysafe pass resolves them against call-site
	// constants (see retrysafe.go and interproc.go).
	retryMarks []retryMark

	// Trust-boundary taint facts (taint.go). taintKnown marks entries whose
	// taint behavior was derived from a body (or seeded explicitly): for
	// such callees the caller trusts the fields below exclusively, instead
	// of falling back to the package-level propagation heuristics.
	taintKnown bool
	// taintsReturn: the results carry wire-derived data regardless of the
	// arguments (the function reads from the wire itself, or is marked
	// //myproxy:untrusted).
	taintsReturn bool
	// taintProp maps parameter indices whose taint flows into a result.
	taintProp map[int]bool
	// taintsBuf maps byte-slice parameter indices the function fills with
	// wire data (the io.Reader.Read shape).
	taintsBuf map[int]bool
	// sanitizes: the results are clean regardless of inputs (hash-shaped
	// derivation or the //myproxy:sanitizes marker).
	sanitizes bool
	// validates maps parameter indices a single-error-result validator
	// proves clean: at a call site `err := f(x)`, x's taint dies on the
	// err == nil branch.
	validates map[int]bool
	// taintSinks records parameters whose taint reaches a sink inside the
	// callee; the taint passes report at tainted call sites.
	taintSinks []taintSinkFlow
}

// taintSinkFlow is one "parameter reaches a sink" interprocedural fact.
type taintSinkFlow struct {
	// param is the callee parameter index whose taint reaches the sink.
	param int
	// kind classifies the sink (path/alloc/log/hdr).
	kind taintKind
	// sink is the sink's display name ("os.Open", "(*log.Logger).Printf").
	sink string
	// fmtParam, when >= 0, names the callee's own printf-style format
	// parameter: the caller resolves this argument's conversion verb against
	// the constant format it passes there, so `failf(conn, msg, "GET %q",
	// req.Username)` is recognized as escaped while "%s" is not.
	fmtParam int
}

func (s *funcSummary) wipesParam(i int) bool  { return s != nil && s.wipes[i] }
func (s *funcSummary) closesParam(i int) bool { return s != nil && s.closes[i] }

// locks returns locksFields, tolerating a missing summary.
func (s *funcSummary) locks() map[string]bool {
	if s == nil {
		return nil
	}
	return s.locksFields
}

type summaryTable map[string]*funcSummary

func (t summaryTable) of(fn *types.Func) *funcSummary {
	if fn == nil {
		return nil
	}
	return t[funcKey(fn)]
}

func (t summaryTable) get(key string) *funcSummary {
	s := t[key]
	if s == nil {
		s = &funcSummary{}
		t[key] = s
	}
	return s
}

// funcKey renders a function's stable fully-qualified name:
// "path/to/pkg.Func" for package functions, "(path/to/pkg.Type).Method" for
// methods (pointer receivers and interface methods included).
func funcKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok {
		if recv := sig.Recv(); recv != nil {
			named := namedOf(recv.Type())
			if named == nil || named.Obj().Pkg() == nil {
				return ""
			}
			return "(" + named.Obj().Pkg().Path() + "." + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// seedSummaries returns the built-in knowledge about the standard library,
// the taint frontier included (taint.go).
func seedSummaries() summaryTable {
	t := make(summaryTable)
	acquire := func(keys ...string) {
		for _, k := range keys {
			t.get(k).acquiresConn = true
		}
	}
	acquire(
		"net.Dial", "net.DialTimeout", "net.Listen", "net.ListenPacket",
		"net.ListenTCP", "net.ListenUDP", "net.ListenUnix", "net.FileConn",
		"(net.Dialer).Dial", "(net.Dialer).DialContext",
		"(net.ListenConfig).Listen",
		"(net.Listener).Accept", "(net.TCPListener).Accept", "(net.TCPListener).AcceptTCP",
		"crypto/tls.Dial", "crypto/tls.DialWithDialer",
		"(crypto/tls.Dialer).Dial", "(crypto/tls.Dialer).DialContext",
		"os.Open", "os.Create", "os.CreateTemp", "os.OpenFile",
	)
	for _, k := range []string{"os.Create", "os.CreateTemp", "os.OpenFile"} {
		t.get(k).acquiresWritable = true
	}
	// DER marshalers hand back unencrypted key material.
	for _, k := range []string{
		"crypto/x509.MarshalPKCS1PrivateKey",
		"crypto/x509.MarshalPKCS8PrivateKey",
		"crypto/x509.MarshalECPrivateKey",
	} {
		t.get(k).secretResult = true
	}
	seedTaintSummaries(t)
	return t
}

// declSite is one function declaration of the load, with everything the
// summary stages (and the goroleak pass, via Context.FuncDecls) need. The
// interprocedural driver that orders and iterates the stages lives in
// interproc.go.
type declSite struct {
	pkg *Package
	fd  *ast.FuncDecl
	fn  *types.Func
	key string
}

// computeParamFates seeds each closer-typed parameter "open" and checks
// whether some path reaches a return with it still open, reporting whether
// any fate changed. A fate can flip leakOnError→closesParam inside a
// recursive component, as the callees' close summaries grow toward the
// fixpoint.
func computeParamFates(ctx *Context, pkg *Package, t summaryTable, key string, fn *types.Func, body *ast.BlockStmt) bool {
	sig := fn.Type().(*types.Signature)
	params := sig.Params()
	var closerIdx []int
	for i := 0; i < params.Len(); i++ {
		if isCloserType(params.At(i).Type()) {
			closerIdx = append(closerIdx, i)
		}
	}
	if len(closerIdx) == 0 {
		return false
	}
	changed := false
	cfg := ctx.cfgOf(pkg, key, body)
	// Close (direct or deferred) and callees known to close the argument
	// discharge; escapes discharge too — the parameter's fate is then its
	// new owner's problem. Plain argument passes keep the obligation.
	leaked := false
	o := &obligation{ctx: ctx, pkg: pkg, tracks: isCloserType, passKeeps: true, deferIsNode: true,
		leak: func(fact, int, bool) { leaked = true }}
	o.recv, o.discharges = o.closeRecv, o.closesArg
	for _, i := range closerIdx {
		p := params.At(i)
		leaked = false
		o.run(cfg, factSet{p: {acquired: p.Pos(), desc: "parameter " + p.Name()}})
		s := t.get(key)
		if s.leakOnError[i] != leaked || s.closes[i] != !leaked {
			changed = true
		}
		if leaked {
			if s.leakOnError == nil {
				s.leakOnError = make(map[int]bool)
			}
			s.leakOnError[i] = true
			delete(s.closes, i)
		} else {
			if s.closes == nil {
				s.closes = make(map[int]bool)
			}
			s.closes[i] = true
			delete(s.leakOnError, i)
		}
	}
	return changed
}

// argParamIndex maps an argument position to the parameter index, clamping
// into the variadic tail.
func argParamIndex(fn *types.Func, argIdx int) int {
	if fn == nil {
		return argIdx
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return argIdx
	}
	n := sig.Params().Len()
	if sig.Variadic() && argIdx >= n-1 {
		return n - 1
	}
	if argIdx >= n {
		return n - 1
	}
	return argIdx
}

// returnsAcquired reports whether some return hands back the result of an
// acquirer call — directly, or through a local assigned from one — or a
// freshly built connection object (composite literal of a deadline-capable
// type, e.g. `return &Conn{...}, nil`).
func returnsAcquired(pkg *Package, t summaryTable, body *ast.BlockStmt) (conn, writable, fresh bool) {
	connLocals := make(map[types.Object]bool)
	writableLocals := make(map[types.Object]bool)
	freshLocals := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		c, w, f := false, false, false
		switch rhs := ast.Unparen(as.Rhs[0]).(type) {
		case *ast.CallExpr:
			c, w = acquirerCall(pkg, t, rhs)
			if sum := t.of(calleeFunc(pkg, rhs)); sum != nil && sum.freshConn {
				f = true
			}
		default:
			f = isFreshConnExpr(pkg, as.Rhs[0])
		}
		if !c && !w && !f {
			return true
		}
		for _, lhs := range as.Lhs {
			if obj := identObj(pkg, lhs); obj != nil && isCloserType(obj.Type()) {
				if c {
					connLocals[obj] = true
				}
				if w {
					writableLocals[obj] = true
				}
				if f {
					freshLocals[obj] = true
				}
			}
		}
		return true
	})
	// A local captured by a closure is managed, not handed off: helpers like
	//
	//	ln, _ := net.Listen(...)
	//	t.Cleanup(func() { ln.Close() })
	//	return ln
	//
	// arrange the resource's cleanup themselves, so returning it creates no
	// obligation for the caller.
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		for _, locals := range []map[types.Object]bool{connLocals, writableLocals, freshLocals} {
			for obj := range locals {
				if mentionsObj(pkg, lit.Body, obj) {
					delete(locals, obj)
				}
			}
		}
		return false
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a literal's returns are not this function's
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if call, ok := ast.Unparen(res).(*ast.CallExpr); ok {
				c, w := acquirerCall(pkg, t, call)
				conn = conn || c
				writable = writable || w
				if sum := t.of(calleeFunc(pkg, call)); sum != nil && sum.freshConn {
					fresh = true
				}
			}
			if isFreshConnExpr(pkg, res) {
				fresh = true
			}
			if obj := identObj(pkg, res); obj != nil {
				conn = conn || connLocals[obj]
				writable = writable || writableLocals[obj]
				fresh = fresh || freshLocals[obj]
			}
		}
		return true
	})
	return conn, writable, fresh
}

// isFreshConnExpr matches `&T{...}` / `T{...}` where T can arm deadlines.
func isFreshConnExpr(pkg *Package, e ast.Expr) bool {
	expr := ast.Unparen(e)
	if ue, ok := expr.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		expr = ast.Unparen(ue.X)
	}
	cl, ok := expr.(*ast.CompositeLit)
	if !ok {
		return false
	}
	tv, ok := pkg.Info.Types[cl]
	if !ok {
		return false
	}
	return hasDeadline(tv.Type) || hasDeadline(types.NewPointer(tv.Type))
}

// acquirerCall reports whether the call freshly opens a closer (and whether
// it is opened writable). os.OpenFile is writable only when its flag
// argument is a constant carrying O_WRONLY or O_RDWR.
func acquirerCall(pkg *Package, t summaryTable, call *ast.CallExpr) (conn, writable bool) {
	fn := calleeFunc(pkg, call)
	sum := t.of(fn)
	if sum == nil {
		return false, false
	}
	conn = sum.acquiresConn
	writable = sum.acquiresWritable
	if writable && funcKey(fn) == "os.OpenFile" && len(call.Args) >= 2 {
		writable = constHasWriteFlag(pkg, call.Args[1])
	}
	return conn, writable
}

// constHasWriteFlag evaluates a constant open-flag expression and checks for
// O_WRONLY (1) or O_RDWR (2). Non-constant flags are treated as writable
// (conservative: the pass only reports on a defer, not the open).
func constHasWriteFlag(pkg *Package, flag ast.Expr) bool {
	tv, ok := pkg.Info.Types[flag]
	if !ok || tv.Value == nil {
		return true
	}
	v, ok := constant.Int64Val(tv.Value)
	if !ok {
		return true
	}
	const oWronly, oRdwr = 1, 2 // os.O_WRONLY, os.O_RDWR on every supported platform
	return v&(oWronly|oRdwr) != 0
}

// bodyWipes reports whether the body zeroes parameter p: an inline zeroing
// loop, a clear(p), or forwarding p to a callee that wipes that position.
func bodyWipes(pkg *Package, t summaryTable, body *ast.BlockStmt, p *types.Var) bool {
	wiped := false
	ast.Inspect(body, func(n ast.Node) bool {
		if wiped {
			return false
		}
		switch n := n.(type) {
		case *ast.RangeStmt:
			if isZeroingLoop(pkg, n, p) {
				wiped = true
				return false
			}
		case *ast.CallExpr:
			if isClearCall(pkg, n, p) {
				wiped = true
				return false
			}
			fn := calleeFunc(pkg, n)
			sum := t.of(fn)
			if sum == nil {
				return true
			}
			for i, arg := range n.Args {
				if identObj(pkg, arg) == p && sum.wipesParam(argParamIndex(fn, i)) {
					wiped = true
					return false
				}
			}
		}
		return true
	})
	return wiped
}

// isZeroingLoop matches `for i := range b { b[i] = 0 }` over obj.
func isZeroingLoop(pkg *Package, r *ast.RangeStmt, obj types.Object) bool {
	if identObj(pkg, r.X) != obj || len(r.Body.List) != 1 {
		return false
	}
	as, ok := r.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	idx, ok := ast.Unparen(as.Lhs[0]).(*ast.IndexExpr)
	if !ok || identObj(pkg, idx.X) != obj {
		return false
	}
	tv, ok := pkg.Info.Types[as.Rhs[0]]
	return ok && tv.Value != nil && constant.Sign(tv.Value) == 0
}

// isClearCall matches the clear(b) builtin applied to obj.
func isClearCall(pkg *Package, call *ast.CallExpr, obj types.Object) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "clear" {
		return false
	}
	return len(call.Args) == 1 && identObj(pkg, call.Args[0]) == obj
}

// armsDeadline reports whether the body (nested literals included —
// arming is arming) calls a deadline-arming method: on obj when obj is
// non-nil, on any receiver otherwise.
func armsDeadline(pkg *Package, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			if fn := calleeFunc(pkg, call); fn != nil && deadlineMethodNames[fn.Name()] &&
				fn.Type().(*types.Signature).Recv() != nil {
				found = obj == nil || recvObj(pkg, call) == obj
			}
		}
		return !found
	})
	return found
}

var deadlineMethodNames = map[string]bool{
	"SetDeadline":        true,
	"SetReadDeadline":    true,
	"SetWriteDeadline":   true,
	"SetMessageTimeout":  true,
	"SetSessionDeadline": true,
}

// --- shared type predicates ---

var errorType = types.Universe.Lookup("error").Type()

func isErrorVar(obj types.Object) bool {
	return obj != nil && types.Identical(obj.Type(), errorType)
}

// isCloserType reports whether t (or *t) has a Close() error method.
func isCloserType(t types.Type) bool { return hasMethodOrPtr(t, "Close") }

// hasDeadline reports whether t can be armed with SetDeadline.
func hasDeadline(t types.Type) bool { return hasMethodOrPtr(t, "SetDeadline") }

// hasMethodOrPtr reports whether t, or a pointer to a non-pointer,
// non-interface t, has the named method.
func hasMethodOrPtr(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if hasMethodNamed(t, name) {
		return true
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface:
		return false
	}
	return hasMethodNamed(types.NewPointer(t), name)
}

func hasMethodNamed(t types.Type, name string) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	_, ok := obj.(*types.Func)
	return ok
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	return ok && isByte(s.Elem())
}

func hasByteSliceResult(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isByteSlice(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// --- shared AST walking helpers for transfers ---

// applyCalls invokes f on every call expression in the shallow node,
// skipping function-literal bodies (their calls belong to the literal's own
// CFG) and the nested statements of marker nodes.
func applyCalls(pkg *Package, n ast.Node, f func(*ast.CallExpr)) {
	root := shallowRoot(n)
	if root == nil {
		return
	}
	ast.Inspect(root, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			f(m)
		}
		return true
	})
}

// shallowRoot narrows a CFG node to the part that executes *at* the node:
// range markers contribute only their range expression (the body is lowered
// into its own blocks) and the end-of-function marker contributes nothing.
func shallowRoot(n ast.Node) ast.Node {
	switch n := n.(type) {
	case *ast.RangeStmt:
		return n.X
	case *ast.BlockStmt:
		return nil
	default:
		return n
	}
}

// closeReceiver matches x.Close() and returns x's object.
func closeReceiver(pkg *Package, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" || len(call.Args) != 0 {
		return nil
	}
	return identObj(pkg, sel.X)
}

// mentionsObj reports whether the node references obj anywhere (including
// inside nested function literals — a capture keeps the value reachable).
func mentionsObj(pkg *Package, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// killEscapedMentions discharges facts whose variable escapes through the
// node: assigned to something, stored in a composite literal, sent on a
// channel, captured by a function literal, or returned. Mentions that are
// *not* escapes — the receiver of a method call, a call argument (handled
// separately by each pass's call rules), a nil comparison, len/cap — keep
// the obligation.
func killEscapedMentions(pkg *Package, n ast.Node, fs factSet) {
	root := shallowRoot(n)
	if root == nil || len(fs) == 0 {
		return
	}
	var stack []ast.Node
	ast.Inspect(root, func(m ast.Node) bool {
		if m == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, m)
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		if _, tracked := fs[obj]; !tracked {
			return true
		}
		if escapingUse(pkg, stack) {
			delete(fs, obj)
		}
		return true
	})
}

// escapingUse classifies the innermost identifier on the stack by its
// enclosing context.
func escapingUse(pkg *Package, stack []ast.Node) bool {
	// Capture by any function literal on the path is an escape.
	for _, n := range stack[:len(stack)-1] {
		if _, ok := n.(*ast.FuncLit); ok {
			return true
		}
	}
	if len(stack) < 2 {
		return false
	}
	parent := stack[len(stack)-2]
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		// x.Close(), x.SetDeadline(...): receiver use, not an escape. Field
		// *storage* (x in `s.f = x`) is handled by the AssignStmt case.
		if len(stack) >= 3 {
			if call, ok := stack[len(stack)-3].(*ast.CallExpr); ok && call.Fun == p {
				return false
			}
		}
		return false // reading a field of x keeps x where it is
	case *ast.CallExpr:
		// Argument passes are the call rules' business, except conversions
		// and builtins like append, which spread the value.
		fun := ast.Unparen(p.Fun)
		if id, ok := fun.(*ast.Ident); ok {
			if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "len", "cap":
					return false
				}
				return true // append, copy, panic(x), ...
			}
			if _, isType := pkg.Info.Uses[id].(*types.TypeName); isType {
				return true // conversion creates an alias
			}
		}
		return false
	case *ast.BinaryExpr:
		return false // comparisons (incl. nil checks)
	case *ast.UnaryExpr:
		return p.Op != token.NOT
	case *ast.IfStmt, *ast.SwitchStmt:
		return false
	}
	return true // assignment RHS, composite literal, send, return, index...
}
