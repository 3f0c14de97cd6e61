package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Forward may-analysis over CFGs. A fact attaches to a variable (its
// types.Object) and means "on some path reaching this point, the variable is
// in the tracked state" — holds an unclosed connection, holds unwiped secret
// bytes, holds an un-armed conn. Passes supply a transfer function (how
// statements create/kill/move facts) and a report hook; the engine supplies
// the fixpoint iteration, the path-union join, and err-branch refinement.

// fact is one tracked obligation.
type fact struct {
	// acquired locates where the obligation was created; diagnostics anchor
	// here so //myproxy:allow pragmas have a stable target line.
	acquired token.Pos
	// desc names what was acquired ("gsi.Client connection", ...).
	desc string
	// err, when non-nil, pairs the fact with an error variable assigned by
	// the same (or the discharging) call, enabling branch pruning:
	//
	//   - errLive == errIsNil (the default, "acquired"): the resource only
	//     exists when err == nil, so the fact dies on every err != nil edge.
	//   - errLive == errNonNil ("transferred on success"): a callee summary
	//     says ownership passes to the callee unless it failed, so the fact
	//     dies on err == nil edges and survives err != nil edges.
	//
	// Reassigning the error variable clears the pairing (see clearErrPair):
	// Go reuses the same object for `x, err := ...` redeclarations, so a
	// stale pairing would prune facts on branches of an unrelated call.
	err     types.Object
	errLive errSense
	// mayNil inverts the edge-refinement sense for the fact's own variable:
	// the tracked state is "may be nil", so the fact dies where the variable
	// is proven non-nil and survives where it compares equal to nil —
	// exactly opposite to a resource obligation, which dies on nil (a nil
	// conn needs no Close). Set only by the nilness pass; a pass never mixes
	// mayNil and obligation facts in one flow.
	mayNil bool
	// taintSrc is the taint-origin bitmask used by the trust-boundary taint
	// lattice (taint.go): bit i (< 62) means "carries data derived from the
	// enclosing function's i-th parameter", ambientTaint means "carries data
	// from an in-body wire source". Zero for every obligation fact; joined
	// by union, since taint from either path taints the merge point.
	taintSrc uint64
}

type errSense uint8

const (
	errIsNil  errSense = iota // fact lives only where err == nil
	errNonNil                 // fact lives only where err != nil
)

// factSet maps tracked variables to their obligation. Sets are small (a
// handful of entries per function), so copying at branch points is cheap.
type factSet map[types.Object]fact

func (fs factSet) clone() factSet {
	out := make(factSet, len(fs))
	for k, v := range fs {
		out[k] = v
	}
	return out
}

// join merges src into dst (may-union) and reports whether dst changed.
func (fs factSet) join(src factSet) bool {
	changed := false
	for k, v := range src {
		old, ok := fs[k]
		if !ok {
			fs[k] = v
			changed = true
			continue
		}
		// Same variable reached by two paths: keep the earlier acquisition
		// position (stable diagnostics); drop the err pairing when the paths
		// disagree (pruning on either branch would be unsound).
		merged := old
		if v.acquired < merged.acquired {
			merged.acquired = v.acquired
			merged.desc = v.desc
		}
		if v.err != merged.err || v.errLive != merged.errLive {
			merged.err = nil
		}
		merged.taintSrc |= v.taintSrc
		if merged != old {
			fs[k] = merged
			changed = true
		}
	}
	return changed
}

// clearErrPair drops err pairings referring to obj, called when obj is
// reassigned.
func (fs factSet) clearErrPair(obj types.Object) {
	for k, f := range fs {
		if f.err == obj {
			f.err = nil
			fs[k] = f
		}
	}
}

// flowHooks is what a pass plugs into the engine.
type flowHooks struct {
	// transfer applies one node's effect to the fact set, in place. Nodes
	// are the shallow CFG nodes (see Block.Nodes); transfer must not recurse
	// into nested statements of marker nodes (RangeStmt bodies, the
	// end-of-function BlockStmt).
	transfer func(n ast.Node, fs factSet)
	// report, when non-nil, observes the facts holding immediately *before*
	// each node during the final stable walk — the place to flag "fact still
	// live at this return".
	report func(n ast.Node, fs factSet)
	// refine, when non-nil, applies pass-specific knowledge of a branch
	// condition to the facts on a conditional edge, after the engine's own
	// nil/err refinement. The taint lattice uses it to kill integer taint on
	// edges where an upper-bound comparison holds (see taint.go).
	refine func(cond ast.Expr, val bool, fs factSet)
}

// flowSpec describes one lattice to the worklist solver (solveFlow). The
// obligation facts, the lock lattice and wgbalance's path counter are all
// solved by the same loop; how they differ is data here, not a second loop.
type flowSpec[S any] struct {
	// bottom, when non-nil, seeds every block with bottom() and queues all
	// blocks up front (a may-lattice: joins only re-queue on change, so
	// starting from the entry alone would never visit the rest of the graph
	// while the sets are empty). Blocks no path from the entry reaches keep
	// bottom and are replayed with it. When nil, only the entry is seeded,
	// and a block's first incoming edge copies its predecessor's state
	// instead of joining it — what a must-lattice needs, since joining
	// against a default state would erase the must bits of every block not
	// reached yet. Blocks never reached keep no state and are not replayed.
	bottom func() S
	clone  func(S) S
	// join merges src into dst, returning the result and whether it changed.
	join func(dst, src S) (S, bool)
	// transfer applies one shallow CFG node (see Block.Nodes).
	transfer func(n ast.Node, s S) S
	// refine, when non-nil, narrows a private copy of the out-state along a
	// conditional edge.
	refine func(e Edge, s S) S
	// observe, when non-nil, sees the state holding immediately before each
	// node during one final replay of the stable solution.
	observe func(n ast.Node, s S)
}

// solveFlow iterates spec over the CFG to a fixpoint from the entry state,
// replays the reached blocks through spec.observe, and returns the
// per-block entry states and which blocks were reached.
func solveFlow[S any](cfg *CFG, entry S, spec flowSpec[S]) ([]S, []bool) {
	in := make([]S, len(cfg.Blocks))
	reached := make([]bool, len(cfg.Blocks))
	queued := make([]bool, len(cfg.Blocks))
	work := []*Block{cfg.Entry}
	if spec.bottom != nil {
		work = append([]*Block(nil), cfg.Blocks...)
		for i := range in {
			in[i], reached[i] = spec.bottom(), true
		}
	}
	for _, blk := range work {
		queued[blk.Index] = true
	}
	in[cfg.Entry.Index], reached[cfg.Entry.Index] = entry, true
	for iter := 0; len(work) > 0 && iter <= 100000; iter++ { // the lattices are finite; the cap is defensive
		blk := work[0]
		work = work[1:]
		queued[blk.Index] = false
		out := spec.clone(in[blk.Index])
		for _, n := range blk.Nodes {
			out = spec.transfer(n, out)
		}
		for _, e := range blk.Succs {
			s, to := out, e.To.Index
			if e.Cond != nil && spec.refine != nil {
				s = spec.refine(e, spec.clone(out))
			}
			changed := !reached[to]
			if changed {
				in[to], reached[to] = spec.clone(s), true
			} else {
				in[to], changed = spec.join(in[to], s)
			}
			if changed && !queued[to] {
				work = append(work, e.To)
				queued[to] = true
			}
		}
	}
	if spec.observe != nil {
		for _, blk := range cfg.Blocks {
			if !reached[blk.Index] {
				continue
			}
			s := spec.clone(in[blk.Index])
			for _, n := range blk.Nodes {
				spec.observe(n, s)
				s = spec.transfer(n, s)
			}
		}
	}
	return in, reached
}

// runFlow solves the obligation fact lattice over the CFG, seeding every
// block, with the engine's nil/err edge refinement. seed, when non-nil,
// initializes the entry facts (the summary sweep models a parameter in the
// tracked state this way).
func runFlow(pkg *Package, cfg *CFG, seed factSet, hooks flowHooks) {
	entry := make(factSet)
	if seed != nil {
		entry = seed.clone()
	}
	solveFlow(cfg, entry, flowSpec[factSet]{
		bottom: func() factSet { return make(factSet) },
		clone:  factSet.clone,
		join:   func(dst, src factSet) (factSet, bool) { return dst, dst.join(src) },
		transfer: func(n ast.Node, fs factSet) factSet {
			hooks.transfer(n, fs)
			return fs
		},
		refine: func(e Edge, fs factSet) factSet {
			refineCond(pkg, e.Cond, e.Val, fs)
			if hooks.refine != nil {
				hooks.refine(e.Cond, e.Val, fs)
			}
			return fs
		},
		observe: hooks.report,
	})
}

// obligation is one pass's spec for the shared obligation tracker: what
// acquires a fact, what discharges it, and where a live fact is reported.
// connleak, zeroize, deferclose and ctxdeadline are obligations, and so are
// the closesParam/leakOnError parameter fates of the summary sweep; one
// transfer (obligation.transfer) and one report loop (obligation.run) serve
// them all.
//
// The transfer every spec shares: an assignment invalidates its targets
// (clearing error pairings with their old values) and generates the
// acquired fact, paired with the statement's error variable so the fact
// dies on err != nil edges; each spec of a `var` declaration is the same
// assignment; a return ends the path; a defer or go statement that
// mentions a tracked value discharges it (the deferred or spawned work is
// assumed to be its cleanup); every other node applies its calls' discharge
// rules and drops values that escape (killEscapedMentions).
type obligation struct {
	ctx *Context
	pkg *Package
	// tracks selects the assignment targets an acquisition attaches to.
	tracks func(types.Type) bool
	// acquire reports whether the root call of an assignment at pos
	// acquires, and what ("gsi.Client result"). It sees the facts holding
	// before the statement's own effects.
	acquire func(pos token.Pos, call *ast.CallExpr, fs factSet) (string, bool)
	// recv returns the receiver a call discharges (x.Close(),
	// x.SetDeadline(...)), or nil.
	recv func(call *ast.CallExpr, fn *types.Func) types.Object
	// discharges reports whether passing obj as parameter param discharges
	// it (a callee summary that closes or wipes it, clear(obj)).
	discharges func(call *ast.CallExpr, fn *types.Func, param int, obj types.Object) bool
	// passKeeps: any other argument pass keeps the obligation (the callee
	// reading a secret does not wipe it). Otherwise the argument pass
	// discharges, since the callee may close or arm the value.
	passKeeps bool
	// wrap, when set, moves ownership into an assignment root call's
	// tracked result (connleak): the first tracked argument's fact becomes
	// the result's, and wrap decides what is left of the argument's.
	wrap func(obj types.Object, f fact, errObj types.Object, fs factSet)
	// rekey, when set, may handle an assignment by moving a fact to its
	// target instead (zeroize's aliases), reporting whether it did.
	rekey func(lhs []types.Object, rhs []ast.Expr, fs factSet) bool
	// rangeKill, when set, discharges facts a range statement settles
	// (zeroize's zeroing loop).
	rangeKill func(r *ast.RangeStmt, obj types.Object) bool
	// deferIsNode treats defer and go statements like any other node
	// (parameter fates) instead of discharging what they mention.
	deferIsNode bool
	// leak, when set, is called once per tracked object still live where a
	// path leaves the function: at a return that does not hand the value
	// back (atEnd false), or at the closing brace (atEnd true); line is
	// that return's or brace's line.
	leak func(f fact, line int, atEnd bool)
	// sink, when set, observes every node with the facts holding before it
	// instead (deferclose's defer, ctxdeadline's blocking calls).
	sink func(n ast.Node, fs factSet)
}

// run tracks the obligation through one CFG from the entry facts seed.
func (o *obligation) run(cfg *CFG, seed factSet) {
	reported := make(map[types.Object]bool)
	runFlow(o.pkg, cfg, seed, flowHooks{transfer: o.transfer, report: func(n ast.Node, fs factSet) {
		if o.sink != nil {
			o.sink(n, fs)
			return
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if _, isEnd := n.(*ast.BlockStmt); !isRet && !isEnd {
			return
		}
		for obj, f := range fs {
			if reported[obj] || (isRet && mentionsObj(o.pkg, ret, obj)) {
				continue
			}
			reported[obj] = true
			if isRet {
				o.leak(f, o.pkg.Fset.Position(ret.Pos()).Line, false)
			} else {
				o.leak(f, o.pkg.Fset.Position(n.End()).Line, true)
			}
		}
	}})
}

// runBodies tracks the obligation through every function body of the
// package.
func (o *obligation) runBodies() {
	funcBodies(o.pkg, func(fb funcBody) {
		o.run(o.ctx.cfgOf(o.pkg, fb.name, fb.body), nil)
	})
}

func (o *obligation) transfer(n ast.Node, fs factSet) {
	switch n := n.(type) {
	case *ast.AssignStmt, *ast.DeclStmt:
		assignments(o.pkg, n, func(at ast.Node, lhs []types.Object, rhs []ast.Expr) {
			o.assign(at, lhs, rhs, fs)
		})
		return
	case *ast.DeferStmt, *ast.GoStmt:
		if !o.deferIsNode {
			for obj := range fs {
				if mentionsObj(o.pkg, n, obj) {
					delete(fs, obj)
				}
			}
			return
		}
	case *ast.ReturnStmt:
		clear(fs) // reported (or handed back) by run; the path ends here
		return
	case *ast.RangeStmt:
		if o.rangeKill != nil {
			for obj := range fs {
				if o.rangeKill(n, obj) {
					delete(fs, obj)
				}
			}
		}
	}
	o.effects(n, fs)
}

// assignments calls f for each assignment n performs: an assignment
// statement itself, or each spec of a `var` declaration. lhs holds the
// targets' variables (nil for blank or non-variable targets).
func assignments(pkg *Package, n ast.Node, f func(at ast.Node, lhs []types.Object, rhs []ast.Expr)) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		lhs := make([]types.Object, len(n.Lhs))
		for i, l := range n.Lhs {
			lhs[i] = assignedObj(pkg, l)
		}
		f(n, lhs, n.Rhs)
	case *ast.DeclStmt:
		gd, _ := n.Decl.(*ast.GenDecl)
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				lhs := make([]types.Object, len(vs.Names))
				for i, id := range vs.Names {
					lhs[i] = assignedObj(pkg, id)
				}
				f(vs, lhs, vs.Values)
			}
		}
	}
}

// effects applies a node's call discharge rules and its escapes.
func (o *obligation) effects(n ast.Node, fs factSet) {
	applyCalls(o.pkg, n, func(call *ast.CallExpr) { o.call(call, fs, nil, false) })
	killEscapedMentions(o.pkg, n, fs)
}

// assign is the shared assignment prologue: every call but the root applies
// its discharge rules, escapes are dropped, the targets invalidated, and
// then the root call applies its own rules and generates the acquired (or
// wrapped) fact for the tracked targets.
func (o *obligation) assign(n ast.Node, lhs []types.Object, rhs []ast.Expr, fs factSet) {
	if o.rekey != nil && o.rekey(lhs, rhs, fs) {
		return
	}
	var root *ast.CallExpr
	if len(rhs) == 1 {
		root, _ = ast.Unparen(rhs[0]).(*ast.CallExpr)
	}
	desc, acquired := "", false
	if root != nil && o.acquire != nil {
		desc, acquired = o.acquire(n.Pos(), root, fs)
	}
	applyCalls(o.pkg, n, func(call *ast.CallExpr) {
		if call != root {
			o.call(call, fs, nil, false)
		}
	})
	killEscapedMentions(o.pkg, n, fs)
	invalidateAssigned(fs, lhs)
	if root == nil {
		return
	}
	errObj := pairedErr(lhs)
	tracked := false
	for _, obj := range lhs {
		tracked = tracked || (obj != nil && o.tracks(obj.Type()))
	}
	from := o.call(root, fs, errObj, tracked)
	if acquired {
		from = &fact{acquired: n.Pos(), desc: desc}
	}
	if from == nil {
		return
	}
	for _, obj := range lhs {
		if obj != nil && o.tracks(obj.Type()) {
			fs[obj] = fact{acquired: from.acquired, desc: from.desc, err: errObj, errLive: errIsNil}
		}
	}
}

// call applies one call's discharge rules to the tracked values it touches.
// For an assignment's root call whose result lands in a tracked target
// (wrapsResult), a wrap spec moves ownership of the first tracked argument
// into the result and returns that fact; errObj is the statement's error
// variable.
func (o *obligation) call(call *ast.CallExpr, fs factSet, errObj types.Object, wrapsResult bool) *fact {
	fn := calleeFunc(o.pkg, call)
	if o.recv != nil {
		if obj := o.recv(call, fn); obj != nil {
			delete(fs, obj)
			return nil
		}
	}
	var wrapped *fact
	for i, arg := range call.Args {
		obj := identObj(o.pkg, arg)
		f, tracked := fs[obj]
		if obj == nil || !tracked {
			continue
		}
		switch {
		case o.discharges != nil && o.discharges(call, fn, argParamIndex(fn, i), obj):
			delete(fs, obj)
		case o.wrap != nil && wrapsResult:
			if wrapped == nil {
				w := f
				wrapped = &w
			}
			o.wrap(obj, f, errObj, fs)
		case !o.passKeeps:
			delete(fs, obj)
		}
	}
	return wrapped
}

// closeRecv is the discharge-by-Close receiver rule (connleak, deferclose,
// parameter fates).
func (o *obligation) closeRecv(call *ast.CallExpr, _ *types.Func) types.Object {
	return closeReceiver(o.pkg, call)
}

// closesArg discharges an argument whose callee summary closes it.
func (o *obligation) closesArg(_ *ast.CallExpr, fn *types.Func, param int, _ types.Object) bool {
	return o.ctx.Summaries.of(fn).closesParam(param)
}

// refineCond prunes facts using the truth of a branch condition. Handles the
// short-circuit operators by decomposition — when `a && b` is true both a
// and b are true; when `a || b` is false both are false — and negation, so
// `if err != nil && retries == 0` still prunes on the error branch without
// the CFG builder splitting conditions into blocks.
func refineCond(pkg *Package, cond ast.Expr, val bool, fs factSet) {
	switch c := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			refineCond(pkg, c.X, !val, fs)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if val {
				refineCond(pkg, c.X, true, fs)
				refineCond(pkg, c.Y, true, fs)
			}
		case token.LOR:
			if !val {
				refineCond(pkg, c.X, false, fs)
				refineCond(pkg, c.Y, false, fs)
			}
		case token.EQL, token.NEQ:
			obj, isNilCmp := nilComparison(pkg, c)
			if !isNilCmp {
				return
			}
			// objIsNil: on this edge, obj compares equal to nil.
			objIsNil := val == (c.Op == token.EQL)
			refineNilFact(fs, obj, objIsNil)
		}
	}
}

// refineNilFact applies the knowledge "obj ==/!= nil" to the set: facts on
// obj itself die when obj is nil (a nil conn needs no Close) — or, for
// mayNil facts, when obj is proven non-nil — and facts paired with obj as
// their error die per their errLive sense.
func refineNilFact(fs factSet, obj types.Object, objIsNil bool) {
	if f, tracked := fs[obj]; tracked && objIsNil != f.mayNil {
		delete(fs, obj)
	}
	for k, f := range fs {
		if f.err != obj {
			continue
		}
		switch f.errLive {
		case errIsNil: // resource exists only on success
			if !objIsNil {
				delete(fs, k)
			}
		case errNonNil: // ownership transferred unless the call failed
			if objIsNil {
				delete(fs, k)
			}
		}
	}
}

// nilComparison matches `x == nil` / `x != nil` (either operand order) where
// x resolves to a variable, returning the variable.
func nilComparison(pkg *Package, b *ast.BinaryExpr) (types.Object, bool) {
	if obj := nilCmpOperand(pkg, b.X, b.Y); obj != nil {
		return obj, true
	}
	if obj := nilCmpOperand(pkg, b.Y, b.X); obj != nil {
		return obj, true
	}
	return nil, false
}

func nilCmpOperand(pkg *Package, varSide, nilSide ast.Expr) types.Object {
	id, ok := ast.Unparen(nilSide).(*ast.Ident)
	if !ok || id.Name != "nil" {
		return nil
	}
	if _, isNil := pkg.Info.Uses[id].(*types.Nil); !isNil {
		return nil
	}
	vid, ok := ast.Unparen(varSide).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pkg.Info.Uses[vid]
	if obj == nil {
		obj = pkg.Info.Defs[vid]
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return nil
	}
	return obj
}

// assignedObj resolves an assignment target to its variable: a plain (non-
// blank) identifier, whether newly declared (:=) or reassigned (=). Selector
// and index targets return nil — stores through them are escapes, not
// definitions.
func assignedObj(pkg *Package, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	if obj, ok := pkg.Info.Uses[id].(*types.Var); ok {
		return obj
	}
	return nil
}

// pairedErr picks the error variable among assignment targets, when there is
// exactly one — the variable branch refinement prunes on.
func pairedErr(objs []types.Object) types.Object {
	var errObj types.Object
	for _, o := range objs {
		if isErrorVar(o) {
			if errObj != nil {
				return nil
			}
			errObj = o
		}
	}
	return errObj
}

// invalidateAssigned drops facts attached to overwritten targets and clears
// error pairings that referred to them (Go reuses the variable object when
// `x, err := ...` redeclares err, so a stale pairing would prune facts on
// the branches of an unrelated call).
func invalidateAssigned(fs factSet, objs []types.Object) {
	for _, o := range objs {
		if o == nil {
			continue
		}
		delete(fs, o)
		fs.clearErrPair(o)
	}
}

// shortCallee renders a compact callee label for diagnostics:
// "gsi.Client" rather than "repro/internal/gsi.Client".
func shortCallee(fn *types.Func) string {
	key := funcKey(fn)
	if key == "" {
		if fn != nil {
			return fn.Name()
		}
		return "call"
	}
	if i := lastSlash(key); i >= 0 {
		prefix := ""
		if key[0] == '(' {
			prefix = "("
			key = key[1:]
			i--
		}
		return prefix + key[i+1:]
	}
	return key
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}

// identObj resolves an identifier expression to its variable object, or nil.
func identObj(pkg *Package, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pkg.Info.Uses[id]
	if obj == nil {
		obj = pkg.Info.Defs[id]
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return nil
	}
	return obj
}
