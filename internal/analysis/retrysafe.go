package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// RetrySafe enforces the cluster layer's replay-safety invariant by
// construction. resilience.Policy.Do replays any ambiguous outcome marked
// RetrySafe (DESIGN.md §12): that marking is only sound for operations that
// are idempotent for the same caller — re-sending a PUT overwrites the
// caller's own deposit with the same content. A DESTROY or
// CHANGE_PASSPHRASE marked retry-safe is a replay bug waiting for a
// partition: the retry can remove a deposit that landed between the
// attempts, or re-seal a credential that was already re-sealed and fail
// spuriously.
//
// The pass therefore requires every retry-safe marking to name a provably
// idempotent operation. Marking sites are found structurally, not by a
// function list: a composite literal of any "ambiguity carrier" (a named
// struct with an `Op string` and a `RetrySafe bool` field — AmbiguousError
// and QuorumOutcome both qualify), and any call whose callee's summary says
// the op name / safety gate flow into such a construction (derived
// interprocedurally in interproc.go, so cluster.Router.Write — which
// forwards its opName and retrySafe parameters into a QuorumOutcome — is
// checked at every call site). Sites whose op or gate is not a compile-time
// constant are resolved through the enclosing function's own parameters and
// checked at *its* call sites; a site that never resolves to constants is
// out of the pass's reach (documented soundness choice, DESIGN.md §13 — no
// dynamic op names exist in this repository).
var RetrySafe = &Pass{
	Name: "retrysafe",
	Doc:  "retry-safe ambiguity marking on an operation not provably idempotent",
	Run:  runRetrySafe,
}

// replayUnsafeOps are the protocol operations that must never be replayed
// on an ambiguous outcome, with the concrete failure a replay causes.
var replayUnsafeOps = map[string]string{
	"DESTROY":           "a replayed DESTROY can remove a deposit that landed between the attempts",
	"CHANGE_PASSPHRASE": "a replayed CHANGE_PASSPHRASE fails on replicas already re-sealed under the new pass phrase",
}

// idempotentOps is the registry of operations proven idempotent for the
// same caller: reads, and writes whose replay deposits byte-identical
// state.
var idempotentOps = map[string]bool{
	"PUT": true, "STORE": true, "GET": true, "INFO": true, "RETRIEVE": true,
}

// retryMark is one retry-safe-ambiguity construction reachable from a
// function, normalized to that function's parameter indices. Only the
// combinations that still depend on a parameter are kept as summaries;
// fully-constant sites are findings (or proven safe) in place.
type retryMark struct {
	opParam   int    // param index carrying the op name; -1 when opConst is set
	opConst   string // constant op name; "" when opParam is used
	safeParam int    // param index of the bool gating RetrySafe; -1 = unconditionally marked
}

func runRetrySafe(ctx *Context, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	funcBodies(pkg, func(fb funcBody) {
		ast.Inspect(fb.body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok && fl.Body != fb.body {
				return false // funcBodies visits the literal separately
			}
			switch n := n.(type) {
			case *ast.CompositeLit:
				if op, safe, ok := ambiguityLiteralFacts(pkg, n, nil); ok && safe.isTrue() && op.isConst() {
					if d, bad := checkRetryOp(pkg, n.Pos(), op.constVal); bad {
						diags = append(diags, d)
					}
				}
			case *ast.CallExpr:
				sum := ctx.Summaries.of(calleeFunc(pkg, n))
				if sum == nil {
					return true
				}
				for _, m := range sum.retryMarks {
					op := resolveMarkOp(pkg, n, m, nil)
					safe := resolveMarkGate(pkg, n, m, nil)
					if op.isConst() && safe.isTrue() {
						if d, bad := checkRetryOp(pkg, n.Pos(), op.constVal); bad {
							diags = append(diags, d)
						}
					}
				}
			}
			return true
		})
	})
	return diags
}

// checkRetryOp validates a constant op name that is being marked retry-safe.
func checkRetryOp(pkg *Package, pos token.Pos, op string) (Diagnostic, bool) {
	if why, unsafe := replayUnsafeOps[op]; unsafe {
		return pkg.diag("retrysafe", pos,
			"%s marked retry-safe: %s; surface the ambiguity to the caller instead", op, why), true
	}
	if !idempotentOps[op] {
		return pkg.diag("retrysafe", pos,
			"op %q marked retry-safe but not in the idempotent-operation registry (PUT, STORE, GET, INFO, RETRIEVE); prove idempotence and register it, or drop the marking", op), true
	}
	return Diagnostic{}, false
}

// operand is a partially resolved op name or safety gate at one site:
// either a compile-time constant, or a reference to one of the enclosing
// function's parameters, or neither (out of the pass's reach).
type operand struct {
	constKnown bool
	constVal   string // op name when constKnown
	boolVal    bool   // gate value when constKnown
	paramIdx   int    // enclosing function's parameter index, or -1
}

func (o operand) isConst() bool { return o.constKnown }
func (o operand) isTrue() bool  { return o.constKnown && o.boolVal }

// resolveMarkOp resolves a callee mark's op name at a call site: a constant
// mark stays constant; otherwise the argument at opParam is classified as a
// constant string or (via paramOf, when summarizing) a caller parameter.
func resolveMarkOp(pkg *Package, call *ast.CallExpr, m retryMark, paramOf map[types.Object]int) operand {
	if m.opConst != "" {
		return operand{constKnown: true, constVal: m.opConst, paramIdx: -1}
	}
	if m.opParam < 0 || m.opParam >= len(call.Args) {
		return operand{paramIdx: -1}
	}
	return classifyOperand(pkg, call.Args[m.opParam], paramOf)
}

// resolveMarkGate resolves a callee mark's safety gate at a call site:
// safeParam -1 means the construction is unconditionally retry-safe.
func resolveMarkGate(pkg *Package, call *ast.CallExpr, m retryMark, paramOf map[types.Object]int) operand {
	if m.safeParam < 0 {
		return operand{constKnown: true, boolVal: true, paramIdx: -1}
	}
	if m.safeParam >= len(call.Args) {
		return operand{paramIdx: -1}
	}
	return classifyOperand(pkg, call.Args[m.safeParam], paramOf)
}

// classifyOperand classifies an expression as a constant (string or bool),
// a reference to a parameter listed in paramOf, or unknown.
func classifyOperand(pkg *Package, e ast.Expr, paramOf map[types.Object]int) operand {
	e = ast.Unparen(e)
	if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil {
		switch tv.Value.Kind() {
		case constant.String:
			return operand{constKnown: true, constVal: constant.StringVal(tv.Value), paramIdx: -1}
		case constant.Bool:
			return operand{constKnown: true, boolVal: constant.BoolVal(tv.Value), paramIdx: -1}
		}
	}
	if obj := identObj(pkg, e); obj != nil && paramOf != nil {
		if idx, ok := paramOf[obj]; ok {
			return operand{paramIdx: idx}
		}
	}
	return operand{paramIdx: -1}
}

// ambiguityLiteralFacts inspects a composite literal for the ambiguity-
// carrier shape (named struct with `Op string` and `RetrySafe bool`) and
// resolves its Op and RetrySafe elements. paramOf, when non-nil, maps the
// enclosing function's parameter objects to indices (used during summary
// derivation). An absent RetrySafe element is the zero value: provably not
// retry-safe.
func ambiguityLiteralFacts(pkg *Package, cl *ast.CompositeLit, paramOf map[types.Object]int) (op, safe operand, ok bool) {
	tv, found := pkg.Info.Types[cl]
	if !found || !isAmbiguityCarrier(tv.Type) {
		return operand{}, operand{}, false
	}
	op = operand{paramIdx: -1}
	safe = operand{constKnown: true, boolVal: false, paramIdx: -1}
	for _, elt := range cl.Elts {
		kv, isKV := elt.(*ast.KeyValueExpr)
		if !isKV {
			continue
		}
		key, isIdent := kv.Key.(*ast.Ident)
		if !isIdent {
			continue
		}
		switch key.Name {
		case "Op":
			op = classifyOperand(pkg, kv.Value, paramOf)
		case "RetrySafe":
			safe = classifyOperand(pkg, kv.Value, paramOf)
		}
	}
	return op, safe, true
}

// isAmbiguityCarrier reports whether t is (a pointer to) a named struct
// carrying both an `Op string` and a `RetrySafe bool` field.
func isAmbiguityCarrier(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	var hasOp, hasSafe bool
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		b, basic := f.Type().Underlying().(*types.Basic)
		if !basic {
			continue
		}
		switch {
		case f.Name() == "Op" && b.Info()&types.IsString != 0:
			hasOp = true
		case f.Name() == "RetrySafe" && b.Info()&types.IsBoolean != 0:
			hasSafe = true
		}
	}
	return hasOp && hasSafe
}

// deriveRetryMarks recomputes d's retryMarks from its body: ambiguity-
// carrier literals and calls to already-marked callees whose op name or
// safety gate flows from d's own parameters. Returns whether the mark set
// changed.
func deriveRetryMarks(pkg *Package, t summaryTable, d declSite) bool {
	sig := d.fn.Type().(*types.Signature)
	paramOf := make(map[types.Object]int, sig.Params().Len())
	for i := 0; i < sig.Params().Len(); i++ {
		paramOf[sig.Params().At(i)] = i
	}

	var marks []retryMark
	add := func(op, safe operand) {
		if safe.constKnown && !safe.boolVal {
			return // provably not retry-safe
		}
		m := retryMark{opParam: -1, safeParam: -1}
		switch {
		case op.constKnown:
			m.opConst = op.constVal
		case op.paramIdx >= 0:
			m.opParam = op.paramIdx
		default:
			return // op never resolves to a constant: out of scope
		}
		if !safe.constKnown {
			if safe.paramIdx < 0 {
				return // gate never resolves to a constant: out of scope
			}
			m.safeParam = safe.paramIdx
		}
		if m.opConst != "" && m.safeParam == -1 {
			return // fully constant: the pass flags it in place, not via summary
		}
		marks = append(marks, m)
	}

	ast.Inspect(d.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if op, safe, ok := ambiguityLiteralFacts(pkg, n, paramOf); ok {
				add(op, safe)
			}
		case *ast.CallExpr:
			sum := t.of(calleeFunc(pkg, n))
			if sum == nil {
				return true
			}
			for _, m := range sum.retryMarks {
				add(resolveMarkOp(pkg, n, m, paramOf), resolveMarkGate(pkg, n, m, paramOf))
			}
		}
		return true
	})

	marks = dedupMarks(marks)
	s := t.get(d.key)
	if marksEqual(s.retryMarks, marks) {
		return false
	}
	s.retryMarks = marks
	return true
}

func dedupMarks(ms []retryMark) []retryMark {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		if a.opParam != b.opParam {
			return a.opParam < b.opParam
		}
		if a.opConst != b.opConst {
			return a.opConst < b.opConst
		}
		return a.safeParam < b.safeParam
	})
	out := ms[:0]
	for i, m := range ms {
		if i == 0 || m != ms[i-1] {
			out = append(out, m)
		}
	}
	return out
}

func marksEqual(a, b []retryMark) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
