package analysis

import (
	"go/ast"
	"go/types"
)

// HotAlloc flags allocation sites inside the hot cone. PRs 3 and 8 drove
// the paper's authenticate-unseal-delegate loop (Fig. 2) from 39.8ms to
// sub-millisecond precisely by removing per-request allocations (key pool,
// verify cache, session reuse); this pass keeps them removed. Four site
// families are reported, each with an escape-fact escape hatch so the pass
// tracks what the compiler would actually heap-allocate:
//
//   - fmt formatting calls (Sprintf and friends). fmt.Errorf is exempt:
//     error construction is presumed to be the cold exit of a hot function.
//   - string([]byte) / []byte(string) conversions, which copy. Suppressed in
//     the forms the compiler itself optimizes (map-index key, range operand,
//     comparison) and when the copy lands in a variable the escape analysis
//     (escape.go) proves frame-local.
//   - interface boxing: a struct- or array-typed argument passed to an
//     interface parameter allocates to box the value. Pointer-shaped and
//     basic-typed arguments are left alone (small-value boxing is cheap or
//     cached); spread calls (xs...) pass an existing slice and are skipped.
//   - growth inside loops: append, make, and map/slice composite literals
//     per iteration. Suppressed when the destination is pool-served
//     (keypool.Pool.Get / sync.Pool.Get) or proven frame-local.
//
// Findings are keyed by the expression text, not line numbers, so the
// vet-cost-budget.txt grandfather file survives unrelated edits.
var HotAlloc = &Pass{
	Name: "hotalloc",
	Doc:  "allocation site (fmt, conversion copy, boxing, loop growth) in a hot-path function",
	Run:  runHotAlloc,
}

// hotFmtAllocFuncs are the fmt entry points that allocate on every call.
// Errorf is deliberately absent (cold error exits).
var hotFmtAllocFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Fprintf": true, "Fprint": true, "Fprintln": true,
	"Printf": true, "Print": true, "Println": true,
	"Appendf": true, "Append": true, "Appendln": true,
}

func runHotAlloc(ctx *Context, pkg *Package) []Diagnostic {
	if len(ctx.HotCone) == 0 {
		return nil
	}
	var diags []Diagnostic
	funcBodies(pkg, func(fb funcBody) {
		if ctx.HotCone[fb.key] {
			diags = append(diags, hotAllocBody(ctx, pkg, fb.key, fb.fn, fb.body)...)
		}
	})
	return diags
}

func hotAllocBody(ctx *Context, pkg *Package, key string, fn ast.Node, body *ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	esc := escapeFacts(pkg, fn)
	pooled := poolServedLocals(pkg, body)
	short := shortFuncKey(key)

	var stack []ast.Node
	loopDepth := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			switch stack[len(stack)-1].(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loopDepth--
			}
			stack = stack[:len(stack)-1]
			return true
		}
		switch n.(type) {
		case *ast.FuncLit:
			// A literal's body is its own cone visit (funcBodies); don't
			// attribute its allocations to the creator.
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
		}
		stack = append(stack, n)

		switch n := n.(type) {
		case *ast.CallExpr:
			diags = append(diags, hotAllocCall(ctx, pkg, n, stack, esc, pooled, loopDepth, short)...)
		case *ast.CompositeLit:
			if loopDepth > 0 && isMapOrSliceLit(pkg, n) && outermostLit(stack) &&
				!allocTargetLocal(pkg, stack, esc, pooled) {
				diags = append(diags, pkg.diag("hotalloc", n.Pos(),
					"composite literal %s allocated per loop iteration in hot-path function %s; hoist it out of the loop or reuse a buffer",
					types.ExprString(n.Type), short))
			}
		}
		return true
	})
	return diags
}

func hotAllocCall(ctx *Context, pkg *Package, call *ast.CallExpr, stack []ast.Node, esc *escapeInfo, pooled map[types.Object]bool, loopDepth int, short string) []Diagnostic {
	var diags []Diagnostic

	// Builtins: append/make growth inside loops.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			if loopDepth == 0 {
				return nil
			}
			switch b.Name() {
			case "append":
				if len(call.Args) > 0 {
					dst := identObj(pkg, call.Args[0])
					if pooled[dst] || esc.stackLocal(dst) {
						return nil
					}
					diags = append(diags, pkg.diag("hotalloc", call.Pos(),
						"append inside a loop in hot-path function %s may grow %s every iteration; preallocate with make before the loop",
						short, types.ExprString(call.Args[0])))
				}
			case "make":
				if !allocTargetLocal(pkg, stack, esc, pooled) {
					diags = append(diags, pkg.diag("hotalloc", call.Pos(),
						"%s inside a loop in hot-path function %s allocates per iteration; hoist it out of the loop",
						types.ExprString(call), short))
				}
			}
			return diags
		}
	}

	// Conversion copies: string([]byte) and []byte(string).
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if byteStringConversion(pkg, call) && !conversionOptimized(pkg, stack, esc) {
			diags = append(diags, pkg.diag("hotalloc", call.Pos(),
				"%s copies its bytes in hot-path function %s; reuse one converted value or operate on the original representation",
				types.ExprString(call), short))
		}
		return diags
	}

	fn := calleeFunc(pkg, call)
	if fn == nil {
		return diags
	}

	// fmt formatting.
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && hotFmtAllocFuncs[fn.Name()] {
		diags = append(diags, pkg.diag("hotalloc", call.Pos(),
			"fmt.%s allocates in hot-path function %s; format off the hot path or build with strconv/append",
			fn.Name(), short))
		return diags
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		return diags // Errorf and scanners: exempt, and don't double-flag boxing
	}

	// Interface boxing of struct/array values.
	sig, ok := fn.Type().(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return diags
	}
	for i, arg := range call.Args {
		pi := argParamIndex(fn, i)
		if pi < 0 || pi >= sig.Params().Len() {
			continue
		}
		pt := sig.Params().At(pi).Type()
		if sig.Variadic() && pi == sig.Params().Len()-1 {
			if s, ok := pt.Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := pkg.Info.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		switch at.Type.Underlying().(type) {
		case *types.Struct, *types.Array:
			diags = append(diags, pkg.diag("hotalloc", call.Pos(),
				"argument %s (type %s) is boxed into an interface at the call to %s in hot-path function %s; pass a pointer or avoid the interface parameter",
				types.ExprString(arg), types.TypeString(at.Type, types.RelativeTo(pkg.Types)),
				shortCallee(fn), short))
		}
	}
	return diags
}

// poolServedLocals collects locals assigned from a pool Get — the
// repository's keypool or a sync.Pool — whose allocations are amortized by
// design and must not be re-flagged.
func poolServedLocals(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pkg, call)
		if fn == nil || !poolGetFunc(fn) {
			return true
		}
		for _, l := range as.Lhs {
			if obj := assignedObj(pkg, l); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

func poolGetFunc(fn *types.Func) bool {
	if funcKey(fn) == "(sync.Pool).Get" {
		return true
	}
	return fn.Name() == "Get" && fn.Pkg() != nil && pkgPathHasSuffix(fn.Pkg().Path(), "internal/keypool")
}

func pkgPathHasSuffix(path, suffix string) bool {
	return path == suffix || (len(path) > len(suffix) && path[len(path)-len(suffix)-1] == '/' &&
		path[len(path)-len(suffix):] == suffix)
}

// byteStringConversion reports a string<->[]byte conversion (both copy).
func byteStringConversion(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return false
	}
	av, ok := pkg.Info.Types[call.Args[0]]
	if !ok {
		return false
	}
	toStr := isStringType(tv.Type)
	fromStr := isStringType(av.Type)
	return (toStr && isByteSlice(av.Type)) || (fromStr && isByteSlice(tv.Type))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// conversionOptimized recognizes the conversion contexts the compiler does
// not allocate for — m[string(b)] lookups, `range []byte(s)`, comparisons —
// plus copies the escape analysis proves land in a frame-local variable.
func conversionOptimized(pkg *Package, stack []ast.Node, esc *escapeInfo) bool {
	self := stack[len(stack)-1]
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			self = p
			continue
		case *ast.IndexExpr:
			if p.Index == self {
				if tv, ok := pkg.Info.Types[p.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						return true
					}
				}
			}
			return false
		case *ast.RangeStmt:
			return p.X == self
		case *ast.BinaryExpr:
			return true // string comparison/concat-test forms
		case *ast.AssignStmt:
			for j, r := range p.Rhs {
				if r == self && len(p.Lhs) == len(p.Rhs) {
					if obj := assignedObj(pkg, p.Lhs[j]); obj != nil {
						return esc.stackLocal(obj)
					}
				}
			}
			return false
		case *ast.CaseClause:
			return true // switch string(b) { case ... } comparisons
		default:
			return false
		}
	}
	return false
}

// allocTargetLocal reports whether the allocation at the top of the stack is
// directly assigned to a pool-served or frame-local variable.
func allocTargetLocal(pkg *Package, stack []ast.Node, esc *escapeInfo, pooled map[types.Object]bool) bool {
	self := stack[len(stack)-1]
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			self = p
			continue
		case *ast.AssignStmt:
			for j, r := range p.Rhs {
				if r == self && len(p.Lhs) == len(p.Rhs) {
					if obj := assignedObj(pkg, p.Lhs[j]); obj != nil {
						return pooled[obj] || esc.stackLocal(obj)
					}
				}
			}
			return false
		default:
			return false
		}
	}
	return false
}

// isMapOrSliceLit reports whether the composite literal builds a map or
// slice (struct literals are frequently stack-allocated and left alone).
func isMapOrSliceLit(pkg *Package, lit *ast.CompositeLit) bool {
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map, *types.Slice:
		return true
	}
	return false
}

// outermostLit reports whether the composite literal at the top of the stack
// is not an element of an enclosing literal (only the outermost is flagged;
// one finding per allocation statement).
func outermostLit(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.CompositeLit:
			return false
		case *ast.KeyValueExpr, *ast.ParenExpr:
			continue
		default:
			return true
		}
	}
	return true
}
