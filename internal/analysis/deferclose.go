package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// DeferClose flags `defer f.Close()` on write handles. For a file opened
// for writing, Close is where buffered data and delayed write errors
// surface: a deferred, unchecked Close turns a failed credential store into
// a silent success — precisely the failure filestore's fsync+rename
// protocol exists to prevent. Read-only handles are exempt (their close
// error is uninteresting), as is the backstop idiom where the function also
// closes explicitly and checks the error (the defer then only covers early
// error returns, where a close failure changes nothing).
var DeferClose = &Pass{
	Name: "deferclose",
	Doc:  "defer Close discards the close error of a write handle",
	Run:  runDeferClose,
}

func runDeferClose(ctx *Context, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	// Only writable opens acquire; an explicit Close (checked or not — the
	// explicit form is visible in review, the deferred one is what this
	// pass is about) discharges, and so does any other call boundary.
	o := &obligation{ctx: ctx, pkg: pkg, tracks: isCloserType,
		acquire: func(pos token.Pos, call *ast.CallExpr, _ factSet) (string, bool) {
			if _, writable := acquirerCall(pkg, ctx.Summaries, call); !writable {
				return "", false
			}
			return "the " + shortCallee(calleeFunc(pkg, call)) + " handle opened at line " +
				strconv.Itoa(pkg.Fset.Position(pos).Line), true
		}}
	o.recv = o.closeRecv
	funcBodies(pkg, func(fb funcBody) {
		o.sink = func(n ast.Node, fs factSet) {
			def, ok := n.(*ast.DeferStmt)
			if !ok {
				return
			}
			obj := closeReceiver(pkg, def.Call)
			if f, tracked := fs[obj]; obj != nil && tracked && !hasCheckedClose(pkg, fb.body, obj) {
				diags = append(diags, pkg.diag("deferclose", def.Pos(),
					"defer %s.Close() discards the close error of %s (write handle); a dropped close error is a dropped commit — close explicitly and check the error",
					obj.Name(), f.desc))
			}
		}
		o.run(ctx.cfgOf(pkg, fb.name, fb.body), nil)
	})
	return diags
}

// hasCheckedClose reports whether the function also closes obj in a way
// that uses the result — `if err := f.Close(); ...`, `return f.Close()`,
// `cerr = f.Close()` — making the defer a mere backstop for early returns.
func hasCheckedClose(pkg *Package, body *ast.BlockStmt, obj types.Object) bool {
	checked := false
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if checked {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || closeReceiver(pkg, call) != obj {
			return true
		}
		if len(stack) >= 2 {
			switch stack[len(stack)-2].(type) {
			case *ast.ExprStmt, *ast.DeferStmt, *ast.GoStmt:
				return true // result unused
			}
		}
		checked = true
		return false
	})
	return checked
}
