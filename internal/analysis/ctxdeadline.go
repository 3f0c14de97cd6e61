package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CtxDeadline flags blocking protocol entry points reachable on connections
// with no deadline armed, and context-less dials inside functions that were
// handed a context. The paper's repository serves long-lived portals (§4,
// §6): one peer that stops mid-handshake or mid-delegation must not pin a
// server or portal goroutine forever, so every dial, TLS handshake and
// delegation exchange needs a bound — a context, a SetDeadline, or the
// gsi layer's message/session timeouts.
//
// Tracking is flow-sensitive and deliberately modest: a fact means "this
// connection variable has, on some path, no deadline armed yet". Arming
// (SetDeadline/SetReadDeadline/SetWriteDeadline/SetMessageTimeout/
// SetSessionDeadline) kills it; functions whose summaries say they arm
// their result (core.connect and friends) never generate it; escapes and
// plain call passes discharge it, since the new owner may arm. Findings
// fire only at known blocking sinks — (*tls.Conn).Handshake and the gsi
// delegation entry points — and at context-less dial calls in functions
// that have a context.Context parameter to thread.
var CtxDeadline = &Pass{
	Name: "ctxdeadline",
	Doc:  "blocking dial/handshake/delegation reachable without a deadline or context",
	Run:  runCtxDeadline,
}

// ctxlessDialKeys are dials that can block without any cancellation handle.
var ctxlessDialKeys = map[string]bool{
	"net.Dial":                 true,
	"net.DialTimeout":          false, // carries its own bound
	"crypto/tls.Dial":          true,
	"(net.Dialer).Dial":        true,
	"(crypto/tls.Dialer).Dial": true,
}

// unarmedConnKeys are calls whose connection result starts with no deadline
// armed (the ctx-aware dials bound only the dial itself, not later I/O —
// but they are accepted as "the caller chose its bounding strategy").
var unarmedConnKeys = map[string]bool{
	"net.Dial":                 true,
	"net.DialTimeout":          true,
	"crypto/tls.Dial":          false, // handshakes internally before returning
	"(net.Dialer).Dial":        true,
	"(net.Listener).Accept":    true,
	"(net.TCPListener).Accept": true,
}

// tlsWrapKeys wrap an existing conn without arming anything: the result is
// unarmed exactly when the wrapped conn was.
var tlsWrapKeys = map[string]bool{
	"crypto/tls.Client": true,
	"crypto/tls.Server": true,
}

// gsiDelegationFuncs are the repository's blocking delegation exchanges.
var gsiDelegationFuncs = map[string]bool{
	"Delegate":              true,
	"DelegateFrom":          true,
	"RequestDelegation":     true,
	"RequestDelegationFrom": true,
}

func runCtxDeadline(ctx *Context, pkg *Package) []Diagnostic {
	diags := ctxIgnoringDials(pkg)
	// A deadline-arming call discharges its receiver, and any other call
	// boundary discharges too (the callee may arm). Findings fire only at
	// the blocking sinks, once per connection.
	o := &obligation{ctx: ctx, pkg: pkg, tracks: isDeadlineConn, acquire: unarmedAcquire(ctx, pkg),
		recv: func(call *ast.CallExpr, fn *types.Func) types.Object {
			if fn != nil && deadlineMethodNames[fn.Name()] {
				return recvObj(pkg, call)
			}
			return nil
		}}
	funcBodies(pkg, func(fb funcBody) {
		reported := make(map[types.Object]bool)
		o.sink = func(n ast.Node, fs factSet) {
			applyCalls(pkg, n, func(call *ast.CallExpr) {
				if obj, msg := deadlineSink(pkg, call, fs); obj != nil && !reported[obj] {
					reported[obj] = true
					diags = append(diags, pkg.diag("ctxdeadline", call.Pos(), "%s", msg))
				}
			})
		}
		o.run(ctx.cfgOf(pkg, fb.name, fb.body), nil)
	})
	return diags
}

// unarmedAcquire names the connection a root call hands back with no
// deadline armed: the unarmed dial/accept keys, a repository function
// returning a fresh conn it does not arm, or a tls.Client/tls.Server wrap of
// a tracked conn (unarmed exactly when the wrapped conn was).
func unarmedAcquire(ctx *Context, pkg *Package) func(token.Pos, *ast.CallExpr, factSet) (string, bool) {
	return func(_ token.Pos, call *ast.CallExpr, fs factSet) (string, bool) {
		fn := calleeFunc(pkg, call)
		key := funcKey(fn)
		if tlsWrapKeys[key] {
			desc, unarmed := "", false
			for _, arg := range call.Args {
				if f, ok := fs[identObj(pkg, arg)]; ok {
					desc, unarmed = f.desc, true
				}
			}
			if unarmed {
				return desc, true
			}
		}
		if sum := ctx.Summaries.of(fn); unarmedConnKeys[key] || (sum != nil && sum.freshConn && !sum.armsResult) {
			return "the connection from " + shortCallee(fn), true
		}
		return "", false
	}
}

// deadlineSink matches a blocking entry point using a tracked (unarmed)
// connection and builds the finding message.
func deadlineSink(pkg *Package, call *ast.CallExpr, fs factSet) (types.Object, string) {
	fn := calleeFunc(pkg, call)
	if fn == nil {
		return nil, ""
	}
	key := funcKey(fn)
	if key == "(crypto/tls.Conn).Handshake" {
		if obj := recvObj(pkg, call); obj != nil {
			if f, ok := fs[obj]; ok {
				return obj, "TLS handshake on " + f.desc + " with no deadline armed; call SetDeadline first or use HandshakeContext"
			}
		}
		return nil, ""
	}
	if fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/gsi") && gsiDelegationFuncs[fn.Name()] {
		for _, arg := range call.Args {
			if obj := identObj(pkg, arg); obj != nil {
				if f, ok := fs[obj]; ok {
					return obj, "delegation exchange (" + shortCallee(fn) + ") on " + f.desc +
						" with no deadline armed; arm SetDeadline or SetMessageTimeout/SetSessionDeadline first"
				}
			}
		}
	}
	return nil, ""
}

// ctxIgnoringDials reports context-less dial calls inside functions that
// have a context.Context parameter to thread through.
func ctxIgnoringDials(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	funcBodies(pkg, func(fb funcBody) {
		fd, ok := fb.fn.(*ast.FuncDecl)
		if !ok || !hasContextParam(pkg, fd) {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && ctxlessDialKeys[funcKey(calleeFunc(pkg, call))] {
				diags = append(diags, pkg.diag("ctxdeadline", call.Pos(),
					"%s ignores this function's context; use a context-aware dial (DialContext) so cancellation propagates",
					shortCallee(calleeFunc(pkg, call))))
			}
			return true
		})
	})
	return diags
}

func hasContextParam(pkg *Package, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		tv, ok := pkg.Info.Types[field.Type]
		if !ok {
			continue
		}
		if named := namedOf(tv.Type); named != nil && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context" {
			return true
		}
	}
	return false
}

// recvObj resolves the receiver of a method call to its variable.
func recvObj(pkg *Package, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return identObj(pkg, sel.X)
}

// isDeadlineConn: armable with SetDeadline, excluding *os.File (whose
// deadlines only apply to pollable files and are not this pass's concern).
func isDeadlineConn(t types.Type) bool {
	if named := namedOf(t); named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "os" && named.Obj().Name() == "File" {
		return false
	}
	return hasDeadline(t)
}
