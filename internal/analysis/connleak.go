package analysis

import (
	"go/ast"
	"go/token"
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
	o := &obligation{ctx: ctx, pkg: pkg, tracks: isCloserType,
		leak: func(f fact, line int, atEnd bool) {
			if atEnd {
				diags = append(diags, pkg.diag("connleak", f.acquired,
					"%s is not closed when the function ends at line %d", f.desc, line))
				return
			}
			diags = append(diags, pkg.diag("connleak", f.acquired,
				"%s is not closed on a path to the return at line %d; close it before returning", f.desc, line))
		}}
	o.recv, o.discharges = o.closeRecv, o.closesArg
	// A wrapper fed a tracked conn re-tracks it under its result; the raw
	// conn stays the caller's exactly where the wrap failed (errNonNil),
	// or moves entirely when no error is captured.
	o.wrap = func(obj types.Object, f fact, errObj types.Object, fs factSet) {
		if errObj == nil {
			delete(fs, obj)
			return
		}
		f.err, f.errLive = errObj, errNonNil
		fs[obj] = f
	}
	// A call to a known acquirer (stdlib seed or derived summary) opens a
	// resource.
	o.acquire = func(_ token.Pos, call *ast.CallExpr, _ factSet) (string, bool) {
		if conn, writable := acquirerCall(pkg, ctx.Summaries, call); !conn && !writable {
			return "", false
		}
		return shortCallee(calleeFunc(pkg, call)) + " result", true
	}
	o.runBodies()
	return diags
}
