package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Zeroize flags secret byte buffers that can go out of scope without being
// wiped. The paper's repository model (§2–§3) keeps private keys encrypted
// at rest and decrypts them only transiently to re-sign delegations; the Go
// counterpart of "transiently" is zeroing the plaintext buffer once the PEM
// or DER encoding is done with it, so a heap dump or recycled allocation
// does not hand out key material.
//
// A buffer becomes tracked when it is assigned from a call whose summary
// says the result carries secret bytes: the x509 private-key marshalers, or
// any repository function whose doc comment carries a //myproxy:secret
// marker (kdf.SHA256Key, pki.OpenBytes, ...). Error-branch refinement drops the
// obligation where the producing call failed. Wiping — pki.WipeBytes or any
// function the summary layer recognizes as zeroing its parameter, an inline
// `for i := range b { b[i] = 0 }`, or clear(b) — discharges, as does
// returning the buffer (the caller inherits the obligation, as pki.OpenBytes
// itself documents) or storing it somewhere that outlives the function.
// Passing the buffer to an ordinary call does NOT discharge: aes.NewCipher
// reading the key does not absolve the caller from wiping it.
var Zeroize = &Pass{
	Name: "zeroize",
	Doc:  "secret byte buffer can go out of scope without being wiped",
	Run:  runZeroize,
}

func runZeroize(ctx *Context, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	o := &obligation{ctx: ctx, pkg: pkg, tracks: isByteSlice, passKeeps: true,
		// Alias moves: `y := x` or `y := x[:n]` re-keys the obligation
		// (wiping either view zeroes the same backing array).
		rekey: func(lhs []types.Object, rhs []ast.Expr, fs factSet) bool {
			if len(rhs) != 1 || len(lhs) != 1 || lhs[0] == nil {
				return false
			}
			src := aliasSource(pkg, rhs[0])
			f, tracked := fs[src]
			if src == nil || !tracked {
				return false
			}
			delete(fs, src)
			invalidateAssigned(fs, lhs)
			fs[lhs[0]] = f
			return true
		},
		rangeKill: func(r *ast.RangeStmt, obj types.Object) bool { return isZeroingLoop(pkg, r, obj) },
		// Wiped by a callee (per summary) or by clear().
		discharges: func(call *ast.CallExpr, fn *types.Func, param int, obj types.Object) bool {
			return ctx.Summaries.of(fn).wipesParam(param) || isClearCall(pkg, call, obj)
		},
		acquire: func(_ token.Pos, call *ast.CallExpr, _ factSet) (string, bool) {
			return secretProducer(ctx, pkg, call)
		},
		leak: func(f fact, line int, atEnd bool) {
			where := "on a path to the return at"
			if atEnd {
				where = "when the function ends at"
			}
			diags = append(diags, pkg.diag("zeroize", f.acquired,
				"%s is not wiped %s line %d; zero it (pki.WipeBytes) once encoded", f.desc, where, line))
		}}
	o.runBodies()
	return diags
}

// aliasSource matches an RHS that views the same backing bytes: a plain
// identifier or a slice expression over one.
func aliasSource(pkg *Package, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return identObj(pkg, e)
	case *ast.SliceExpr:
		return identObj(pkg, e.X)
	}
	return nil
}

// secretProducer reports whether a call's byte-slice result carries secret
// material: the callee summary says so (seeded marshalers, //myproxy:secret
// doc markers), or the result's named type is secret-marked.
func secretProducer(ctx *Context, pkg *Package, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pkg, call)
	if sum := ctx.Summaries.of(fn); sum != nil && sum.secretResult {
		return "secret bytes from " + shortCallee(fn), true
	}
	if tv, ok := pkg.Info.Types[call]; ok {
		if qual, secret := ctx.isSecretType(tv.Type); secret && isByteSlice(tv.Type) {
			return "value of secret type " + qual, true
		}
	}
	return "", false
}
