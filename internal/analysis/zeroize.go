package analysis

import (
	"go/ast"
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
	funcBodies(pkg, func(name string, body *ast.BlockStmt) {
		cfg := ctx.cfgOf(pkg, name, body)
		reported := make(map[types.Object]bool)
		runFlow(pkg, cfg, nil, flowHooks{
			transfer: func(n ast.Node, fs factSet) {
				zeroizeTransfer(ctx, pkg, n, fs)
			},
			report: func(n ast.Node, fs factSet) {
				switch n := n.(type) {
				case *ast.ReturnStmt:
					for obj, f := range fs {
						if reported[obj] || mentionsObj(pkg, n, obj) {
							continue
						}
						reported[obj] = true
						diags = append(diags, pkg.diag("zeroize", f.acquired,
							"%s is not wiped on a path to the return at line %d; zero it (pki.WipeBytes) once encoded",
							f.desc, pkg.Fset.Position(n.Pos()).Line))
					}
				case *ast.BlockStmt:
					for obj, f := range fs {
						if reported[obj] {
							continue
						}
						reported[obj] = true
						diags = append(diags, pkg.diag("zeroize", f.acquired,
							"%s is not wiped when the function ends at line %d; zero it (pki.WipeBytes) once encoded",
							f.desc, pkg.Fset.Position(n.End()).Line))
					}
				}
			},
		})
	})
	return diags
}

func zeroizeTransfer(ctx *Context, pkg *Package, n ast.Node, fs factSet) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		zeroizeAssign(ctx, pkg, n, fs)
	case *ast.RangeStmt:
		for obj := range fs {
			if isZeroingLoop(pkg, n, obj) {
				delete(fs, obj)
			}
		}
		killSecretEscapes(pkg, n, fs)
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred cleanup: `defer pki.WipeBytes(key)` (or a closure doing
		// the same) runs on every path out of the function.
		for obj := range fs {
			if mentionsObj(pkg, n, obj) {
				delete(fs, obj)
			}
		}
	case *ast.ReturnStmt:
		for obj := range fs {
			delete(fs, obj)
		}
	default:
		zeroizeCalls(ctx, pkg, n, fs)
		killSecretEscapes(pkg, n, fs)
	}
}

// zeroizeCalls kills facts wiped by a callee (per summary) or by clear().
func zeroizeCalls(ctx *Context, pkg *Package, n ast.Node, fs factSet) {
	applyCalls(pkg, n, func(call *ast.CallExpr) {
		fn := calleeFunc(pkg, call)
		sum := ctx.Summaries.of(fn)
		for i, arg := range call.Args {
			obj := identObj(pkg, arg)
			if obj == nil {
				continue
			}
			if _, tracked := fs[obj]; !tracked {
				continue
			}
			if sum.wipesParam(argParamIndex(fn, i)) || isClearCall(pkg, call, obj) {
				delete(fs, obj)
			}
		}
	})
}

// killSecretEscapes discharges buffers that escape the function's control:
// stored into a composite/field/map, captured, appended elsewhere,
// converted. Unlike connleak, a plain argument pass keeps the obligation —
// the callee reading the secret does not wipe it.
func killSecretEscapes(pkg *Package, n ast.Node, fs factSet) {
	killEscapedMentions(pkg, n, fs, nil)
}

func zeroizeAssign(ctx *Context, pkg *Package, as *ast.AssignStmt, fs factSet) {
	lhs := make([]types.Object, len(as.Lhs))
	for i, l := range as.Lhs {
		lhs[i] = assignedObj(pkg, l)
	}
	errObj := pairedErr(lhs)

	// Alias moves: `y := x` or `y := x[:n]` re-keys the obligation (wiping
	// either view zeroes the same backing array).
	if len(as.Rhs) == 1 && len(as.Lhs) == 1 && lhs[0] != nil {
		if src := aliasSource(pkg, as.Rhs[0]); src != nil {
			if f, tracked := fs[src]; tracked {
				delete(fs, src)
				invalidateAssigned(fs, lhs)
				fs[lhs[0]] = f
				return
			}
		}
	}

	var genCall *ast.CallExpr
	if len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			genCall = call
		}
	}
	zeroizeCalls(ctx, pkg, as, fs)
	killSecretEscapes(pkg, as, fs)
	invalidateAssigned(fs, lhs)

	if genCall != nil {
		if desc, ok := secretProducer(ctx, pkg, genCall); ok {
			for _, o := range lhs {
				if o != nil && isByteSlice(o.Type()) {
					fs[o] = fact{acquired: as.Pos(), desc: desc, err: errObj, errLive: errIsNil}
				}
			}
		}
	}
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
