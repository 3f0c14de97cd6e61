package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Trust-boundary taint lattice. MyProxy's server side exists to accept
// requests from untrusted network clients (paper §3): every byte of a
// username, credential name, passphrase or frame length arrives off the
// wire before the repository has authenticated anything about it. The
// nineteen earlier passes all track data flowing *outward* (secrets,
// obligations, cost); this layer tracks the *inward* direction — which
// expressions are derived from wire input — and reports when such data
// reaches one of four sink families unsanitized:
//
//	pathtaint  — filesystem path construction (filepath.Join, os.Open,
//	             os.Remove, os.WriteFile, ...): path traversal.
//	alloctaint — allocation sizes (make, io.CopyN, bufio.NewReaderSize)
//	             driven by a wire-derived integer with no dominating
//	             upper-bound comparison: memory-exhaustion DoS.
//	logtaint   — raw tainted bytes into log/print sinks without %q or
//	             control-character escaping: audit-log injection. The pass
//	             also reports secret-typed values reaching logf-style
//	             wrappers, closing secretflow's blind spot (secretflow
//	             covers only the direct fmt/log call sites).
//	hdrtaint   — tainted values into http.Header.Set / http.Redirect /
//	             http.SetCookie: header splitting and open redirect.
//
// The lattice is a forward may-analysis over the PR-4 CFG/dataflow engine:
// each tracked variable carries a bitmask (fact.taintSrc) whose bits mean
// "derived from the enclosing function's i-th parameter" (paramBit) or
// "derived from an in-body wire source" (ambientTaint). Interprocedural
// behavior rides the PR-7 bottom-up summary order: each function's body is
// flowed once with its candidate parameters seeded, deriving
//
//	taintsReturn  — a result carries wire data regardless of arguments,
//	taintProp     — parameter taint flows into a result,
//	taintsBuf     — a byte-slice parameter is filled with wire data,
//	sanitizes     — results are clean regardless of inputs (hash-shaped),
//	validates     — a single-error-result validator proves a parameter
//	                clean on its err == nil branch,
//	taintSinks    — a parameter reaches a sink inside the callee (the
//	                passes then report at tainted call sites, with printf
//	                verb resolution against the caller's constant format).
//
// Sources are seeded at the wire-decode frontier: the io.Reader/net.Conn
// Read family fills buffers with ambient taint, net/http.Request and
// net/url types are ambient by type, and //myproxy:untrusted marks
// repository types, functions and interface methods (gsi.Channel's
// ReadMessage has no body to derive from). Sanitizers are recognized by
// marker (//myproxy:sanitizes) and by derivation: a function whose
// parameters only escape into a hash (credstore's sha256sum) derives no
// taintProp, so its callers see clean results with no annotation at all.
//
// Soundness limits, by design (documented in DESIGN.md §16): the lattice
// is field-insensitive (any tainted field taints the whole struct
// expression and vice versa); unmarked interface method calls do not
// propagate (a store.Get result is clean); closure captures lose taint;
// and type-based ambient taint cannot be killed by validation — copy the
// value into a plain local and validate that instead.

// taintKind classifies the four sink families.
type taintKind uint8

const (
	taintPath taintKind = iota
	taintAlloc
	taintLog
	taintHdr
)

func (k taintKind) String() string {
	switch k {
	case taintPath:
		return "pathtaint"
	case taintAlloc:
		return "alloctaint"
	case taintLog:
		return "logtaint"
	case taintHdr:
		return "hdrtaint"
	}
	return "taint"
}

// taintFinding is one sink hit, memoized per function body (the four
// passes share one flow computation and filter by kind).
type taintFinding struct {
	kind taintKind
	pos  token.Pos
	msg  string
}

// ambientTaint marks data derived from an in-body wire source; paramBit(i)
// marks data derived from the enclosing function's i-th parameter.
const ambientTaint uint64 = 1 << 63

func paramBit(i int) uint64 {
	if i < 0 || i > 61 {
		return 0
	}
	return 1 << uint(i)
}

// PathTaint reports wire-tainted values reaching filesystem path sinks.
var PathTaint = &Pass{
	Name: "pathtaint",
	Doc:  "wire-tainted data must not reach filesystem path construction unsanitized",
	Run:  runTaintKind(taintPath),
}

// AllocTaint reports wire-derived integers sizing allocations without a
// dominating upper-bound check.
var AllocTaint = &Pass{
	Name: "alloctaint",
	Doc:  "wire-derived sizes must be bounded before driving an allocation",
	Run:  runTaintKind(taintAlloc),
}

// LogTaint reports raw tainted bytes (and secrets, via logf-style
// wrappers) reaching log output unescaped.
var LogTaint = &Pass{
	Name: "logtaint",
	Doc:  "wire-tainted values must be %q-escaped before reaching log output",
	Run:  runTaintKind(taintLog),
}

// HdrTaint reports tainted values reaching HTTP response header sinks.
var HdrTaint = &Pass{
	Name: "hdrtaint",
	Doc:  "wire-tainted values must not reach HTTP response headers unvalidated",
	Run:  runTaintKind(taintHdr),
}

func runTaintKind(kind taintKind) func(*Context, *Package) []Diagnostic {
	return func(ctx *Context, pkg *Package) []Diagnostic {
		var diags []Diagnostic
		funcBodies(pkg, func(name string, body *ast.BlockStmt) {
			for _, f := range ctx.taintFindingsOf(pkg, name, body) {
				if f.kind == kind {
					diags = append(diags, pkg.diag(kind.String(), f.pos, "%s", f.msg))
				}
			}
		})
		return diags
	}
}

// taintFindingsOf returns the memoized sink findings for one function
// body. Declaration bodies are pre-computed (with parameters seeded)
// during the summary sweep; function-literal bodies are flowed lazily here
// with no seeds.
func (ctx *Context) taintFindingsOf(pkg *Package, name string, body *ast.BlockStmt) []taintFinding {
	ctx.taintMu.Lock()
	if ctx.taintFacts == nil {
		ctx.taintFacts = make(map[*ast.BlockStmt][]taintFinding)
	}
	if f, ok := ctx.taintFacts[body]; ok {
		ctx.taintMu.Unlock()
		return f
	}
	ctx.taintMu.Unlock()
	c := newTaintChecker(ctx, pkg, ctx.Summaries, -1)
	runFlow(pkg, ctx.cfgOf(pkg, name, body), nil, flowHooks{
		transfer: c.transfer,
		refine:   c.refine,
		report:   c.report,
	})
	ctx.taintMu.Lock()
	ctx.taintFacts[body] = c.findings
	ctx.taintMu.Unlock()
	return c.findings
}

// --- marker collection ---

// collectTaintMarkers scans the load for //myproxy:untrusted (types, funcs
// and interface methods) and //myproxy:sanitizes (funcs) markers. The
// untrusted-type set is pre-seeded with the net/http request frontier.
func collectTaintMarkers(pkgs []*Package) (untrustedTypes map[string]string, untrustedFns, sanitizeFns map[string]bool) {
	untrustedTypes = map[string]string{
		"net/http.Request": "carries client-controlled URL, form, header and body data",
		"net/url.Values":   "decoded query/form values are client-controlled",
		"net/url.URL":      "parsed request URLs are client-controlled",
	}
	untrustedFns = make(map[string]bool)
	sanitizeFns = make(map[string]bool)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					key := funcKey(fn)
					if key == "" {
						continue
					}
					if docHasMarker(untrustedMarker, d.Doc) {
						untrustedFns[key] = true
					}
					if docHasMarker(sanitizesMarker, d.Doc) {
						sanitizeFns[key] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
						if tn == nil || tn.Pkg() == nil {
							continue
						}
						if docHasMarker(untrustedMarker, d.Doc, ts.Doc) {
							untrustedTypes[tn.Pkg().Path()+"."+tn.Name()] = "marked //myproxy:untrusted"
						}
						// Interface methods: gsi.Channel.ReadMessage has no
						// body to derive a summary from, so the marker on
						// the method declaration seeds taintsReturn.
						if it, ok := ts.Type.(*ast.InterfaceType); ok && it.Methods != nil {
							for _, m := range it.Methods.List {
								if len(m.Names) == 0 || !docHasMarker(untrustedMarker, m.Doc) {
									continue
								}
								mf, _ := pkg.Info.Defs[m.Names[0]].(*types.Func)
								if mf == nil {
									continue
								}
								if key := funcKey(mf); key != "" {
									untrustedFns[key] = true
								}
							}
						}
					}
				}
			}
		}
	}
	return untrustedTypes, untrustedFns, sanitizeFns
}

// untrustedType reports whether an expression of type t is ambient-tainted
// by type: a marked (or seeded) named type, possibly behind a pointer,
// slice or array.
func (ctx *Context) untrustedType(t types.Type) (string, bool) {
	for depth := 0; t != nil && depth < 4; depth++ {
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil {
				if reason, ok := ctx.UntrustedTypes[obj.Pkg().Path()+"."+obj.Name()]; ok {
					return reason, true
				}
			}
		}
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		default:
			return "", false
		}
	}
	return "", false
}

// --- standard-library seeds ---

// seedTaintSummaries installs the wire-frontier and sanitizer knowledge
// about the standard library.
func seedTaintSummaries(t summaryTable) {
	bufSeed := func(key string, idx int) {
		s := t.get(key)
		s.taintKnown = true
		if s.taintsBuf == nil {
			s.taintsBuf = make(map[int]bool)
		}
		s.taintsBuf[idx] = true
	}
	// Reading from an abstract stream is the wire frontier: the repository
	// only pulls io.Reader/net.Conn-typed reads on network paths (plain
	// file reads go through os.ReadFile / (os.File).Read, which stay
	// clean).
	bufSeed("io.ReadFull", 1)
	bufSeed("io.ReadAtLeast", 1)
	bufSeed("(io.Reader).Read", 0)
	bufSeed("(net.Conn).Read", 0)
	bufSeed("(crypto/tls.Conn).Read", 0)
	bufSeed("(bufio.Reader).Read", 0)
	{
		s := t.get("io.ReadAll")
		s.taintKnown = true
		s.taintProp = map[int]bool{0: true}
	}
	// Hashing and strict encoding launder taint: the output cannot smuggle
	// path separators, newlines or unbounded sizes chosen by the peer.
	for _, key := range []string{
		"crypto/sha256.Sum256", "crypto/sha512.Sum512",
		"crypto/sha1.Sum", "crypto/md5.Sum",
		"encoding/hex.EncodeToString", "encoding/hex.Encode",
		"(encoding/base64.Encoding).EncodeToString", "(encoding/base64.Encoding).Encode",
		"net/url.QueryEscape", "net/url.PathEscape",
		"strconv.Quote", "strconv.QuoteToASCII", "strconv.Itoa",
		"strconv.FormatInt", "strconv.FormatUint", "strconv.FormatFloat",
		"(hash.Hash).Sum",
	} {
		s := t.get(key)
		s.taintKnown = true
		s.sanitizes = true
	}
}

// taintPropPkgs: standard-library packages whose unlisted functions are
// assumed to *propagate* taint (output derives from inputs) rather than
// launder it. Everything else in the stdlib is assumed clean — quiet by
// default, precise where it matters.
var taintPropPkgs = map[string]bool{
	"strings": true, "bytes": true, "strconv": true,
	"unicode": true, "unicode/utf8": true,
	"encoding/binary": true, "encoding/json": true, "encoding/pem": true,
	"encoding/hex": true, "encoding/base64": true,
	"bufio": true, "io": true,
	"net/url": true, "net/http": true,
	"fmt": true, "time": true,
}

// --- sink tables ---

type stdlibSink struct {
	kind taintKind
	// args lists checked argument positions; -1 means every argument.
	args []int
}

var stdlibTaintSinks = map[string]stdlibSink{
	"path/filepath.Join": {taintPath, []int{-1}},
	"os.Open":            {taintPath, []int{0}},
	"os.OpenFile":        {taintPath, []int{0}},
	"os.Create":          {taintPath, []int{0}},
	"os.Remove":          {taintPath, []int{0}},
	"os.RemoveAll":       {taintPath, []int{0}},
	"os.ReadFile":        {taintPath, []int{0}},
	"os.WriteFile":       {taintPath, []int{0}},
	"os.Mkdir":           {taintPath, []int{0}},
	"os.MkdirAll":        {taintPath, []int{0}},
	"os.Stat":            {taintPath, []int{0}},
	"os.Lstat":           {taintPath, []int{0}},
	"os.Rename":          {taintPath, []int{0, 1}},

	"io.CopyN":               {taintAlloc, []int{2}},
	"bufio.NewReaderSize":    {taintAlloc, []int{1}},
	"bufio.NewWriterSize":    {taintAlloc, []int{1}},
	"strings.Repeat":         {taintAlloc, []int{1}},
	"bytes.Repeat":           {taintAlloc, []int{1}},
	"(bytes.Buffer).Grow":    {taintAlloc, []int{0}},
	"(strings.Builder).Grow": {taintAlloc, []int{0}},

	"(net/http.Header).Set": {taintHdr, []int{-1}},
	"(net/http.Header).Add": {taintHdr, []int{-1}},
	"net/http.Redirect":     {taintHdr, []int{2}},
	"net/http.SetCookie":    {taintHdr, []int{1}},
}

// logSinkOf resolves a call to a logging *output* sink: the log package,
// (*log.Logger) methods, fmt.Print/Printf/Println, and fmt.Fprint* writing
// to os.Stdout or os.Stderr. fmt's Sprint*/Errorf/Append* family is
// deliberately absent — those are propagators whose results we keep
// tracking, not output (this differs from secretflow's sink table, where a
// secret entering any format call is already the leak). Returns the sink's
// display name, the format argument's index (-1 for non-formatting
// variants) and the first data argument index.
func logSinkOf(pkg *Package, call *ast.CallExpr, fn *types.Func) (name string, fmtIdx, argStart int, ok bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", 0, 0, false
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		named := namedOf(recv.Type())
		if named == nil || named.Obj().Pkg() == nil ||
			named.Obj().Pkg().Path() != "log" || named.Obj().Name() != "Logger" {
			return "", 0, 0, false
		}
		name = "(*log.Logger)." + fn.Name()
		switch fn.Name() {
		case "Printf", "Fatalf", "Panicf":
			return name, 0, 1, true
		case "Print", "Println", "Fatal", "Fatalln", "Panic", "Panicln":
			return name, -1, 0, true
		case "Output":
			return name, -1, 1, true
		}
		return "", 0, 0, false
	}
	switch fn.Pkg().Path() {
	case "log":
		name = "log." + fn.Name()
		switch fn.Name() {
		case "Printf", "Fatalf", "Panicf":
			return name, 0, 1, true
		case "Print", "Println", "Fatal", "Fatalln", "Panic", "Panicln":
			return name, -1, 0, true
		case "Output":
			return name, -1, 1, true
		}
	case "fmt":
		name = "fmt." + fn.Name()
		switch fn.Name() {
		case "Printf":
			return name, 0, 1, true
		case "Print", "Println":
			return name, -1, 0, true
		case "Fprintf":
			if len(call.Args) > 0 && isStdStream(pkg, call.Args[0]) {
				return name, 1, 2, true
			}
		case "Fprint", "Fprintln":
			if len(call.Args) > 0 && isStdStream(pkg, call.Args[0]) {
				return name, -1, 1, true
			}
		}
	}
	return "", 0, 0, false
}

// isStdStream matches the os.Stdout / os.Stderr selector.
func isStdStream(pkg *Package, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Stdout" && sel.Sel.Name != "Stderr") {
		return false
	}
	obj := pkg.Info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}

// --- the checker ---

// taintChecker carries one flow's state: the mask evaluator, the transfer
// function, the refine hook and the sink scanner, plus the findings and
// interprocedural flows the run accumulates.
type taintChecker struct {
	ctx *Context
	pkg *Package
	t   summaryTable
	// fmtIdx is the enclosing function's printf-style format parameter
	// index (printfShape), or -1; log flows for later parameters record it
	// so call sites resolve their constant format's verbs.
	fmtIdx int
	// nParams is the enclosing signature's parameter count, for variadic
	// member indexing at flow call sites.
	nParams int

	findings []taintFinding
	seen     map[taintSeenKey]bool
	flows    map[taintSinkFlow]bool

	// onReturn/onEnd let the summary sweep observe facts at returns and at
	// fall-off-the-end, for taintProp/taintsReturn/taintsBuf derivation.
	onReturn func(*ast.ReturnStmt, factSet)
	onEnd    func(factSet)
}

type taintSeenKey struct {
	kind taintKind
	pos  token.Pos
}

func newTaintChecker(ctx *Context, pkg *Package, t summaryTable, fmtIdx int) *taintChecker {
	return &taintChecker{
		ctx:    ctx,
		pkg:    pkg,
		t:      t,
		fmtIdx: fmtIdx,
		seen:   make(map[taintSeenKey]bool),
		flows:  make(map[taintSinkFlow]bool),
	}
}

// excludedTaintType: types that never carry recoverable wire content —
// errors, booleans, functions, channels.
func excludedTaintType(t types.Type) bool {
	if t == nil {
		return true
	}
	if types.Identical(t, errorType) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsBoolean != 0
	case *types.Signature, *types.Chan:
		return true
	}
	return false
}

// exprMask evaluates an expression's taint-origin bitmask under the
// current facts.
func (c *taintChecker) exprMask(e ast.Expr, fs factSet) uint64 {
	e = ast.Unparen(e)
	if tv, ok := c.pkg.Info.Types[e]; ok {
		if excludedTaintType(tv.Type) {
			return 0
		}
		if _, untrusted := c.ctx.untrustedType(tv.Type); untrusted {
			return ambientTaint
		}
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := c.pkg.Info.Uses[x]
		if obj == nil {
			obj = c.pkg.Info.Defs[x]
		}
		if obj != nil {
			if f, ok := fs[obj]; ok {
				return f.taintSrc
			}
		}
		return 0
	case *ast.SelectorExpr:
		// Field access is field-insensitive: the container's taint is the
		// field's. Package selectors contribute nothing.
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if _, isPkg := c.pkg.Info.Uses[id].(*types.PkgName); isPkg {
				return 0
			}
		}
		return c.exprMask(x.X, fs)
	case *ast.IndexExpr:
		return c.exprMask(x.X, fs)
	case *ast.SliceExpr:
		return c.exprMask(x.X, fs)
	case *ast.StarExpr:
		return c.exprMask(x.X, fs)
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			return 0
		}
		return c.exprMask(x.X, fs)
	case *ast.BinaryExpr:
		return c.exprMask(x.X, fs) | c.exprMask(x.Y, fs)
	case *ast.CallExpr:
		return c.callMask(x, fs)
	case *ast.CompositeLit:
		var m uint64
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				m |= c.exprMask(kv.Value, fs)
			} else {
				m |= c.exprMask(el, fs)
			}
		}
		return m
	case *ast.TypeAssertExpr:
		return c.exprMask(x.X, fs)
	}
	return 0
}

func (c *taintChecker) argsUnion(args []ast.Expr, fs factSet) uint64 {
	var m uint64
	for _, a := range args {
		m |= c.exprMask(a, fs)
	}
	return m
}

// callMask evaluates the taint of a call's results: conversions and
// builtins by shape, known callees (seeded, marked or derived) by their
// summary, listed propagation packages by argument union, everything else
// clean.
func (c *taintChecker) callMask(call *ast.CallExpr, fs factSet) uint64 {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, isType := c.pkg.Info.Uses[f].(*types.TypeName); isType {
			return c.argsUnion(call.Args, fs)
		}
		if b, ok := c.pkg.Info.Uses[f].(*types.Builtin); ok {
			switch b.Name() {
			case "append", "max":
				return c.argsUnion(call.Args, fs)
			case "min":
				// min(n, limit) with a constant operand is bounded.
				for _, a := range call.Args {
					if tv, ok := c.pkg.Info.Types[a]; ok && tv.Value != nil {
						return 0
					}
				}
				return c.argsUnion(call.Args, fs)
			}
			return 0 // len, cap, make, new, ...
		}
	case *ast.SelectorExpr:
		if _, isType := c.pkg.Info.Uses[f.Sel].(*types.TypeName); isType {
			return c.argsUnion(call.Args, fs)
		}
	}
	fn := calleeFunc(c.pkg, call)
	if fn == nil {
		return 0 // function values: quiet
	}
	if sum := c.t[funcKey(fn)]; sum != nil && sum.taintKnown {
		if sum.sanitizes {
			return 0
		}
		var m uint64
		if sum.taintsReturn {
			m |= ambientTaint
		}
		if len(sum.taintProp) > 0 {
			for i, arg := range call.Args {
				if sum.taintProp[argParamIndex(fn, i)] {
					m |= c.exprMask(arg, fs)
				}
			}
		}
		return m
	}
	if fn.Pkg() == nil {
		return 0
	}
	if fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Sprintf":
			return c.printfMask(call, 0, fs)
		case "Appendf":
			m := c.printfMask(call, 1, fs)
			if len(call.Args) > 0 {
				m |= c.exprMask(call.Args[0], fs)
			}
			return m
		case "Errorf":
			return 0 // error-typed results are excluded anyway
		case "Sprint", "Sprintln", "Append", "Appendln":
			return c.argsUnion(call.Args, fs)
		}
	}
	if taintPropPkgs[fn.Pkg().Path()] {
		m := c.argsUnion(call.Args, fs)
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				m |= c.exprMask(sel.X, fs)
			}
		}
		return m
	}
	return 0
}

// printfMask evaluates a formatting call's taint verb-by-verb: operands
// rendered through an escaping verb (%q, %x, %X) are laundered, everything
// else propagates. A non-constant format propagates everything.
func (c *taintChecker) printfMask(call *ast.CallExpr, fmtIdx int, fs factSet) uint64 {
	if fmtIdx >= len(call.Args) {
		return 0
	}
	operands := call.Args[fmtIdx+1:]
	format, ok := constString(c.pkg, call.Args[fmtIdx])
	if !ok {
		return c.exprMask(call.Args[fmtIdx], fs) | c.argsUnion(operands, fs)
	}
	verbs := printfVerbs(format)
	var m uint64
	for i, op := range operands {
		if i < len(verbs) && escapingVerb(verbs[i]) {
			continue
		}
		m |= c.exprMask(op, fs)
	}
	return m
}

// --- transfer ---

func (c *taintChecker) transfer(n ast.Node, fs factSet) {
	// Call effects first: `n, err := conn.Read(buf)` taints buf before the
	// assignment computes the results' masks.
	c.transferCalls(n, fs)
	switch s := n.(type) {
	case *ast.AssignStmt:
		c.transferAssign(s, fs)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					c.transferValueSpec(vs, fs)
				}
			}
		}
	case *ast.RangeStmt:
		c.transferRange(s, fs)
	}
}

func (c *taintChecker) setTaint(fs factSet, obj types.Object, m uint64, pos token.Pos, desc string) {
	if obj == nil || m == 0 || isErrorVar(obj) || excludedTaintType(obj.Type()) {
		return
	}
	f, ok := fs[obj]
	if !ok {
		f = fact{acquired: pos, desc: desc}
	}
	f.taintSrc |= m
	fs[obj] = f
}

func (c *taintChecker) transferAssign(as *ast.AssignStmt, fs factSet) {
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		// Compound assignment (+=, |=, ...): the target keeps its own taint
		// and gains the operand's; nothing is invalidated.
		if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			m := c.exprMask(as.Lhs[0], fs) | c.exprMask(as.Rhs[0], fs)
			if obj := assignedObj(c.pkg, as.Lhs[0]); obj != nil {
				c.setTaint(fs, obj, m, as.Rhs[0].Pos(), "tainted accumulation")
			}
		}
		return
	}
	if len(as.Rhs) == 1 {
		m := c.exprMask(as.Rhs[0], fs)
		objs := make([]types.Object, len(as.Lhs))
		for i, lhs := range as.Lhs {
			objs[i] = assignedObj(c.pkg, lhs)
		}
		errObj := pairedErr(objs)
		invalidateAssigned(fs, objs)
		if m != 0 {
			for _, o := range objs {
				if o == nil || isErrorVar(o) || excludedTaintType(o.Type()) {
					continue
				}
				f := fact{acquired: as.Pos(), desc: "tainted assignment", taintSrc: m}
				if errObj != nil {
					// The value only materializes on success; the taint
					// dies with it on err != nil edges.
					f.err = errObj
					f.errLive = errIsNil
				}
				fs[o] = f
			}
		}
		// After invalidation (which clears stale err pairings), pair the
		// arguments of a validator call with its error result: the taint
		// dies on the err == nil branch.
		c.pairValidator(as, errObj, fs)
		return
	}
	// Parallel assignment: RHS masks before any target is invalidated.
	masks := make([]uint64, len(as.Rhs))
	for i, r := range as.Rhs {
		masks[i] = c.exprMask(r, fs)
	}
	objs := make([]types.Object, len(as.Lhs))
	for i, lhs := range as.Lhs {
		objs[i] = assignedObj(c.pkg, lhs)
	}
	invalidateAssigned(fs, objs)
	for i, o := range objs {
		if o == nil || i >= len(masks) || masks[i] == 0 || isErrorVar(o) || excludedTaintType(o.Type()) {
			continue
		}
		fs[o] = fact{acquired: as.Pos(), desc: "tainted assignment", taintSrc: masks[i]}
	}
}

func (c *taintChecker) transferValueSpec(vs *ast.ValueSpec, fs factSet) {
	if len(vs.Values) == 0 {
		return
	}
	if len(vs.Values) == 1 {
		m := c.exprMask(vs.Values[0], fs)
		var objs []types.Object
		for _, name := range vs.Names {
			objs = append(objs, assignedObj(c.pkg, name))
		}
		errObj := pairedErr(objs)
		invalidateAssigned(fs, objs)
		if m == 0 {
			return
		}
		for _, o := range objs {
			if o == nil || isErrorVar(o) || excludedTaintType(o.Type()) {
				continue
			}
			f := fact{acquired: vs.Pos(), desc: "tainted declaration", taintSrc: m}
			if errObj != nil {
				f.err = errObj
				f.errLive = errIsNil
			}
			fs[o] = f
		}
		return
	}
	for i, name := range vs.Names {
		if i >= len(vs.Values) {
			break
		}
		m := c.exprMask(vs.Values[i], fs)
		obj := assignedObj(c.pkg, name)
		invalidateAssigned(fs, []types.Object{obj})
		c.setTaint(fs, obj, m, vs.Pos(), "tainted declaration")
	}
}

func (c *taintChecker) transferRange(r *ast.RangeStmt, fs factSet) {
	m := c.exprMask(r.X, fs)
	if m == 0 {
		return
	}
	if r.Value != nil {
		if obj := assignedObj(c.pkg, r.Value); obj != nil {
			c.setTaint(fs, obj, m, r.Value.Pos(), "range element of tainted container")
		}
	}
	if r.Key != nil {
		// Index keys of slices/strings are clean (they count, they don't
		// carry content); map keys carry real data.
		if tv, ok := c.pkg.Info.Types[r.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				if obj := assignedObj(c.pkg, r.Key); obj != nil {
					c.setTaint(fs, obj, m, r.Key.Pos(), "range key of tainted map")
				}
			}
		}
	}
}

// taintTargetObj resolves a call argument that a callee writes *through* —
// buf, buf[:n], hdr[:] — to its base variable.
func (c *taintChecker) taintTargetObj(e ast.Expr) types.Object {
	e = ast.Unparen(e)
	for {
		switch x := e.(type) {
		case *ast.SliceExpr:
			e = ast.Unparen(x.X)
			continue
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
			continue
		}
		break
	}
	return identObj(c.pkg, e)
}

// transferCalls applies call side effects: wire reads fill buffers with
// ambient taint, Buffer/Builder writes taint the accumulator, json decodes
// taint their out-parameters, copy() moves taint to the destination.
func (c *taintChecker) transferCalls(n ast.Node, fs factSet) {
	applyCalls(c.pkg, n, func(call *ast.CallExpr) {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := c.pkg.Info.Uses[id].(*types.Builtin); ok {
				if b.Name() == "copy" && len(call.Args) == 2 {
					if m := c.exprMask(call.Args[1], fs); m != 0 {
						if obj := c.taintTargetObj(call.Args[0]); obj != nil {
							c.setTaint(fs, obj, m, call.Pos(), "copied tainted bytes")
						}
					}
				}
				return
			}
		}
		fn := calleeFunc(c.pkg, call)
		if fn == nil {
			return
		}
		key := funcKey(fn)
		if sum := c.t[key]; sum != nil && len(sum.taintsBuf) > 0 {
			for i, arg := range call.Args {
				if !sum.taintsBuf[argParamIndex(fn, i)] {
					continue
				}
				if obj := c.taintTargetObj(arg); obj != nil {
					c.setTaint(fs, obj, ambientTaint, call.Pos(),
						"bytes read from the wire via "+shortCallee(fn))
				}
			}
		}
		// An accumulator keeps what it is fed: b.WriteString(tainted)
		// taints b (makes unescape-style Builder loops propagate).
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				switch fn.Name() {
				case "Write", "WriteString", "WriteRune", "WriteByte":
					if named := namedOf(sig.Recv().Type()); named != nil && named.Obj().Pkg() != nil {
						qn := named.Obj().Pkg().Path() + "." + named.Obj().Name()
						if qn == "bytes.Buffer" || qn == "strings.Builder" {
							if m := c.argsUnion(call.Args, fs); m != 0 {
								if obj := identObj(c.pkg, sel.X); obj != nil {
									c.setTaint(fs, obj, m, call.Pos(), "accumulated tainted bytes")
								}
							}
						}
					}
				}
			}
		}
		switch key {
		case "encoding/json.Unmarshal":
			if len(call.Args) == 2 {
				if m := c.exprMask(call.Args[0], fs); m != 0 {
					c.taintAddrTarget(call.Args[1], fs, call.Pos(), m)
				}
			}
		case "(encoding/json.Decoder).Decode":
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && len(call.Args) == 1 {
				if m := c.exprMask(sel.X, fs); m != 0 {
					c.taintAddrTarget(call.Args[0], fs, call.Pos(), m)
				}
			}
		}
	})
}

// taintAddrTarget propagates the decode source's taint to x given a `&x`
// out-parameter — the decoded value is exactly as trustworthy as the bytes
// it was decoded from.
func (c *taintChecker) taintAddrTarget(arg ast.Expr, fs factSet, pos token.Pos, m uint64) {
	ue, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || ue.Op != token.AND {
		return
	}
	if obj := identObj(c.pkg, ue.X); obj != nil {
		c.setTaint(fs, obj, m, pos, "decoded payload")
	}
}

// pairValidator pairs validated arguments with the validator's error
// result: `if err := ValidateUsername(u); err == nil { ... }` kills u's
// taint on the nil branch (refineNilFact's errNonNil sense).
func (c *taintChecker) pairValidator(as *ast.AssignStmt, errObj types.Object, fs factSet) {
	if errObj == nil || len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := calleeFunc(c.pkg, call)
	if fn == nil {
		return
	}
	sum := c.t[funcKey(fn)]
	if sum == nil || len(sum.validates) == 0 {
		return
	}
	for i, arg := range call.Args {
		if !sum.validates[argParamIndex(fn, i)] {
			continue
		}
		obj := identObj(c.pkg, arg)
		if obj == nil {
			continue
		}
		if f, tracked := fs[obj]; tracked {
			f.err = errObj
			f.errLive = errNonNil
			fs[obj] = f
		}
	}
}

// --- refinement: bound checks kill integer taint ---

// refine applies branch knowledge the generic nil/err refinement cannot
// see: on an edge where `n <= bound` holds for a wire-clean bound, n's
// integer taint dies — the canonical `if n > max { return ErrTooLarge }`
// framing guard proves the subsequent make([]byte, n) bounded.
func (c *taintChecker) refine(cond ast.Expr, val bool, fs factSet) {
	switch b := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if b.Op == token.NOT {
			c.refine(b.X, !val, fs)
		}
	case *ast.BinaryExpr:
		switch b.Op {
		case token.LAND:
			if val {
				c.refine(b.X, true, fs)
				c.refine(b.Y, true, fs)
			}
		case token.LOR:
			if !val {
				c.refine(b.X, false, fs)
				c.refine(b.Y, false, fs)
			}
		case token.LSS, token.LEQ:
			if val {
				c.killBounded(b.X, b.Y, fs)
			} else {
				c.killBounded(b.Y, b.X, fs)
			}
		case token.GTR, token.GEQ:
			if val {
				c.killBounded(b.Y, b.X, fs)
			} else {
				c.killBounded(b.X, b.Y, fs)
			}
		case token.EQL:
			if val {
				c.killBounded(b.X, b.Y, fs)
				c.killBounded(b.Y, b.X, fs)
			}
		}
	}
}

// killBounded records that `bounded <= bound` holds on this edge. When the
// bound itself is not wire-tainted (a constant, a config parameter), the
// integer taint of every variable mentioned in the bounded operand dies —
// handling compound forms like `n-streamIDLen > uint32(max)` whose false
// edge bounds n.
func (c *taintChecker) killBounded(bounded, bound ast.Expr, fs factSet) {
	if c.exprMask(bound, fs)&ambientTaint != 0 {
		return // bounded by attacker data is not bounded
	}
	ast.Inspect(bounded, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		if _, tracked := fs[obj]; tracked && isIntObj(obj) {
			delete(fs, obj)
		}
		return true
	})
}

// --- sink scanning (report hook) ---

func (c *taintChecker) report(n ast.Node, fs factSet) {
	switch n := n.(type) {
	case *ast.ReturnStmt:
		if c.onReturn != nil {
			c.onReturn(n, fs)
		}
	case *ast.BlockStmt:
		if c.onEnd != nil {
			c.onEnd(fs)
		}
	}
	applyCalls(c.pkg, n, func(call *ast.CallExpr) {
		c.checkCallSinks(call, fs)
	})
}

func (c *taintChecker) checkCallSinks(call *ast.CallExpr, fs factSet) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.pkg.Info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "make" {
				for _, sz := range call.Args[1:] {
					c.sinkArg(taintAlloc, "make", sz, fs)
				}
			}
			return
		}
	}
	fn := calleeFunc(c.pkg, call)
	if fn == nil {
		c.checkLogfValue(call, fs)
		return
	}
	key := funcKey(fn)
	if sink, ok := stdlibTaintSinks[key]; ok {
		for _, idx := range sink.args {
			if idx == -1 {
				for _, a := range call.Args {
					c.sinkArg(sink.kind, key, a, fs)
				}
			} else if idx < len(call.Args) {
				c.sinkArg(sink.kind, key, call.Args[idx], fs)
			}
		}
		return
	}
	if name, fmtIdx, argStart, ok := logSinkOf(c.pkg, call, fn); ok {
		c.checkLogSink(call, name, fmtIdx, argStart, fs)
		return
	}
	if sum := c.t[key]; sum != nil && len(sum.taintSinks) > 0 {
		c.checkFlowSinks(call, fn, sum, fs)
	}
}

// checkLogSink scans a direct stdlib logging sink verb-aware: operands
// behind %q/%x/%X are escaped; a non-constant format leaves every operand
// exposed. Secret-into-log at these direct sinks is secretflow's job, not
// repeated here.
func (c *taintChecker) checkLogSink(call *ast.CallExpr, name string, fmtIdx, argStart int, fs factSet) {
	if fmtIdx >= 0 && fmtIdx < len(call.Args) {
		if format, ok := constString(c.pkg, call.Args[fmtIdx]); ok {
			verbs := printfVerbs(format)
			for i, op := range call.Args[fmtIdx+1:] {
				if i < len(verbs) && escapingVerb(verbs[i]) {
					continue
				}
				c.sinkArg(taintLog, name, op, fs)
			}
			return
		}
		// Non-constant format: the format expression itself may carry
		// taint, and no operand is provably escaped.
		c.sinkArg(taintLog, name, call.Args[fmtIdx], fs)
		for _, op := range call.Args[fmtIdx+1:] {
			c.sinkArg(taintLog, name, op, fs)
		}
		return
	}
	if argStart > len(call.Args) {
		return
	}
	for _, op := range call.Args[argStart:] {
		c.sinkArg(taintLog, name, op, fs)
	}
}

// checkLogfValue treats calls through logf-shaped function values —
// a *types.Var named "logf" (or suffixed Logf/logf) of type
// func(string, ...interface{}) — as verb-aware log sinks. Secrets
// reaching such a wrapper are reported here (never excused by a verb):
// this is exactly the blind spot secretflow's direct-sink table leaves.
func (c *taintChecker) checkLogfValue(call *ast.CallExpr, fs factSet) {
	var obj types.Object
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = c.pkg.Info.Uses[f]
	case *ast.SelectorExpr:
		obj = c.pkg.Info.Uses[f.Sel]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	name := v.Name()
	if name != "logf" && !strings.HasSuffix(name, "Logf") && !strings.HasSuffix(name, "logf") {
		return
	}
	sig, ok := v.Type().(*types.Signature)
	if !ok || !logfShape(sig) || len(call.Args) == 0 {
		return
	}
	format, isConst := constString(c.pkg, call.Args[0])
	var verbs []byte
	if isConst {
		verbs = printfVerbs(format)
	}
	if !isConst {
		c.sinkArg(taintLog, name, call.Args[0], fs)
	}
	for i, op := range call.Args[1:] {
		if desc, secret := c.ctx.secretCarrier(c.pkg, op); secret {
			c.addFinding(taintLog, op.Pos(),
				fmt.Sprintf("secret value reaches log wrapper %s: %s; redact it before logging", name, desc))
		}
		if isConst && i < len(verbs) && escapingVerb(verbs[i]) {
			continue
		}
		c.sinkArg(taintLog, name, op, fs)
	}
}

// logfShape matches func(string, ...interface{}) with no results.
func logfShape(sig *types.Signature) bool {
	if sig == nil || !sig.Variadic() || sig.Results().Len() != 0 || sig.Params().Len() != 2 {
		return false
	}
	if b, ok := sig.Params().At(0).Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
		return false
	}
	sl, ok := sig.Params().At(1).Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	iface, ok := sl.Elem().Underlying().(*types.Interface)
	return ok && iface.Empty()
}

// checkFlowSinks reports tainted arguments feeding a repository callee
// whose summary says that parameter reaches a sink. Log flows carry the
// callee's format parameter index; the caller's constant format resolves
// the verb, so `failf(conn, pub, "bad user %q", u)` passes while %s fails.
// Secrets feeding a log flow are reported unconditionally — a verb does
// not excuse a secret reaching a log line wholesale.
func (c *taintChecker) checkFlowSinks(call *ast.CallExpr, fn *types.Func, sum *funcSummary, fs factSet) {
	sig, _ := fn.Type().(*types.Signature)
	for argIdx, arg := range call.Args {
		pIdx := argParamIndex(fn, argIdx)
		for _, flow := range sum.taintSinks {
			if flow.param != pIdx {
				continue
			}
			if flow.kind == taintLog {
				if desc, secret := c.ctx.secretCarrier(c.pkg, arg); secret {
					c.addFinding(taintLog, arg.Pos(),
						fmt.Sprintf("secret value reaches %s via %s: %s; redact it before logging",
							flow.sink, shortCallee(fn), desc))
				}
			}
			if !c.sinkArgTypeOK(flow.kind, arg) {
				continue
			}
			m := c.exprMask(arg, fs)
			if m == 0 {
				continue
			}
			if flow.fmtParam >= 0 && flow.fmtParam < len(call.Args) && sig != nil {
				if format, ok := constString(c.pkg, call.Args[flow.fmtParam]); ok {
					member := argIdx - (sig.Params().Len() - 1)
					verbs := printfVerbs(format)
					if member >= 0 && member < len(verbs) && escapingVerb(verbs[member]) {
						continue
					}
				}
			}
			if m&ambientTaint != 0 {
				c.addFinding(flow.kind, arg.Pos(),
					fmt.Sprintf("%s, which reaches %s", taintMsgPrefix(flow.kind, exprLabel(arg), shortCallee(fn)), flow.sink))
			}
			c.recordParamFlows(m, flow.kind, flow.sink)
		}
	}
}

// sinkArg gates an argument by the sink kind's carrying types, evaluates
// its mask, and records findings (ambient) and flows (parameter bits).
func (c *taintChecker) sinkArg(kind taintKind, sink string, arg ast.Expr, fs factSet) {
	if !c.sinkArgTypeOK(kind, arg) {
		return
	}
	m := c.exprMask(arg, fs)
	if m == 0 {
		return
	}
	if m&ambientTaint != 0 {
		c.addFinding(kind, arg.Pos(), taintMsg(kind, sink, exprLabel(arg)))
	}
	c.recordParamFlows(m, kind, sink)
}

// sinkArgTypeOK filters by what can actually carry the attack: integers
// for allocation sizes, string-shaped values for paths and headers (plus
// cookie structs), strings or whole untrusted values (%v) for logs.
func (c *taintChecker) sinkArgTypeOK(kind taintKind, arg ast.Expr) bool {
	tv, ok := c.pkg.Info.Types[ast.Unparen(arg)]
	if !ok || tv.Type == nil {
		return false
	}
	switch kind {
	case taintAlloc:
		return isIntType(tv.Type)
	case taintLog:
		if stringish(tv.Type) {
			return true
		}
		_, untrusted := c.ctx.untrustedType(tv.Type)
		return untrusted
	case taintHdr:
		return stringish(tv.Type) || isStructish(tv.Type)
	default: // path
		return stringish(tv.Type)
	}
}

func (c *taintChecker) addFinding(kind taintKind, pos token.Pos, msg string) {
	k := taintSeenKey{kind, pos}
	if c.seen[k] {
		return
	}
	c.seen[k] = true
	c.findings = append(c.findings, taintFinding{kind: kind, pos: pos, msg: msg})
}

// recordParamFlows turns parameter-bit sink hits into interprocedural
// flows. A log flow for a parameter after the enclosing printf-style
// format parameter records that format index, so callers can resolve
// verbs.
func (c *taintChecker) recordParamFlows(m uint64, kind taintKind, sink string) {
	if m == 0 {
		return
	}
	for i := 0; i < 62; i++ {
		if m&paramBit(i) == 0 {
			continue
		}
		fmtParam := -1
		if kind == taintLog && c.fmtIdx >= 0 && i > c.fmtIdx {
			fmtParam = c.fmtIdx
		}
		c.flows[taintSinkFlow{param: i, kind: kind, sink: sink, fmtParam: fmtParam}] = true
	}
}

func taintMsg(kind taintKind, sink, label string) string {
	return taintMsgPrefix(kind, label, "") + "; " + taintRemedy(kind) + " (sink " + sink + ")"
}

func taintMsgPrefix(kind taintKind, label, via string) string {
	viaStr := ""
	if via != "" {
		viaStr = " passed to " + via
	}
	switch kind {
	case taintPath:
		return fmt.Sprintf("wire-tainted value %s%s builds a filesystem path", label, viaStr)
	case taintAlloc:
		return fmt.Sprintf("wire-derived size %s%s drives an allocation without a dominating bound check", label, viaStr)
	case taintLog:
		return fmt.Sprintf("wire-tainted value %s%s reaches a log line unescaped", label, viaStr)
	case taintHdr:
		return fmt.Sprintf("wire-tainted value %s%s reaches an HTTP response header", label, viaStr)
	}
	return label
}

func taintRemedy(kind taintKind) string {
	switch kind {
	case taintPath:
		return "hash it or validate its charset before building paths"
	case taintAlloc:
		return "compare it against an explicit maximum first"
	case taintLog:
		return "render it with %q or escape control characters"
	case taintHdr:
		return "validate or escape it to prevent header splitting"
	}
	return ""
}

// --- summary computation (called from buildSummaries) ---

// computeTaintSummaries derives every taint summary bottom-up and memoizes
// each declaration body's sink findings for the four passes. Two rounds:
// the bottom-up order makes non-recursive code exact in round one; round
// two re-derives with the full table so recursive components and the
// memoized findings see final callee facts.
func computeTaintSummaries(ctx *Context, t summaryTable, ordered []declSite, untrustedFns, sanitizeFns map[string]bool) {
	seedTaintSummaries(t)
	for key := range untrustedFns {
		s := t.get(key)
		s.taintKnown = true
		s.taintsReturn = true
	}
	for key := range sanitizeFns {
		s := t.get(key)
		s.taintKnown = true
		if d, ok := ctx.FuncDecls[key]; ok && validatorShape(d.fn) {
			sig := d.fn.Type().(*types.Signature)
			s.validates = make(map[int]bool)
			for i := 0; i < sig.Params().Len(); i++ {
				if stringish(sig.Params().At(i).Type()) {
					s.validates[i] = true
				}
			}
		} else {
			s.sanitizes = true
		}
	}
	ctx.taintMu.Lock()
	if ctx.taintFacts == nil {
		ctx.taintFacts = make(map[*ast.BlockStmt][]taintFinding)
	}
	ctx.taintMu.Unlock()
	for round := 0; round < 2; round++ {
		final := round == 1
		for _, d := range ordered {
			taintScanDecl(ctx, t, d, sanitizeFns, final)
		}
	}
}

// taintCandidateParam: parameter types worth tracking bit-wise — string
// shapes, integers, byte slices, interface{} — excluding untrusted-typed
// parameters (those are ambient by type already; double-reporting the same
// sink once per caller would drown the signal).
func taintCandidateParam(ctx *Context, t types.Type) bool {
	if _, untrusted := ctx.untrustedType(t); untrusted {
		return false
	}
	if stringish(t) || isIntType(t) {
		return true
	}
	if sl, ok := t.Underlying().(*types.Slice); ok {
		if iface, ok := sl.Elem().Underlying().(*types.Interface); ok && iface.Empty() {
			return true
		}
	}
	return false
}

// taintScanDecl flows one declaration with its candidate parameters seeded,
// deriving the taint summary facts and (in the final round) memoizing the
// body's ambient sink findings.
func taintScanDecl(ctx *Context, t summaryTable, d declSite, sanitizeFns map[string]bool, final bool) {
	sig := d.fn.Type().(*types.Signature)
	params := sig.Params()
	seed := make(factSet)
	var candidates []int
	for i := 0; i < params.Len() && i < 62; i++ {
		p := params.At(i)
		if !taintCandidateParam(ctx, p.Type()) {
			continue
		}
		candidates = append(candidates, i)
		seed[p] = fact{acquired: p.Pos(), desc: "parameter " + p.Name(), taintSrc: paramBit(i)}
	}
	c := newTaintChecker(ctx, d.pkg, t, printfShape(sig))
	c.nParams = params.Len()

	var returnMask uint64
	bufAmbient := make(map[int]bool)
	observeParams := func(fs factSet) {
		for _, i := range candidates {
			p := params.At(i)
			if !isByteSlice(p.Type()) {
				continue
			}
			if f, ok := fs[p]; ok && f.taintSrc&ambientTaint != 0 {
				bufAmbient[i] = true
			}
		}
	}
	c.onReturn = func(ret *ast.ReturnStmt, fs factSet) {
		for _, res := range ret.Results {
			returnMask |= c.exprMask(res, fs)
		}
		observeParams(fs)
	}
	c.onEnd = observeParams

	runFlow(d.pkg, ctx.cfgOf(d.pkg, d.key, d.fd.Body), seed, flowHooks{
		transfer: c.transfer,
		refine:   c.refine,
		report:   c.report,
	})

	s := t.get(d.key)
	s.taintKnown = true
	if !sanitizeFns[d.key] && !s.sanitizes {
		if returnMask&ambientTaint != 0 {
			s.taintsReturn = true
		}
		for _, i := range candidates {
			if returnMask&paramBit(i) != 0 {
				if s.taintProp == nil {
					s.taintProp = make(map[int]bool)
				}
				s.taintProp[i] = true
			}
		}
		for i := range bufAmbient {
			if s.taintsBuf == nil {
				s.taintsBuf = make(map[int]bool)
			}
			s.taintsBuf[i] = true
		}
	}
	for f := range c.flows {
		if !containsFlow(s.taintSinks, f) {
			s.taintSinks = append(s.taintSinks, f)
		}
	}
	if len(s.validates) == 0 {
		if idx, ok := derivesValidator(d.pkg, d.fd, sig); ok {
			s.validates = map[int]bool{idx: true}
		}
	}
	if final {
		ctx.taintMu.Lock()
		ctx.taintFacts[d.fd.Body] = c.findings
		ctx.taintMu.Unlock()
	}
}

func containsFlow(flows []taintSinkFlow, f taintSinkFlow) bool {
	for _, g := range flows {
		if g == f {
			return true
		}
	}
	return false
}

// validatorShape: exactly one result, of type error.
func validatorShape(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	return sig.Results().Len() == 1 && types.Identical(sig.Results().At(0).Type(), errorType)
}

// derivesValidator recognizes the charset-validator shape without a
// marker: exactly one string parameter, a single error result, a body
// that inspects the parameter character-by-character (range or index) and
// has both a nil and a non-nil return. `func ValidateUsername(u string)
// error` derives validates[0] with no annotation.
func derivesValidator(pkg *Package, fd *ast.FuncDecl, sig *types.Signature) (int, bool) {
	if sig.Results().Len() != 1 || !types.Identical(sig.Results().At(0).Type(), errorType) {
		return 0, false
	}
	params := sig.Params()
	strIdx, count := -1, 0
	for i := 0; i < params.Len(); i++ {
		if b, ok := params.At(i).Type().Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			strIdx = i
			count++
		}
	}
	if count != 1 {
		return 0, false
	}
	p := params.At(strIdx)
	inspects, nilReturn, errReturn := false, false, false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if identObj(pkg, n.X) == p {
				inspects = true
			}
		case *ast.IndexExpr:
			if identObj(pkg, n.X) == p {
				inspects = true
			}
		case *ast.ReturnStmt:
			if len(n.Results) != 1 {
				return true
			}
			if id, ok := ast.Unparen(n.Results[0]).(*ast.Ident); ok && id.Name == "nil" {
				nilReturn = true
			} else {
				errReturn = true
			}
		}
		return true
	})
	return strIdx, inspects && nilReturn && errReturn
}

// printfShape returns the format parameter's index for a printf-shaped
// signature — penultimate string parameter, variadic ...interface{} tail —
// or -1.
func printfShape(sig *types.Signature) int {
	if sig == nil || !sig.Variadic() {
		return -1
	}
	n := sig.Params().Len()
	if n < 2 {
		return -1
	}
	sl, ok := sig.Params().At(n - 1).Type().Underlying().(*types.Slice)
	if !ok {
		return -1
	}
	if iface, ok := sl.Elem().Underlying().(*types.Interface); !ok || !iface.Empty() {
		return -1
	}
	if b, ok := sig.Params().At(n - 2).Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
		return -1
	}
	return n - 2
}

// --- small helpers ---

// printfVerbs extracts one verb byte per consumed operand from a format
// string; `*` width/precision consume an integer operand, recorded as 'd'.
func printfVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		for i < len(format) && strings.IndexByte("+-# 0", format[i]) >= 0 {
			i++
		}
		if i < len(format) && format[i] == '*' {
			verbs = append(verbs, 'd')
			i++
		} else {
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				i++
			}
		}
		if i < len(format) && format[i] == '.' {
			i++
			if i < len(format) && format[i] == '*' {
				verbs = append(verbs, 'd')
				i++
			} else {
				for i < len(format) && format[i] >= '0' && format[i] <= '9' {
					i++
				}
			}
		}
		if i < len(format) {
			verbs = append(verbs, format[i])
		}
	}
	return verbs
}

// escapingVerb: %q quotes and escapes; %x/%X hex-encode — none can smuggle
// newlines, separators or control bytes into the output.
func escapingVerb(v byte) bool { return v == 'q' || v == 'x' || v == 'X' }

func constString(pkg *Package, e ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// exprLabel renders a compact source label for diagnostics.
func exprLabel(e ast.Expr) string {
	s := types.ExprString(e)
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return s
}

func stringish(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Slice:
		if isByte(u.Elem()) {
			return true
		}
		if b, ok := u.Elem().Underlying().(*types.Basic); ok {
			return b.Info()&types.IsString != 0
		}
		// []interface{}: a variadic operand pack forwarded as args... keeps
		// carrying whatever strings were packed into it.
		if iface, ok := u.Elem().Underlying().(*types.Interface); ok {
			return iface.Empty()
		}
	case *types.Interface:
		return u.Empty()
	}
	return false
}

func isIntType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isIntObj(obj types.Object) bool {
	return obj != nil && isIntType(obj.Type())
}

func isStructish(t types.Type) bool {
	u := t.Underlying()
	if p, ok := u.(*types.Pointer); ok {
		u = p.Elem().Underlying()
	}
	_, ok := u.(*types.Struct)
	return ok
}
