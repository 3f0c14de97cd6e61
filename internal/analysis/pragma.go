package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Source markers. Every //myproxy: comment of the load is read by one scan
// (scanMarkers), which fills the tables the passes consult:
//
//	//myproxy:allow <pass> <rationale>  suppress one finding (below)
//	//myproxy:secret      secret-bearing type, or a function whose []byte
//	                      result is secret (secret.go, zeroize.go)
//	//myproxy:verdict     protocol verdict type, handled exhaustively (verdict.go)
//	//myproxy:guardedby   field or package variable guarded by a mutex (guardedby.go)
//	//myproxy:hotpath     root of the hot cone (hotpath.go)
//	//myproxy:untrusted   wire-input type, function or interface method (taint.go)
//	//myproxy:sanitizes   sanitizing or validating function (taint.go)
//
// The attaching markers are standalone lines of the declaration's doc
// comment (a type's trailing comment also carries secret and verdict, a
// field's trailing comment carries guardedby). Any other //myproxy: line is
// a "pragma" finding.
//
// Pragma suppression. A finding can be acknowledged in source with
//
//	//myproxy:allow <pass> <one-line rationale>
//
// either trailing the offending line or standing alone on the line
// directly above it. A pragma suppresses findings of exactly the named
// pass on exactly its target line — nothing else. The rationale is
// mandatory: an allowance without a recorded reason is itself a finding
// (pass "pragma"), as is an allowance naming a pass that does not exist,
// and an allowance for a pass that ran which suppressed nothing (stale).

const (
	pragmaPrefix    = "//myproxy:"
	allowPrefix     = "//myproxy:allow"
	secretMarker    = "//myproxy:secret"
	verdictMarker   = "//myproxy:verdict"
	guardedbyMarker = "//myproxy:guardedby"
	hotpathMarker   = "//myproxy:hotpath"
	untrustedMarker = "//myproxy:untrusted"
	sanitizesMarker = "//myproxy:sanitizes"
)

// markers is what the marker scan collects for one load.
type markers struct {
	// secretTypes, verdicts and untrustedTypes are keyed by qualified type
	// name ("path/to/pkg.Type"); untrustedTypes is pre-seeded with the
	// net/http request frontier.
	secretTypes    map[string]string
	verdicts       map[string]bool
	untrustedTypes map[string]string
	guarded        *guardTable
	// secretFns, hotRoots, untrustedFns and sanitizes are keyed by the
	// function's qualified name (funcKey); untrustedFns includes interface
	// methods, which have no body to derive a summary from.
	secretFns, hotRoots, untrustedFns, sanitizes map[string]bool
	allows                                       pragmaIndex
}

// allowance is one parsed //myproxy:allow pragma.
type allowance struct {
	pkg  *Package
	pass string
	// pos locates the pragma itself; line is the source line it suppresses.
	pos  token.Pos
	line int
	// used records that the allowance suppressed at least one finding.
	used bool
}

// pragmaIndex holds, per file name, the allowances keyed by target line.
type pragmaIndex map[string]map[int][]*allowance

// markTarget is the declaration a doc (or trailing) comment group belongs
// to.
type markTarget struct {
	pkg    *Package
	fd     *ast.FuncDecl
	types  []*ast.TypeSpec  // a type spec, or every spec under a GenDecl doc
	method *ast.Field       // interface method
	field  *ast.Field       // struct field, with its struct and type spec
	st     *ast.StructType  //
	ts     *ast.TypeSpec    //
	vars   []*ast.ValueSpec // package-level var specs
	// trailing marks a type spec's trailing comment rather than its doc.
	trailing bool
}

// markTargets indexes a file's comment groups by the declaration they
// document.
func markTargets(pkg *Package, file *ast.File) map[*ast.CommentGroup]markTarget {
	out := make(map[*ast.CommentGroup]markTarget)
	set := func(cg *ast.CommentGroup, t markTarget) {
		if cg != nil {
			t.pkg = pkg
			out[cg] = t
		}
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			set(d.Doc, markTarget{fd: d})
		case *ast.GenDecl:
			var specs []*ast.TypeSpec
			var vars []*ast.ValueSpec
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					specs = append(specs, s)
					set(s.Doc, markTarget{types: []*ast.TypeSpec{s}})
					set(s.Comment, markTarget{types: []*ast.TypeSpec{s}, trailing: true})
					if it, ok := s.Type.(*ast.InterfaceType); ok && it.Methods != nil {
						for _, m := range it.Methods.List {
							set(m.Doc, markTarget{method: m})
						}
					}
				case *ast.ValueSpec:
					if d.Tok == token.VAR {
						vars = append(vars, s)
						set(s.Doc, markTarget{vars: []*ast.ValueSpec{s}})
						set(s.Comment, markTarget{vars: []*ast.ValueSpec{s}})
					}
				}
			}
			set(d.Doc, markTarget{types: specs, vars: vars})
		}
	}
	// Struct fields of every named struct type, local ones included.
	ast.Inspect(file, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok {
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, f := range st.Fields.List {
					set(f.Doc, markTarget{field: f, st: st, ts: ts})
					set(f.Comment, markTarget{field: f, st: st, ts: ts})
				}
			}
		}
		return true
	})
	return out
}

// scanMarkers is the one walk over the load's //myproxy: comments. Malformed
// markers and pragmas are reported as "pragma" diagnostics (which cannot
// themselves be suppressed). knownPasses guards against typoed pass names.
func scanMarkers(pkgs []*Package, knownPasses map[string]bool) (*markers, []Diagnostic) {
	m := &markers{
		secretTypes: make(map[string]string),
		verdicts:    make(map[string]bool),
		untrustedTypes: map[string]string{
			"net/http.Request": "carries client-controlled URL, form, header and body data",
			"net/url.Values":   "decoded query/form values are client-controlled",
			"net/url.URL":      "parsed request URLs are client-controlled",
		},
		guarded:      &guardTable{fields: make(map[string]string), vars: make(map[types.Object]types.Object)},
		secretFns:    make(map[string]bool),
		hotRoots:     make(map[string]bool),
		untrustedFns: make(map[string]bool),
		sanitizes:    make(map[string]bool),
		allows:       make(pragmaIndex),
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			var targets map[*ast.CommentGroup]markTarget
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(c.Text)
					if !strings.HasPrefix(text, pragmaPrefix) {
						continue
					}
					if targets == nil {
						targets = markTargets(pkg, file)
					}
					switch tgt := targets[cg]; {
					case strings.HasPrefix(text, guardedbyMarker):
						if tgt.pkg != nil {
							diags = append(diags, m.guarded.annotate(tgt,
								strings.Fields(strings.TrimPrefix(text, guardedbyMarker)), c.Pos())...)
						}
					case text == secretMarker || text == verdictMarker || text == hotpathMarker ||
						text == untrustedMarker || text == sanitizesMarker:
						if tgt.pkg != nil {
							m.mark(text, tgt)
						}
					default:
						if d, ok := m.allow(pkg, c, text, knownPasses); !ok {
							diags = append(diags, d)
						}
					}
				}
			}
		}
	}
	return m, diags
}

// mark applies one attaching marker to its declaration. A marker on a
// declaration it does not apply to is ignored.
func (m *markers) mark(marker string, tgt markTarget) {
	pkg := tgt.pkg
	for _, ts := range tgt.types {
		tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
		if tn == nil || tn.Pkg() == nil {
			continue
		}
		qual := tn.Pkg().Path() + "." + tn.Name()
		switch marker {
		case secretMarker:
			m.secretTypes[qual] = "marked //myproxy:secret"
		case verdictMarker:
			m.verdicts[qual] = true
		case untrustedMarker:
			if !tgt.trailing {
				m.untrustedTypes[qual] = "marked //myproxy:untrusted"
			}
		}
	}
	var fnIdent *ast.Ident
	switch {
	case tgt.fd != nil:
		fnIdent = tgt.fd.Name
	case tgt.method != nil && len(tgt.method.Names) > 0:
		fnIdent = tgt.method.Names[0]
	}
	fn, _ := pkg.Info.Defs[fnIdent].(*types.Func)
	key := funcKey(fn)
	if key == "" {
		return
	}
	switch {
	case marker == untrustedMarker:
		m.untrustedFns[key] = true
	case tgt.fd == nil: // the other function markers attach to declarations
	case marker == sanitizesMarker:
		m.sanitizes[key] = true
	case tgt.fd.Body == nil: // and these to declarations with a body
	case marker == secretMarker:
		m.secretFns[key] = true
	case marker == hotpathMarker:
		m.hotRoots[key] = true
	}
}

// allow parses and indexes one //myproxy:allow pragma, or returns the
// "pragma" finding that rejects it (or any other unknown marker).
func (m *markers) allow(pkg *Package, c *ast.Comment, text string, knownPasses map[string]bool) (Diagnostic, bool) {
	rest, ok := strings.CutPrefix(text, allowPrefix)
	if !ok {
		return pkg.diag("pragma", c.Pos(), "unknown myproxy pragma %q (want %q or %q)", text, allowPrefix, secretMarker), false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return pkg.diag("pragma", c.Pos(), "malformed pragma: want //myproxy:allow <pass> <reason>"), false
	}
	if !knownPasses[fields[0]] {
		return pkg.diag("pragma", c.Pos(), "pragma names unknown pass %q", fields[0]), false
	}
	pos := pkg.Fset.Position(c.Pos())
	target := pos.Line
	if standaloneComment(pkg.Src[pos.Filename], pos.Line, pos.Column) {
		target = pos.Line + 1
	}
	if m.allows[pos.Filename] == nil {
		m.allows[pos.Filename] = make(map[int][]*allowance)
	}
	m.allows[pos.Filename][target] = append(m.allows[pos.Filename][target],
		&allowance{pkg: pkg, pass: fields[0], pos: c.Pos(), line: target})
	return Diagnostic{}, true
}

// standaloneComment reports whether the comment starting at (line, col) has
// nothing but whitespace before it on its line — i.e. it is not trailing
// code, so it applies to the line below.
func standaloneComment(src []byte, line, col int) bool {
	// Find the start of the line by walking line breaks.
	cur := 1
	i := 0
	for ; i < len(src) && cur < line; i++ {
		if src[i] == '\n' {
			cur++
		}
	}
	prefix := src[i:]
	if col-1 < len(prefix) {
		prefix = prefix[:col-1]
	}
	return strings.TrimSpace(string(prefix)) == ""
}

// suppressed reports whether d is covered by an allowance for its pass on
// its line, marking every such allowance used.
func (idx pragmaIndex) suppressed(d Diagnostic) bool {
	hit := false
	for _, a := range idx[d.Pos.Filename][d.Pos.Line] {
		if a.pass == d.Pass {
			a.used = true
			hit = true
		}
	}
	return hit
}

// stale reports the allowances for passes that ran which suppressed
// nothing: a fixed finding (or a moved line) leaves an allowance that would
// silently cover the next, unrelated finding there.
func (idx pragmaIndex) stale(ran map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, byLine := range idx {
		for _, as := range byLine {
			for _, a := range as {
				if ran[a.pass] && !a.used {
					diags = append(diags, a.pkg.diag("pragma", a.pos,
						"stale pragma: no %s finding on line %d to allow; delete it", a.pass, a.line))
				}
			}
		}
	}
	return diags
}
