package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Control-flow graphs. Each function body is lowered to basic blocks so the
// dataflow engine (dataflow.go) can reason about what happens on *paths* —
// "this connection can reach a return without being closed", "this buffer
// goes out of scope unwiped on the error branch" — rather than over raw
// syntax. The builder handles the shapes that matter for the repository's
// passes: if/else, for and range loops, switch/type-switch/select, labeled
// break/continue, goto, defer, and terminating calls (panic, os.Exit,
// testing.T Fatal family), which end a path without reaching the exit
// block. Short-circuit conditions (&&, ||, !) are not split into extra
// blocks; instead the whole condition rides on the branch edge and the
// engine decomposes it during edge refinement (see refineCond), which gives
// the same err-branch precision with a much smaller graph.

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Name identifies the function in diagnostics and tests.
	Name string
	// Blocks lists all blocks in creation order; Blocks[0] is the entry.
	Blocks []*Block
	// Entry is the first executed block; Exit is the synthetic block every
	// return (and the implicit fall-off-the-end return) flows into.
	Entry, Exit *Block
	// End marks the closing brace of the body; the builder emits the body's
	// *ast.BlockStmt into the block preceding Exit when execution can fall
	// off the end, so passes can report "still open at function end".
	End token.Pos
}

// Block is a straight-line sequence of nodes with outgoing edges.
type Block struct {
	Index int
	// Nodes holds statements and branch-condition expressions in evaluation
	// order. Control-structure statements are emitted *shallowly*: an
	// *ast.IfStmt never appears (its init/cond do), a *ast.RangeStmt appears
	// as a single marker node (its body is lowered into its own blocks), and
	// the function's own *ast.BlockStmt appears only as the end-of-function
	// marker. Transfer functions must therefore not recurse into nested
	// statements of a marker node.
	Nodes []ast.Node
	Succs []Edge
}

// Edge is one control transfer. When Cond is non-nil the edge is taken when
// Cond evaluates to Val; the dataflow engine refines facts with that truth.
type Edge struct {
	To   *Block
	Cond ast.Expr
	Val  bool
}

// buildCFG lowers a function body. name is used for diagnostics only.
// summaries (nil-tolerant) supplies derived noReturn facts so calls to
// repository-local terminators (cliutil.Fatalf and friends) end paths the
// way os.Exit does.
func buildCFG(pkg *Package, name string, body *ast.BlockStmt, summaries summaryTable) *CFG {
	b := &cfgBuilder{
		pkg:       pkg,
		summaries: summaries,
		cfg:       &CFG{Name: name, End: body.End()},
		labels:    make(map[string]*Block),
	}
	b.cfg.Exit = &Block{Index: -1}
	b.cur = b.newBlock()
	b.cfg.Entry = b.cur
	b.stmtList(body.List)
	if b.cur != nil {
		// Execution can fall off the end: emit the body as the
		// end-of-function marker, then flow to exit.
		b.cur.Nodes = append(b.cur.Nodes, body)
		b.edge(b.cur, Edge{To: b.cfg.Exit})
	}
	b.resolveGotos()
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

// frame tracks the break/continue targets of one enclosing loop, switch or
// select, with its label when the construct is labeled.
type frame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	pkg *Package
	// summaries supplies derived noReturn facts during path termination;
	// nil (hermetic tests, pre-summary construction) degrades to the
	// stdlib-only terminator set.
	summaries summaryTable
	cfg       *CFG
	cur       *Block // nil while the current point is unreachable
	frames    []frame
	labels    map[string]*Block
	gotos     []pendingGoto
	// nextLabel holds a label to attach to the next loop/switch frame.
	nextLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from *Block, e Edge) {
	if from != nil {
		from.Succs = append(from.Succs, e)
	}
}

func (b *cfgBuilder) emit(n ast.Node) {
	if b.cur != nil && n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	if b.cur == nil {
		// Unreachable code: still lower it (it may contain labels a goto
		// jumps to) into a fresh, unconnected block.
		b.cur = b.newBlock()
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, s.Body)
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Body)
		// The type-switch assignment is emitted with each case by
		// switchStmt's caller context; for our passes the assign statement
		// itself carries no tracked effects beyond what the init covers.
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.LabeledStmt:
		b.labels[s.Label.Name] = b.labelTarget(s.Stmt)
		b.nextLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.nextLabel = ""
	case *ast.ReturnStmt:
		b.emit(s)
		b.edge(b.cur, Edge{To: b.cfg.Exit})
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(s)
	default:
		b.emit(s)
		if terminatesPath(b.pkg, b.summaries, s) {
			b.cur = nil // panic/os.Exit/t.Fatal: path ends, never reaches exit
		}
	}
}

// labelTarget pre-creates the block a label resolves to, so goto (forward or
// backward) and labeled continue land on the statement's first block.
func (b *cfgBuilder) labelTarget(s ast.Stmt) *Block {
	// Seal the current block and start a fresh one at the labeled statement.
	next := b.newBlock()
	b.edge(b.cur, Edge{To: next})
	b.cur = next
	return next
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.emit(s.Cond)
	condBlk := b.cur
	thenBlk := b.newBlock()
	after := b.newBlock()
	b.edge(condBlk, Edge{To: thenBlk, Cond: s.Cond, Val: true})
	b.cur = thenBlk
	b.stmtList(s.Body.List)
	b.edge(b.cur, Edge{To: after})
	if s.Else != nil {
		elseBlk := b.newBlock()
		b.edge(condBlk, Edge{To: elseBlk, Cond: s.Cond, Val: false})
		b.cur = elseBlk
		b.stmt(s.Else)
		b.edge(b.cur, Edge{To: after})
	} else {
		b.edge(condBlk, Edge{To: after, Cond: s.Cond, Val: false})
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock()
	b.edge(b.cur, Edge{To: head})
	body := b.newBlock()
	after := b.newBlock()
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
	} else {
		post = head
	}
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
		b.edge(head, Edge{To: body, Cond: s.Cond, Val: true})
		b.edge(head, Edge{To: after, Cond: s.Cond, Val: false})
	} else {
		b.edge(head, Edge{To: body})
		// No condition: the only way past the loop is break.
	}
	b.pushFrame(frame{label: b.nextLabel, breakTo: after, continueTo: post})
	b.nextLabel = ""
	b.cur = body
	b.stmtList(s.Body.List)
	b.edge(b.cur, Edge{To: post})
	if s.Post != nil {
		b.cur = post
		b.stmt(s.Post)
		b.edge(b.cur, Edge{To: head})
	}
	b.popFrame()
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	// The RangeStmt itself is the marker node: passes inspect its X (and the
	// zeroization idiom) shallowly; the body is lowered normally below.
	b.emit(s)
	head := b.newBlock()
	b.edge(b.cur, Edge{To: head})
	body := b.newBlock()
	after := b.newBlock()
	b.edge(head, Edge{To: body})
	b.edge(head, Edge{To: after})
	b.pushFrame(frame{label: b.nextLabel, breakTo: after, continueTo: head})
	b.nextLabel = ""
	b.cur = body
	b.stmtList(s.Body.List)
	b.edge(b.cur, Edge{To: head})
	b.popFrame()
	b.cur = after
}

func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt) {
	if init != nil {
		b.stmt(init)
	}
	if tag != nil {
		b.emit(tag)
	}
	head := b.cur
	after := b.newBlock()
	b.pushFrame(frame{label: b.nextLabel, breakTo: after})
	b.nextLabel = ""
	var caseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		caseBlocks = append(caseBlocks, blk)
		clauses = append(clauses, cc)
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(head, Edge{To: blk})
	}
	if !hasDefault {
		b.edge(head, Edge{To: after})
	}
	for i, cc := range clauses {
		b.cur = caseBlocks[i]
		for _, e := range cc.List {
			b.emit(e)
		}
		fallsThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				continue
			}
			b.stmt(st)
		}
		if fallsThrough && i+1 < len(caseBlocks) {
			b.edge(b.cur, Edge{To: caseBlocks[i+1]})
		} else {
			b.edge(b.cur, Edge{To: after})
		}
	}
	b.popFrame()
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	head := b.cur
	after := b.newBlock()
	b.pushFrame(frame{label: b.nextLabel, breakTo: after})
	b.nextLabel = ""
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.edge(head, Edge{To: blk})
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.edge(b.cur, Edge{To: after})
	}
	b.popFrame()
	b.cur = after
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if f := b.findFrame(label, false); f != nil {
			b.edge(b.cur, Edge{To: f.breakTo})
		}
	case token.CONTINUE:
		if f := b.findFrame(label, true); f != nil {
			b.edge(b.cur, Edge{To: f.continueTo})
		}
	case token.GOTO:
		b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: label})
	}
	b.cur = nil
}

func (b *cfgBuilder) pushFrame(f frame) { b.frames = append(b.frames, f) }
func (b *cfgBuilder) popFrame()         { b.frames = b.frames[:len(b.frames)-1] }

// findFrame locates the innermost frame matching the label (any frame when
// the label is empty); needLoop restricts the search to loops (continue).
func (b *cfgBuilder) findFrame(label string, needLoop bool) *frame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needLoop && f.continueTo == nil {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

func (b *cfgBuilder) resolveGotos() {
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			b.edge(g.from, Edge{To: target})
		}
	}
}

// terminatesPath reports whether the statement unconditionally ends the
// path without reaching the function exit: panic, os.Exit, log.Fatal*, the
// testing Fatal/FailNow/Skip family, and any function whose derived
// summary says it never returns (interproc.go). Resources held on such
// paths are not reported as leaks (the process or test is over).
func terminatesPath(pkg *Package, t summaryTable, s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj, ok := pkg.Info.Uses[id].(*types.Builtin); ok && obj.Name() == "panic" {
			return true
		}
	}
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "os":
		return fn.Name() == "Exit"
	case "log":
		return strings.HasPrefix(fn.Name(), "Fatal") || strings.HasPrefix(fn.Name(), "Panic")
	case "runtime":
		return fn.Name() == "Goexit"
	case "testing":
		switch fn.Name() {
		case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
			return true
		}
	}
	if sum := t.of(fn); sum != nil && sum.noReturn {
		return true
	}
	return false
}

// neverReturnsStmts reports whether the statement list provably cannot
// complete normally or return: some statement in sequence terminates every
// path, and no earlier statement can escape the function or jump away.
// This is the derivation behind funcSummary.noReturn; it deliberately
// under-approximates (an infinite loop "never returns" too, but is not
// claimed) so a wrong noReturn fact can never erase a live path.
func neverReturnsStmts(pkg *Package, t summaryTable, list []ast.Stmt) bool {
	for _, s := range list {
		if stmtNeverReturns(pkg, t, s) {
			return true
		}
		if mayEscape(s) {
			return false
		}
	}
	return false
}

func stmtNeverReturns(pkg *Package, t summaryTable, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return terminatesPath(pkg, t, s)
	case *ast.BlockStmt:
		return neverReturnsStmts(pkg, t, s.List)
	case *ast.IfStmt:
		return s.Else != nil &&
			stmtNeverReturns(pkg, t, s.Body) &&
			stmtNeverReturns(pkg, t, s.Else)
	}
	return false
}

// mayEscape reports whether the statement contains a return, break,
// continue or goto outside nested function literals — anything that could
// leave the enclosing sequence by a route neverReturnsStmts does not model.
func mayEscape(s ast.Stmt) bool {
	escape := false
	ast.Inspect(s, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt, *ast.BranchStmt:
			escape = true
		}
		return !escape
	})
	return escape
}

// funcBody is one function body of a package: a declaration or a function
// literal inside one.
type funcBody struct {
	// key is the call graph's qualified name (callgraph.go):
	// "path/pkg.F", "(path/pkg.T).M", and "<decl>$<n>" for the n-th literal
	// of a declaration in preorder. Empty when the declaration has none.
	key string
	// name is the display name used in messages: "F", "T.M", "T.M$1".
	name string
	// fn is the *ast.FuncDecl or *ast.FuncLit owning body.
	fn   ast.Node
	body *ast.BlockStmt
	// deferred marks a literal that is immediately deferred
	// (`defer func() { ... }()`): it runs at return time under whatever
	// locks the enclosing function still holds.
	deferred bool
}

// funcBodies yields every function body in the package — declarations and
// the function literals inside them, in preorder. Literals are analyzed as
// independent functions: variables they capture are treated like
// parameters (owned elsewhere), which keeps the analysis intraprocedural.
func funcBodies(pkg *Package, visit func(fb funcBody)) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name, key := fd.Name.Name, ""
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				name = recvString(fd.Recv.List[0].Type) + "." + name
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				key = funcKey(fn)
			}
			visit(funcBody{key: key, name: name, fn: fd, body: fd.Body})
			deferred := make(map[ast.Node]bool)
			litIdx := 0
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.DeferStmt:
					deferred[ast.Unparen(n.Call.Fun)] = true
				case *ast.FuncLit:
					litIdx++
					suffix := fmt.Sprintf("$%d", litIdx)
					lit := funcBody{name: name + suffix, fn: n, body: n.Body, deferred: deferred[n]}
					if key != "" {
						lit.key = key + suffix
					}
					visit(lit)
				}
				return true
			})
		}
	}
}

func recvString(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return recvString(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return recvString(t.X)
	case *ast.IndexListExpr:
		return recvString(t.X)
	}
	return "?"
}

// dump renders the CFG compactly for tests: one line per block with its
// node kinds and successor edges.
func (c *CFG) dump() string {
	var sb strings.Builder
	for _, blk := range c.Blocks {
		name := fmt.Sprintf("b%d", blk.Index)
		if blk == c.Entry {
			name += "(entry)"
		}
		if blk == c.Exit {
			name += "(exit)"
		}
		var kinds []string
		for _, n := range blk.Nodes {
			kinds = append(kinds, nodeKind(n))
		}
		var succs []string
		for _, e := range blk.Succs {
			s := fmt.Sprintf("b%d", e.To.Index)
			if e.Cond != nil {
				s += fmt.Sprintf("[%v]", e.Val)
			}
			succs = append(succs, s)
		}
		sort.Strings(succs)
		fmt.Fprintf(&sb, "%s: [%s] -> {%s}\n", name, strings.Join(kinds, " "), strings.Join(succs, " "))
	}
	return sb.String()
}

func nodeKind(n ast.Node) string {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return "assign"
	case *ast.ExprStmt:
		return "expr"
	case *ast.DeferStmt:
		return "defer"
	case *ast.GoStmt:
		return "go"
	case *ast.ReturnStmt:
		return "return"
	case *ast.RangeStmt:
		return "range"
	case *ast.BlockStmt:
		return "end"
	case *ast.DeclStmt:
		return "decl"
	case *ast.IncDecStmt:
		return "incdec"
	case *ast.SendStmt:
		return "send"
	case ast.Expr:
		_ = n
		return "cond"
	default:
		return strings.TrimPrefix(fmt.Sprintf("%T", n), "*ast.")
	}
}
