// Package flow provides the intraprocedural control-flow layer of the
// static-analysis suite: an AST-based CFG builder and a generic
// worklist dataflow solver (dataflow.go). Like the rest of
// internal/analysis it is stdlib-only — go/ast and go/token, no
// golang.org/x/tools — so the flow-sensitive rule (errflow) runs
// anywhere the Go toolchain runs.
//
// The CFG deliberately stays at statement granularity. Each Block
// holds a sequence of *atomic* nodes — simple statements plus the
// guard expressions of compound statements — and compound statements
// never appear whole: an if's condition lands in the branching block
// while its bodies become successor blocks. A rule's transfer
// function therefore walks Block.Nodes linearly and never recurses
// into nested control flow; nested *function literals* are the one
// kind of nesting a node can still contain, and rules decide how to
// treat those (both current rules skip or summarize them).
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// A CFG is the control-flow graph of one function body. Entry and
// Exit are synthetic empty blocks: Entry's successor is the first
// real block, and every return, panic, and fall-off-the-end path has
// an edge to Exit.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// A Block is one straight-line run of atomic nodes. Nodes holds, in
// evaluation order: simple statements (assignments, expression
// statements, send/inc-dec/decl/defer/go/return statements) and the
// guard expressions of the compound statement that terminates the
// block (an if/for condition, a switch tag, a range operand, a case
// clause's expression list). Control transfers only at the end of the
// block, along Succs.
type Block struct {
	Index int
	// Kind labels what the block models ("entry", "exit", "body",
	// "if.then", "for.head", ...) for dumps and tests; rules should
	// not branch on it.
	Kind  string
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block

	// Return is the return statement that terminates the block, if
	// any: its edge to Exit models a normal return path.
	Return *ast.ReturnStmt
	// Panics marks a block terminated by a call to the builtin panic:
	// its edge to Exit models stack unwinding, not a normal return,
	// and rules that police "every return path" typically skip it.
	Panics bool
}

// addEdge links b -> s exactly once.
func addEdge(b, s *Block) {
	for _, e := range b.Succs {
		if e == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// builder carries the state of one Build call.
type builder struct {
	cfg *CFG

	// loops is the stack of enclosing breakable/continuable targets.
	loops []loopFrame

	// labels maps label names to their targets; gotos seen before the
	// label definition are patched at the end.
	labels map[string]*labelInfo
}

type loopFrame struct {
	label string // "" for unlabeled
	brk   *Block // break target (nil when break is not legal, e.g. plain labeled stmt)
	cont  *Block // continue target (nil outside loops)
}

type labelInfo struct {
	target  *Block   // goto target: where the labeled statement starts
	pending []*Block // blocks that issued goto before the label existed
}

// Build constructs the CFG of one function body. body may be the body
// of a FuncDecl or a FuncLit; a nil body yields a two-block graph
// (entry -> exit).
func Build(body *ast.BlockStmt) *CFG {
	b := &builder{
		cfg:    &CFG{},
		labels: make(map[string]*labelInfo),
	}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	cur := b.newBlock("body")
	addEdge(b.cfg.Entry, cur)
	if body != nil {
		cur = b.stmtList(body.List, cur)
	}
	// Falling off the end of the body is an implicit return.
	addEdge(cur, b.cfg.Exit)
	// Patch forward gotos whose labels never materialized (illegal Go,
	// but the builder must not crash on it): route them to exit.
	for _, li := range b.labels {
		for _, from := range li.pending {
			if li.target != nil {
				addEdge(from, li.target)
			} else {
				addEdge(from, b.cfg.Exit)
			}
		}
		li.pending = nil
	}
	return b.cfg
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// dead returns a fresh block with no predecessors: the continuation
// after a terminator (return, goto, panic). Anything appended to it is
// unreachable and the solver will keep it at bottom.
func (b *builder) dead() *Block { return b.newBlock("unreachable") }

func (b *builder) stmtList(list []ast.Stmt, cur *Block) *Block {
	for _, s := range list {
		cur = b.stmt(s, cur)
	}
	return cur
}

// stmt threads one statement through the graph: it extends (or
// branches from) cur and returns the block where control continues.
func (b *builder) stmt(s ast.Stmt, cur *Block) *Block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(s.List, cur)

	case *ast.IfStmt:
		return b.ifStmt(s, cur)

	case *ast.ForStmt:
		return b.forStmt(s, cur, "")

	case *ast.RangeStmt:
		return b.rangeStmt(s, cur, "")

	case *ast.SwitchStmt:
		return b.switchStmt(s, cur, "")

	case *ast.TypeSwitchStmt:
		return b.typeSwitchStmt(s, cur, "")

	case *ast.SelectStmt:
		return b.selectStmt(s, cur, "")

	case *ast.LabeledStmt:
		return b.labeledStmt(s, cur)

	case *ast.BranchStmt:
		return b.branchStmt(s, cur)

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, s)
		cur.Return = s
		addEdge(cur, b.cfg.Exit)
		return b.dead()

	case *ast.ExprStmt:
		cur.Nodes = append(cur.Nodes, s)
		if isPanicCall(s.X) {
			cur.Panics = true
			addEdge(cur, b.cfg.Exit)
			return b.dead()
		}
		return cur

	default:
		// Assign, IncDec, Send, Decl, Defer, Go, Empty: straight-line.
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

// isPanicCall reports whether e is a direct call to the builtin panic.
// Purely syntactic (the builder has no type info): a local function
// named panic would shadow the builtin, which no real code does.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) ifStmt(s *ast.IfStmt, cur *Block) *Block {
	if s.Init != nil {
		cur = b.stmt(s.Init, cur)
	}
	cur.Nodes = append(cur.Nodes, s.Cond)
	after := b.newBlock("if.after")

	then := b.newBlock("if.then")
	addEdge(cur, then)
	thenEnd := b.stmtList(s.Body.List, then)
	addEdge(thenEnd, after)

	if s.Else != nil {
		els := b.newBlock("if.else")
		addEdge(cur, els)
		elseEnd := b.stmt(s.Else, els)
		addEdge(elseEnd, after)
	} else {
		addEdge(cur, after)
	}
	return after
}

func (b *builder) forStmt(s *ast.ForStmt, cur *Block, label string) *Block {
	if s.Init != nil {
		cur = b.stmt(s.Init, cur)
	}
	head := b.newBlock("for.head")
	addEdge(cur, head)
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
	}
	body := b.newBlock("for.body")
	after := b.newBlock("for.after")
	addEdge(head, body)
	if s.Cond != nil {
		addEdge(head, after)
	}

	// continue runs the post statement (when present) before the
	// condition; give it its own block so the back edge is explicit.
	cont := head
	if s.Post != nil {
		post := b.newBlock("for.post")
		post.Nodes = append(post.Nodes, s.Post)
		addEdge(post, head)
		cont = post
	}

	b.loops = append(b.loops, loopFrame{label: label, brk: after, cont: cont})
	bodyEnd := b.stmtList(s.Body.List, body)
	b.loops = b.loops[:len(b.loops)-1]
	addEdge(bodyEnd, cont)
	return after
}

func (b *builder) rangeStmt(s *ast.RangeStmt, cur *Block, label string) *Block {
	head := b.newBlock("range.head")
	addEdge(cur, head)
	// The range operand is evaluated once, the key/value variables are
	// written each iteration; both live in the head block. The
	// RangeStmt node itself is the marker rules see — by the package
	// contract they must look only at its X/Key/Value, never its Body.
	head.Nodes = append(head.Nodes, s.X)
	if s.Key != nil || s.Value != nil {
		head.Nodes = append(head.Nodes, s)
	}
	body := b.newBlock("range.body")
	after := b.newBlock("range.after")
	addEdge(head, body)
	addEdge(head, after)

	b.loops = append(b.loops, loopFrame{label: label, brk: after, cont: head})
	bodyEnd := b.stmtList(s.Body.List, body)
	b.loops = b.loops[:len(b.loops)-1]
	addEdge(bodyEnd, head)
	return after
}

func (b *builder) switchStmt(s *ast.SwitchStmt, cur *Block, label string) *Block {
	if s.Init != nil {
		cur = b.stmt(s.Init, cur)
	}
	if s.Tag != nil {
		cur.Nodes = append(cur.Nodes, s.Tag)
	}
	return b.caseClauses(s.Body, cur, label, true)
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, cur *Block, label string) *Block {
	if s.Init != nil {
		cur = b.stmt(s.Init, cur)
	}
	// The assign is `v := x.(type)` (or a bare type assertion
	// expression statement): a simple statement.
	if s.Assign != nil {
		cur = b.stmt(s.Assign, cur)
	}
	return b.caseClauses(s.Body, cur, label, false)
}

// caseClauses builds the shared switch/type-switch shape: the
// dispatching block branches to every case body; a missing default
// adds a direct edge to the after block; fallthrough (switch only)
// jumps to the next case body.
func (b *builder) caseClauses(body *ast.BlockStmt, cur *Block, label string, allowFallthrough bool) *Block {
	after := b.newBlock("switch.after")
	var clauses []*ast.CaseClause
	for _, raw := range body.List {
		if cc, ok := raw.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock("case")
		if cc.List == nil {
			hasDefault = true
		}
		blocks[i].Nodes = append(blocks[i].Nodes, exprNodes(cc.List)...)
		addEdge(cur, blocks[i])
	}
	if !hasDefault {
		addEdge(cur, after)
	}
	// break inside a switch exits the switch; continue still binds to
	// the enclosing loop, so only brk is pushed.
	b.loops = append(b.loops, loopFrame{label: label, brk: after})
	for i, cc := range clauses {
		end := blocks[i]
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && allowFallthrough {
				if i+1 < len(blocks) {
					addEdge(end, blocks[i+1])
				}
				end = b.dead()
				continue
			}
			end = b.stmt(st, end)
		}
		addEdge(end, after)
	}
	b.loops = b.loops[:len(b.loops)-1]
	return after
}

func (b *builder) selectStmt(s *ast.SelectStmt, cur *Block, label string) *Block {
	after := b.newBlock("select.after")
	b.loops = append(b.loops, loopFrame{label: label, brk: after})
	n := 0
	for _, raw := range s.Body.List {
		cc, ok := raw.(*ast.CommClause)
		if !ok {
			continue
		}
		n++
		branch := b.newBlock("select.case")
		addEdge(cur, branch)
		if cc.Comm != nil {
			branch = b.stmt(cc.Comm, branch)
		}
		end := b.stmtList(cc.Body, branch)
		addEdge(end, after)
	}
	b.loops = b.loops[:len(b.loops)-1]
	if n == 0 {
		// select {} blocks forever: no path to after.
		return b.dead()
	}
	return after
}

func (b *builder) labeledStmt(s *ast.LabeledStmt, cur *Block) *Block {
	// The labeled statement starts a fresh block so gotos have a
	// stable target.
	start := b.newBlock("label." + s.Label.Name)
	addEdge(cur, start)
	li := b.label(s.Label.Name)
	li.target = start
	for _, from := range li.pending {
		addEdge(from, start)
	}
	li.pending = nil

	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		return b.forStmt(inner, start, s.Label.Name)
	case *ast.RangeStmt:
		return b.rangeStmt(inner, start, s.Label.Name)
	case *ast.SwitchStmt:
		return b.switchStmt(inner, start, s.Label.Name)
	case *ast.TypeSwitchStmt:
		return b.typeSwitchStmt(inner, start, s.Label.Name)
	case *ast.SelectStmt:
		return b.selectStmt(inner, start, s.Label.Name)
	default:
		// A plain labeled statement: break LABEL jumps past it.
		after := b.newBlock("label.after")
		b.loops = append(b.loops, loopFrame{label: s.Label.Name, brk: after})
		end := b.stmt(s.Stmt, start)
		b.loops = b.loops[:len(b.loops)-1]
		addEdge(end, after)
		return after
	}
}

func (b *builder) label(name string) *labelInfo {
	li, ok := b.labels[name]
	if !ok {
		li = &labelInfo{}
		b.labels[name] = li
	}
	return li
}

func (b *builder) branchStmt(s *ast.BranchStmt, cur *Block) *Block {
	switch s.Tok {
	case token.BREAK:
		for i := len(b.loops) - 1; i >= 0; i-- {
			f := b.loops[i]
			if f.brk == nil {
				continue
			}
			if s.Label == nil || f.label == s.Label.Name {
				addEdge(cur, f.brk)
				return b.dead()
			}
		}
	case token.CONTINUE:
		for i := len(b.loops) - 1; i >= 0; i-- {
			f := b.loops[i]
			if f.cont == nil {
				continue
			}
			if s.Label == nil || f.label == s.Label.Name {
				addEdge(cur, f.cont)
				return b.dead()
			}
		}
	case token.GOTO:
		if s.Label != nil {
			li := b.label(s.Label.Name)
			if li.target != nil {
				addEdge(cur, li.target)
			} else {
				li.pending = append(li.pending, cur)
			}
			return b.dead()
		}
	case token.FALLTHROUGH:
		// Handled inside caseClauses; one appearing anywhere else is
		// illegal Go — drop it.
	}
	return b.dead()
}

// exprNodes widens a []ast.Expr into block nodes.
func exprNodes(list []ast.Expr) []ast.Node {
	out := make([]ast.Node, len(list))
	for i, e := range list {
		out[i] = e
	}
	return out
}

// String renders the graph structurally — one line per block with its
// kind, node count, and successor indices — for tests and debugging.
func (g *CFG) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		// Hide unreachable empty scratch blocks: they carry no
		// semantics and their count is a builder implementation detail.
		if len(blk.Preds) == 0 && blk != g.Entry && len(blk.Nodes) == 0 && len(blk.Succs) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "b%d %s [%d]", blk.Index, blk.Kind, len(blk.Nodes))
		if len(blk.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		if blk.Panics {
			sb.WriteString(" panics")
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
