package verilog

import (
	"repro/internal/diag"
)

// maxParseErrors bounds error recovery: real compilers stop flooding the
// log after a handful of cascading errors, and the agent only ever reads
// the first few anyway.
const maxParseErrors = 10

// MaxNestingDepth bounds how deeply a source may nest statements,
// expressions, unary operators, binary-operator chains and l-value
// concatenations, counted on one counter. A level costs a few
// recursive-descent frames (about 2.4 KB of stack per parenthesis), and
// the walkers downstream recurse along the same nesting (each operator
// of a chain deepens its left-deep tree by one). The deepest benchmark
// reference or curated entry nests 10 levels. Past the bound the parser
// reports one diag.CatResourceLimit error and parses no further.
const MaxNestingDepth = 256

// Parser is a recursive-descent parser with error recovery. Parse errors
// are collected as category-tagged diagnostics; the parser synchronizes at
// statement boundaries and keeps going so that multi-error files produce
// multi-error logs, as both reference compilers do. It pulls one token
// at a time from its lexer; no token array is built.
type Parser struct {
	lx    Lexer
	tok   Token // the current token; lx is positioned just past it
	diags diag.List
	// pendingItems buffers extra items produced by multi-name
	// declarations and comma-chained assigns; parseModule drains it after
	// each parseItem call.
	pendingItems []Item
	// depth is the nesting being parsed (peak its maximum); halted is set
	// once it would pass MaxNestingDepth.
	depth, peak int
	halted      bool
}

// Parse parses src and returns the AST plus all diagnostics. The AST is
// always non-nil, though it may be partial when errors occurred.
func Parse(src string) (*SourceFile, diag.List) {
	p := newParser(src)
	file := p.parseFile()
	return file, p.diags
}

func newParser(src string) *Parser {
	p := &Parser{lx: Lexer{src: src, line: 1, col: 1}}
	p.tok = p.lx.Next()
	return p
}

func (p *Parser) cur() Token  { return p.tok }
func (p *Parser) next() Token { t := p.tok; p.advance(); return t }

// advance moves to the next token; at EOF it stays there.
func (p *Parser) advance() {
	if p.tok.Kind != TokEOF {
		p.tok = p.lx.Next()
	}
}

func (p *Parser) at(text string) bool { return p.cur().Is(text) }

func (p *Parser) accept(text string) bool {
	if p.at(text) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) errorf(cat diag.Category, pos diag.Pos, format string, args ...any) {
	if p.halted || len(p.diags.Errors()) >= maxParseErrors {
		return
	}
	p.diags.Add(diag.Errorf(cat, pos, format, args...))
}

// enter descends one nesting level; leave climbs back. Past
// MaxNestingDepth, enter records one resource-limit error and lexes on
// to EOF, where every open construct unwinds with its own errors
// suppressed, and returns false: the caller returns a placeholder.
func (p *Parser) enter() bool {
	if p.depth == MaxNestingDepth {
		if !p.halted {
			p.diags.Add(diag.Errorf(diag.CatResourceLimit, p.cur().Pos,
				"nesting is deeper than %d levels; the rest of the source is not parsed", MaxNestingDepth))
			p.halted = true
			for p.tok.Kind != TokEOF {
				p.advance()
			}
		}
		return false
	}
	p.depth++
	p.peak = max(p.peak, p.depth)
	return true
}

func (p *Parser) leave() { p.depth-- }

// expect consumes the given operator/keyword or records an error. The
// category lets callers classify what a missing token means (a missing ';'
// is CatMissingSemicolon, a missing 'end' is CatUnmatchedBeginEnd, ...).
func (p *Parser) expect(text string, cat diag.Category) bool {
	if p.accept(text) {
		return true
	}
	t := p.cur()
	p.errorf(cat, t.Pos, "expected '%s' but found '%s'", text, tokenDesc(t))
	return false
}

func tokenDesc(t Token) string {
	switch t.Kind {
	case TokEOF:
		return "end of file"
	case TokError:
		return t.Text
	default:
		return t.Text
	}
}

// expectIdent consumes an identifier or records an error. A keyword in an
// identifier slot gets the dedicated keyword-as-identifier category.
func (p *Parser) expectIdent(what string) (Token, bool) {
	t := p.cur()
	switch t.Kind {
	case TokIdent:
		p.advance()
		return t, true
	case TokKeyword:
		p.errorf(diag.CatKeywordAsIdent, t.Pos,
			"'%s' is a reserved word and cannot be used as %s", t.Text, what)
		p.advance()
		return t, false
	default:
		p.errorf(diag.CatUnexpectedToken, t.Pos, "expected %s but found '%s'", what, tokenDesc(t))
		return t, false
	}
}

// syncTo skips tokens until one of the stop texts, EOF, or 'endmodule'.
func (p *Parser) syncTo(stops ...string) {
	for {
		t := p.cur()
		if t.Kind == TokEOF {
			return
		}
		for _, s := range stops {
			if t.Is(s) {
				return
			}
		}
		if t.Is("endmodule") || t.Is("module") {
			return
		}
		p.advance()
	}
}

// ---------- file & module ----------

func (p *Parser) parseFile() *SourceFile {
	file := &SourceFile{}
	for {
		t := p.cur()
		switch {
		case t.Kind == TokEOF:
			return file
		case t.Kind == TokDirective:
			file.Directives = append(file.Directives, Directive{Name: t.Text, DirPos: t.Pos})
			p.advance()
		case t.Is("module"):
			file.Modules = append(file.Modules, p.parseModule())
		case t.Is("endmodule"):
			p.errorf(diag.CatModuleStructure, t.Pos, "'endmodule' without a matching 'module'")
			p.advance()
		case t.Kind == TokError:
			p.errorf(t.Cat, t.Pos, "%s", t.Text)
			p.advance()
		default:
			p.errorf(diag.CatModuleStructure, t.Pos,
				"'%s' found outside of any module; expected 'module'", tokenDesc(t))
			p.syncTo()
			if !p.cur().Is("module") && p.cur().Kind != TokEOF {
				p.advance()
			}
		}
	}
}

func (p *Parser) parseModule() *Module {
	p.expect("module", diag.CatModuleStructure)
	nameTok, _ := p.expectIdent("a module name")
	m := &Module{Name: nameTok.Text, NamePos: nameTok.Pos}

	if p.at("#") { // parameter port list: #(parameter W = 8, ...)
		p.advance()
		if p.expect("(", diag.CatUnexpectedToken) {
			p.parseHeaderParams(m)
			p.expect(")", diag.CatUnexpectedToken)
		}
	}
	if p.accept("(") {
		p.parsePortList(m)
		p.expect(")", diag.CatPortMismatch)
	}
	p.expect(";", diag.CatMissingSemicolon)

	for {
		t := p.cur()
		switch {
		case t.Kind == TokEOF:
			p.errorf(diag.CatMissingEndmodule, t.Pos,
				"reached end of file while inside module '%s'; missing 'endmodule'", m.Name)
			return m
		case t.Is("endmodule"):
			p.advance()
			m.Complete = true
			return m
		case t.Is("module"):
			p.errorf(diag.CatMissingEndmodule, t.Pos,
				"'module' found inside module '%s'; missing 'endmodule'", m.Name)
			return m
		default:
			if item := p.parseItem(m); item != nil {
				m.Items = append(m.Items, item)
			}
			if len(p.pendingItems) > 0 {
				m.Items = append(m.Items, p.pendingItems...)
				p.pendingItems = nil
			}
		}
	}
}

func (p *Parser) parseHeaderParams(m *Module) {
	for {
		p.accept("parameter")
		var rng *Range
		if p.at("[") {
			rng = p.parseRange()
		}
		nameTok, ok := p.expectIdent("a parameter name")
		if !ok {
			p.syncTo(",", ")")
		} else {
			dn := DeclName{Name: nameTok.Text, NamePos: nameTok.Pos}
			if p.accept("=") {
				dn.Init = p.parseExpr()
			}
			m.Items = append(m.Items, &ParamDecl{
				VRange: rng, Names: []DeclName{dn}, DeclPos: nameTok.Pos,
			})
		}
		if !p.accept(",") {
			return
		}
	}
}

// parsePortList handles both ANSI (input [7:0] a, output reg b) and
// non-ANSI (a, b, c) header styles, including mixtures.
func (p *Parser) parsePortList(m *Module) {
	if p.at(")") {
		return
	}
	// Carry direction/kind/range forward for "input [7:0] a, b" style lists.
	var cur PortDecl
	for {
		t := p.cur()
		switch {
		case t.Is("input") || t.Is("output") || t.Is("inout"):
			cur = PortDecl{DeclPos: t.Pos}
			switch t.Text {
			case "input":
				cur.Dir = DirInput
			case "output":
				cur.Dir = DirOutput
			default:
				cur.Dir = DirInout
			}
			p.advance()
			cur.Kind = p.parseOptionalKind()
			if p.accept("signed") {
				cur.Signed = true
			}
			if p.at("[") {
				cur.VRange = p.parseRange()
			}
		case t.Is("wire") || t.Is("reg") || t.Is("logic"):
			// kind refinement without a new direction, e.g. "output reg a, wire b"
			cur.Kind = p.parseOptionalKind()
			if p.at("[") {
				cur.VRange = p.parseRange()
			}
		}
		nameTok, ok := p.expectIdent("a port name")
		if !ok {
			p.syncTo(",", ")")
			if !p.accept(",") {
				return
			}
			continue
		}
		pd := cur
		pd.Name = nameTok.Text
		if pd.DeclPos.Line == 0 {
			pd.DeclPos = nameTok.Pos
		}
		m.Ports = append(m.Ports, &pd)
		if !p.accept(",") {
			return
		}
	}
}

func (p *Parser) parseOptionalKind() NetKind {
	switch {
	case p.accept("wire"):
		return KindWire
	case p.accept("reg"):
		return KindReg
	case p.accept("logic"):
		return KindLogic
	case p.accept("integer"):
		return KindInteger
	case p.accept("int"):
		return KindInt
	case p.accept("genvar"):
		return KindGenvar
	}
	return KindNone
}

func (p *Parser) parseRange() *Range {
	lb := p.cur()
	p.expect("[", diag.CatUnexpectedToken)
	msb := p.parseExpr()
	r := &Range{MSB: msb, RPos: lb.Pos}
	if p.expect(":", diag.CatUnexpectedToken) {
		r.LSB = p.parseExpr()
	} else {
		r.LSB = msb
		p.syncTo("]", ";", ",")
	}
	p.expect("]", diag.CatUnexpectedToken)
	return r
}

// ---------- module items ----------

func (p *Parser) parseItem(m *Module) Item {
	t := p.cur()
	switch {
	case t.Kind == TokDirective:
		p.errorf(diag.CatMisplacedDirective, t.Pos,
			"compiler directive `%s is not allowed inside a module body", t.Text)
		p.advance()
		return nil
	case t.Kind == TokError:
		p.errorf(t.Cat, t.Pos, "%s", t.Text)
		p.advance()
		return nil
	case t.Is("input") || t.Is("output") || t.Is("inout"):
		return p.parseBodyPortDecl()
	case t.Is("wire") || t.Is("reg") || t.Is("logic") || t.Is("integer") ||
		t.Is("int") || t.Is("genvar"):
		return p.parseDecl()
	case t.Is("parameter") || t.Is("localparam"):
		return p.parseParamDecl()
	case t.Is("assign"):
		return p.parseAssignItem()
	case t.Is("always"):
		return p.parseAlways()
	case t.Is("initial"):
		p.advance()
		body := p.parseStmt()
		return &InitialBlock{Body: body, InitPos: t.Pos}
	case t.Is(";"):
		p.advance()
		return nil
	case t.Is("end"):
		p.errorf(diag.CatUnmatchedBeginEnd, t.Pos, "'end' without a matching 'begin'")
		p.advance()
		return nil
	case t.Kind == TokIdent:
		// A bare identifier at item level is most often a statement that
		// escaped its always block, or a lost assignment.
		p.errorf(diag.CatUnexpectedToken, t.Pos,
			"unexpected identifier '%s' at module level; statements must be inside an always or initial block", t.Text)
		p.syncTo(";")
		p.accept(";")
		return nil
	default:
		p.errorf(diag.CatUnexpectedToken, t.Pos, "unexpected '%s' in module body", tokenDesc(t))
		p.advance()
		p.syncTo(";")
		p.accept(";")
		return nil
	}
}

func (p *Parser) parseBodyPortDecl() Item {
	t := p.next()
	pd := PortDecl{DeclPos: t.Pos}
	switch t.Text {
	case "input":
		pd.Dir = DirInput
	case "output":
		pd.Dir = DirOutput
	default:
		pd.Dir = DirInout
	}
	pd.Kind = p.parseOptionalKind()
	if p.accept("signed") {
		pd.Signed = true
	}
	if p.at("[") {
		pd.VRange = p.parseRange()
	}
	nameTok, ok := p.expectIdent("a port name")
	if !ok {
		p.syncTo(";")
		p.accept(";")
		return nil
	}
	pd.Name = nameTok.Text
	item := &PortItem{PortDecl: pd}
	// Additional names share the direction/range; sema only needs one
	// PortItem per name, so the extras go through pendingItems.
	for p.accept(",") {
		extraTok, ok := p.expectIdent("a port name")
		if !ok {
			break
		}
		extra := pd
		extra.Name = extraTok.Text
		extra.DeclPos = extraTok.Pos
		p.pendingItems = append(p.pendingItems, &PortItem{PortDecl: extra})
	}
	p.expect(";", diag.CatMissingSemicolon)
	return item
}

func (p *Parser) parseDecl() Item {
	t := p.next()
	d := &Decl{DeclPos: t.Pos}
	switch t.Text {
	case "wire":
		d.Kind = KindWire
	case "reg":
		d.Kind = KindReg
	case "logic":
		d.Kind = KindLogic
	case "integer":
		d.Kind = KindInteger
	case "int":
		d.Kind = KindInt
	case "genvar":
		d.Kind = KindGenvar
	}
	if p.accept("signed") {
		d.Signed = true
	}
	if p.at("[") {
		d.VRange = p.parseRange()
	}
	for {
		nameTok, ok := p.expectIdent("a signal name")
		if !ok {
			p.syncTo(";")
			break
		}
		dn := DeclName{Name: nameTok.Text, NamePos: nameTok.Pos}
		if p.accept("=") {
			dn.Init = p.parseExpr()
		}
		d.Names = append(d.Names, dn)
		if !p.accept(",") {
			break
		}
	}
	p.expect(";", diag.CatMissingSemicolon)
	return d
}

func (p *Parser) parseParamDecl() Item {
	t := p.next()
	pd := &ParamDecl{Local: t.Text == "localparam", DeclPos: t.Pos}
	if p.at("[") {
		pd.VRange = p.parseRange()
	}
	for {
		nameTok, ok := p.expectIdent("a parameter name")
		if !ok {
			p.syncTo(";")
			break
		}
		dn := DeclName{Name: nameTok.Text, NamePos: nameTok.Pos}
		if p.expect("=", diag.CatUnexpectedToken) {
			dn.Init = p.parseExpr()
		}
		pd.Names = append(pd.Names, dn)
		if !p.accept(",") {
			break
		}
	}
	p.expect(";", diag.CatMissingSemicolon)
	return pd
}

func (p *Parser) parseAssignItem() Item {
	t := p.next() // 'assign'
	lhs := p.parseLValue()
	if !p.expect("=", diag.CatUnexpectedToken) {
		p.syncTo(";")
		p.accept(";")
		return nil
	}
	rhs := p.parseExpr()
	item := &AssignItem{LHS: lhs, RHS: rhs, AssignPos: t.Pos}
	for p.accept(",") { // assign a = b, c = d;
		lhs2 := p.parseLValue()
		if !p.expect("=", diag.CatUnexpectedToken) {
			break
		}
		rhs2 := p.parseExpr()
		p.pendingItems = append(p.pendingItems,
			&AssignItem{LHS: lhs2, RHS: rhs2, AssignPos: lhs2.Pos()})
	}
	p.expect(";", diag.CatMissingSemicolon)
	return item
}

func (p *Parser) parseAlways() Item {
	t := p.next() // 'always'
	blk := &AlwaysBlock{AlwaysPos: t.Pos}
	switch {
	case p.accept("@"):
		switch {
		case p.accept("*"):
			blk.Star = true
		case p.accept("("):
			if p.accept("*") {
				blk.Star = true
			} else {
				for {
					ev := EventExpr{}
					if p.accept("posedge") {
						ev.Edge = EdgePos
					} else if p.accept("negedge") {
						ev.Edge = EdgeNeg
					}
					ev.Signal = p.parseExpr()
					blk.Events = append(blk.Events, ev)
					if p.accept("or") || p.accept(",") {
						continue
					}
					break
				}
			}
			p.expect(")", diag.CatSensitivityList)
		default:
			p.errorf(diag.CatSensitivityList, p.cur().Pos,
				"expected '(' or '*' after '@' in always block")
			p.syncTo("begin", ";")
		}
	default:
		p.errorf(diag.CatSensitivityList, p.cur().Pos,
			"always block requires an event control '@(...)'")
	}
	blk.Body = p.parseStmt()
	return blk
}

// ---------- statements ----------

func (p *Parser) parseStmt() Stmt {
	if !p.enter() {
		return &NullStmt{StmtPos: p.cur().Pos}
	}
	defer p.leave()
	t := p.cur()
	switch {
	case t.Kind == TokError:
		p.errorf(t.Cat, t.Pos, "%s", t.Text)
		p.advance()
		return &NullStmt{StmtPos: t.Pos}
	case t.Is("begin"):
		return p.parseBlock()
	case t.Is("{"):
		// A '{' in statement position is legal when it opens a
		// concatenation l-value ({carry, sum} = ...). Only when the
		// matching '}' is not followed by an assignment operator is this
		// the C block idiom.
		if p.braceStartsAssignment() {
			return p.parseAssignStmt()
		}
		p.errorf(diag.CatCStyleSyntax, t.Pos,
			"'{' cannot start a statement; Verilog uses 'begin'/'end' for blocks, not braces")
		p.advance()
		p.skipBraceBlock()
		return &NullStmt{StmtPos: t.Pos}
	case t.Is("if"):
		return p.parseIf()
	case t.Is("case") || t.Is("casez") || t.Is("casex"):
		return p.parseCase()
	case t.Is("for"):
		return p.parseFor()
	case t.Is(";"):
		p.advance()
		return &NullStmt{StmtPos: t.Pos}
	case t.Is("end"):
		p.errorf(diag.CatUnmatchedBeginEnd, t.Pos, "'end' without a matching 'begin'")
		p.advance()
		return &NullStmt{StmtPos: t.Pos}
	case t.Kind == TokDirective:
		p.errorf(diag.CatMisplacedDirective, t.Pos,
			"compiler directive `%s is not allowed inside an always block", t.Text)
		p.advance()
		return &NullStmt{StmtPos: t.Pos}
	default:
		return p.parseAssignStmt()
	}
}

// braceStartsAssignment looks ahead from a '{' at statement position and
// reports whether its matching '}' is directly followed by '=' or '<=',
// i.e. the brace opens a concatenation assignment target. It scans a
// copy of the lexer, so the parser's own position does not move.
func (p *Parser) braceStartsAssignment() bool {
	lx, t := p.lx, p.tok
	depth := 0
	for {
		switch {
		case t.Is("{"):
			depth++
		case t.Is("}"):
			depth--
			if depth == 0 {
				next := lx.Next()
				return next.Is("=") || next.Is("<=")
			}
		case t.Kind == TokEOF, t.Is("endmodule"), t.Is(";"):
			return false
		}
		t = lx.Next()
	}
}

// skipBraceBlock consumes a balanced {...} region after a C-style block
// error so recovery resumes at a sane point.
func (p *Parser) skipBraceBlock() {
	depth := 1
	for depth > 0 {
		t := p.cur()
		if t.Kind == TokEOF || t.Is("endmodule") {
			return
		}
		if t.Is("{") {
			depth++
		}
		if t.Is("}") {
			depth--
		}
		p.advance()
	}
}

func (p *Parser) parseBlock() Stmt {
	t := p.next() // 'begin'
	blk := &BlockStmt{BeginPos: t.Pos}
	if p.accept(":") {
		nameTok, _ := p.expectIdent("a block label")
		blk.Label = nameTok.Text
	}
	for {
		c := p.cur()
		switch {
		case c.Is("end"):
			p.advance()
			return blk
		case c.Kind == TokEOF:
			p.errorf(diag.CatUnmatchedBeginEnd, t.Pos,
				"'begin' at line %d has no matching 'end'", t.Pos.Line)
			return blk
		case c.Is("endmodule") || c.Is("module"):
			p.errorf(diag.CatUnmatchedBeginEnd, c.Pos,
				"'%s' reached while a 'begin' (line %d) is still open; missing 'end'",
				c.Text, t.Pos.Line)
			return blk
		case c.Is("integer") || c.Is("reg") || c.Is("int"):
			if d, ok := p.parseDecl().(*Decl); ok {
				blk.Decls = append(blk.Decls, d)
			}
		default:
			blk.Stmts = append(blk.Stmts, p.parseStmt())
		}
	}
}

func (p *Parser) parseIf() Stmt {
	t := p.next() // 'if'
	st := &IfStmt{IfPos: t.Pos}
	p.expect("(", diag.CatUnexpectedToken)
	st.Cond = p.parseExpr()
	p.expect(")", diag.CatUnexpectedToken)
	st.Then = p.parseStmt()
	if p.accept("else") {
		st.Else = p.parseStmt()
	}
	return st
}

func (p *Parser) parseCase() Stmt {
	t := p.next()
	st := &CaseStmt{CasePos: t.Pos}
	switch t.Text {
	case "casez":
		st.Kind = CaseZ
	case "casex":
		st.Kind = CaseX
	}
	p.expect("(", diag.CatUnexpectedToken)
	st.Subject = p.parseExpr()
	p.expect(")", diag.CatUnexpectedToken)
	for {
		c := p.cur()
		switch {
		case c.Is("endcase"):
			p.advance()
			return st
		case c.Kind == TokEOF || c.Is("endmodule"):
			p.errorf(diag.CatUnmatchedBeginEnd, t.Pos,
				"'case' at line %d has no matching 'endcase'", t.Pos.Line)
			return st
		case c.Is("default"):
			p.advance()
			p.accept(":")
			body := p.parseStmt()
			st.Items = append(st.Items, CaseItem{Body: body, ArmPos: c.Pos})
		default:
			item := CaseItem{ArmPos: c.Pos}
			for {
				item.Labels = append(item.Labels, p.parseExpr())
				if !p.accept(",") {
					break
				}
			}
			p.expect(":", diag.CatUnexpectedToken)
			item.Body = p.parseStmt()
			st.Items = append(st.Items, item)
		}
	}
}

func (p *Parser) parseFor() Stmt {
	t := p.next() // 'for'
	st := &ForStmt{ForPos: t.Pos}
	p.expect("(", diag.CatUnexpectedToken)

	// init: "i = 0" or "int i = 0" / "integer i = 0"
	if p.at("int") || p.at("integer") || p.at("genvar") {
		kw := p.next()
		nameTok, ok := p.expectIdent("a loop variable name")
		if ok {
			st.LoopVar = nameTok.Text
			st.LoopVarPos = kw.Pos
		}
		if p.expect("=", diag.CatUnexpectedToken) {
			init := p.parseExpr()
			st.Init = &AssignStmt{
				LHS:      &Ident{Name: st.LoopVar, NamePos: nameTok.Pos},
				RHS:      init,
				Blocking: true,
				StmtPos:  kw.Pos,
			}
		}
	} else {
		lhs := p.parseLValue()
		if p.expect("=", diag.CatUnexpectedToken) {
			st.Init = &AssignStmt{LHS: lhs, RHS: p.parseExpr(), Blocking: true, StmtPos: lhs.Pos()}
		}
	}
	p.expect(";", diag.CatMissingSemicolon)
	st.Cond = p.parseExpr()
	p.expect(";", diag.CatMissingSemicolon)

	// step: "i = i + 1", or the C idioms "i++" / "i += 1" which are
	// syntax errors in Verilog-2001.
	stepLHS := p.parseLValue()
	stepTok := p.cur()
	switch {
	case stepTok.Is("="):
		p.advance()
		st.Step = &AssignStmt{LHS: stepLHS, RHS: p.parseExpr(), Blocking: true, StmtPos: stepLHS.Pos()}
	case stepTok.Kind == TokOp && IsCStyleOp(stepTok.Text):
		p.errorf(diag.CatCStyleSyntax, stepTok.Pos,
			"'%s' is not a Verilog operator; use 'i = i + 1' style increments", stepTok.Text)
		p.advance()
		if !p.at(")") { // consume the operand of '+=' style forms
			p.parseExpr()
		}
		st.Step = &AssignStmt{
			LHS:      stepLHS,
			RHS:      &Binary{Op: "+", X: stepLHS, Y: &Number{Text: "1", NumPos: stepTok.Pos}, OpPos: stepTok.Pos},
			Blocking: true, StmtPos: stepLHS.Pos(),
		}
	default:
		p.errorf(diag.CatUnexpectedToken, stepTok.Pos,
			"expected assignment in for-loop step but found '%s'", tokenDesc(stepTok))
	}
	p.expect(")", diag.CatUnexpectedToken)
	st.Body = p.parseStmt()
	return st
}

func (p *Parser) parseAssignStmt() Stmt {
	lhs := p.parseLValue()
	t := p.cur()
	switch {
	case t.Is("="):
		p.advance()
		rhs := p.parseExpr()
		p.expect(";", diag.CatMissingSemicolon)
		return &AssignStmt{LHS: lhs, RHS: rhs, Blocking: true, StmtPos: lhs.Pos()}
	case t.Is("<="):
		p.advance()
		rhs := p.parseExpr()
		p.expect(";", diag.CatMissingSemicolon)
		return &AssignStmt{LHS: lhs, RHS: rhs, Blocking: false, StmtPos: lhs.Pos()}
	case t.Kind == TokOp && IsCStyleOp(t.Text):
		p.errorf(diag.CatCStyleSyntax, t.Pos,
			"'%s' is not a Verilog operator; expand it to a full assignment", t.Text)
		p.advance()
		var rhs Expr = &Number{Text: "1", NumPos: t.Pos}
		if !p.at(";") {
			rhs = p.parseExpr()
		}
		p.accept(";")
		op := "+"
		if t.Text == "--" || t.Text == "-=" {
			op = "-"
		}
		return &AssignStmt{
			LHS: lhs, RHS: &Binary{Op: op, X: lhs, Y: rhs, OpPos: t.Pos},
			Blocking: true, StmtPos: lhs.Pos(),
		}
	default:
		p.errorf(diag.CatUnexpectedToken, t.Pos,
			"expected '=' or '<=' after l-value but found '%s'", tokenDesc(t))
		p.syncTo(";", "end")
		p.accept(";")
		return &NullStmt{StmtPos: t.Pos}
	}
}

// parseLValue parses an assignment target: an identifier with optional
// bit/part selects, or a concatenation of such. It deliberately does not
// parse binary operators, so 'out <= in' is never misread as a comparison.
func (p *Parser) parseLValue() Expr {
	t := p.cur()
	if t.Is("{") {
		p.advance()
		c := &Concat{BracePos: t.Pos}
		if !p.enter() {
			return c
		}
		defer p.leave()
		for {
			c.Elems = append(c.Elems, p.parseLValue())
			if !p.accept(",") {
				break
			}
		}
		p.expect("}", diag.CatBadConcat)
		return c
	}
	nameTok, ok := p.expectIdent("an assignment target")
	if !ok {
		p.syncTo(";", "=", "end")
		return &Ident{Name: nameTok.Text, NamePos: nameTok.Pos}
	}
	return p.parseSelectSuffix(&Ident{Name: nameTok.Text, NamePos: nameTok.Pos})
}

// ---------- expressions ----------

// binaryPrec returns the precedence of op, higher binds tighter, 0 = not a
// binary operator.
func binaryPrec(op string) int {
	switch op {
	case "*", "/", "%":
		return 10
	case "+", "-":
		return 9
	case "<<", ">>", "<<<", ">>>":
		return 8
	case "<", "<=", ">", ">=":
		return 7
	case "==", "!=", "===", "!==":
		return 6
	case "&":
		return 5
	case "^", "~^", "^~":
		return 4
	case "|":
		return 3
	case "&&":
		return 2
	case "||":
		return 1
	}
	return 0
}

func (p *Parser) parseExpr() Expr {
	if !p.enter() {
		return &Number{Text: "0", NumPos: p.cur().Pos}
	}
	defer p.leave()
	return p.parseTernary()
}

func (p *Parser) parseTernary() Expr {
	cond := p.parseBinary(1)
	if p.at("?") {
		q := p.next()
		then := p.parseExpr()
		p.expect(":", diag.CatUnexpectedToken)
		els := p.parseExpr()
		return &Ternary{Cond: cond, Then: then, Else: els, QPos: q.Pos}
	}
	return cond
}

// parseBinary builds a chain of operators into a left-deep tree, one
// operator per turn. Each turn nests the tree one level deeper, so each
// counts as one level; the chain's levels are undone on return.
func (p *Parser) parseBinary(minPrec int) Expr {
	lhs := p.parseUnary()
	levels := 0
	for {
		t := p.cur()
		if t.Kind != TokOp {
			break
		}
		prec := binaryPrec(t.Text)
		if prec == 0 || prec < minPrec || !p.enter() {
			break
		}
		levels++
		p.advance()
		rhs := p.parseBinary(prec + 1)
		lhs = &Binary{Op: t.Text, X: lhs, Y: rhs, OpPos: t.Pos}
	}
	p.depth -= levels
	return lhs
}

func (p *Parser) parseUnary() Expr {
	t := p.cur()
	if t.Kind == TokOp {
		switch t.Text {
		case "~", "!", "-", "+", "&", "|", "^", "~&", "~|", "~^":
			p.advance()
			return &Unary{Op: t.Text, X: p.parseOperand(), OpPos: t.Pos}
		case "++", "--":
			p.errorf(diag.CatCStyleSyntax, t.Pos,
				"'%s' is not a Verilog operator", t.Text)
			p.advance()
			return p.parseOperand()
		}
	}
	return p.parsePrimary()
}

// parseOperand parses a unary operator's operand one level down.
func (p *Parser) parseOperand() Expr {
	if !p.enter() {
		return &Number{Text: "0", NumPos: p.cur().Pos}
	}
	defer p.leave()
	return p.parseUnary()
}

func (p *Parser) parsePrimary() Expr {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.advance()
		return &Number{Text: t.Text, NumPos: t.Pos}
	case t.Kind == TokIdent:
		p.advance()
		return p.parseSelectSuffix(&Ident{Name: t.Text, NamePos: t.Pos})
	case t.Is("("):
		p.advance()
		e := p.parseExpr()
		p.expect(")", diag.CatUnexpectedToken)
		return p.parseSelectSuffix(e)
	case t.Is("{"):
		return p.parseConcat()
	case t.Is("$"):
		return p.parseSystemCall()
	case t.Kind == TokError:
		p.errorf(t.Cat, t.Pos, "%s", t.Text)
		p.advance()
		return &Number{Text: "0", NumPos: t.Pos}
	case t.Kind == TokKeyword:
		p.errorf(diag.CatKeywordAsIdent, t.Pos,
			"'%s' is a reserved word and cannot be used in an expression", t.Text)
		p.advance()
		return &Ident{Name: t.Text, NamePos: t.Pos}
	default:
		p.errorf(diag.CatUnexpectedToken, t.Pos,
			"expected an expression but found '%s'", tokenDesc(t))
		p.advance()
		return &Number{Text: "0", NumPos: t.Pos}
	}
}

func (p *Parser) parseSelectSuffix(base Expr) Expr {
	for p.at("[") {
		lb := p.next()
		first := p.parseExpr()
		switch {
		case p.accept(":"):
			lo := p.parseExpr()
			p.expect("]", diag.CatUnexpectedToken)
			base = &Slice{X: base, Kind: SelectConst, Hi: first, Lo: lo, LbPos: lb.Pos}
		case p.accept("+:"):
			w := p.parseExpr()
			p.expect("]", diag.CatUnexpectedToken)
			base = &Slice{X: base, Kind: SelectPlus, Hi: first, Lo: w, LbPos: lb.Pos}
		case p.accept("-:"):
			w := p.parseExpr()
			p.expect("]", diag.CatUnexpectedToken)
			base = &Slice{X: base, Kind: SelectMinus, Hi: first, Lo: w, LbPos: lb.Pos}
		default:
			p.expect("]", diag.CatUnexpectedToken)
			base = &Index{X: base, Idx: first, LbPos: lb.Pos}
		}
	}
	return base
}

func (p *Parser) parseConcat() Expr {
	lb := p.next() // '{'
	if p.at("}") {
		p.errorf(diag.CatBadConcat, lb.Pos, "empty concatenation '{}'")
		p.advance()
		return &Concat{BracePos: lb.Pos}
	}
	first := p.parseExpr()
	// Replication: {N{expr}}
	if p.at("{") {
		p.advance()
		val := p.parseExpr()
		// multi-element replication body: {N{a, b}} is legal
		body := []Expr{val}
		for p.accept(",") {
			body = append(body, p.parseExpr())
		}
		p.expect("}", diag.CatBadConcat)
		p.expect("}", diag.CatBadConcat)
		var value Expr = body[0]
		if len(body) > 1 {
			value = &Concat{Elems: body, BracePos: lb.Pos}
		}
		return &Repl{Count: first, Value: value, BracePos: lb.Pos}
	}
	c := &Concat{Elems: []Expr{first}, BracePos: lb.Pos}
	for p.accept(",") {
		c.Elems = append(c.Elems, p.parseExpr())
	}
	p.expect("}", diag.CatBadConcat)
	return c
}

func (p *Parser) parseSystemCall() Expr {
	d := p.next() // '$'
	// System-function names may collide with reserved words ($signed).
	var nameTok Token
	if t := p.cur(); t.Kind == TokIdent || t.Kind == TokKeyword {
		nameTok = t
		p.advance()
	} else {
		nameTok, _ = p.expectIdent("a system function name")
	}
	call := &Call{Name: "$" + nameTok.Text, CallPos: d.Pos}
	if p.accept("(") {
		if !p.at(")") {
			for {
				call.Args = append(call.Args, p.parseExpr())
				if !p.accept(",") {
					break
				}
			}
		}
		p.expect(")", diag.CatUnexpectedToken)
	}
	return call
}
