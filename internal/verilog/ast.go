package verilog

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/diag"
)

// Node is implemented by every AST node.
type Node interface {
	Pos() diag.Pos
}

// SourceFile is a parsed Verilog source file.
type SourceFile struct {
	// Directives holds top-of-file compiler directives (`timescale ...),
	// which are legal there. Directives inside a module body are parse
	// errors and never reach the AST.
	Directives []Directive
	Modules    []*Module
}

// Directive is a backtick compiler directive.
type Directive struct {
	Name   string
	DirPos diag.Pos
}

// Pos returns the directive's position.
func (d Directive) Pos() diag.Pos { return d.DirPos }

// PortDir is a port direction.
type PortDir int

// Port directions.
const (
	DirNone PortDir = iota
	DirInput
	DirOutput
	DirInout
)

// String names the direction keyword.
func (d PortDir) String() string {
	switch d {
	case DirInput:
		return "input"
	case DirOutput:
		return "output"
	case DirInout:
		return "inout"
	}
	return "none"
}

// NetKind is the data kind of a declaration.
type NetKind int

// Net kinds.
const (
	KindNone NetKind = iota
	KindWire
	KindReg
	KindLogic
	KindInteger
	KindInt
	KindGenvar
)

// String names the kind keyword.
func (k NetKind) String() string {
	switch k {
	case KindWire:
		return "wire"
	case KindReg:
		return "reg"
	case KindLogic:
		return "logic"
	case KindInteger:
		return "integer"
	case KindInt:
		return "int"
	case KindGenvar:
		return "genvar"
	}
	return "none"
}

// IsVariable reports whether the kind is a variable (legal procedural
// assignment target). logic counts as a variable in the SV-flavoured mode.
func (k NetKind) IsVariable() bool {
	switch k {
	case KindReg, KindLogic, KindInteger, KindInt, KindGenvar:
		return true
	}
	return false
}

// Range is a vector range [MSB:LSB]. Both bounds must elaborate to
// constants.
type Range struct {
	MSB, LSB Expr
	RPos     diag.Pos
}

// Pos returns the range's position.
func (r *Range) Pos() diag.Pos { return r.RPos }

// Module is one module definition.
type Module struct {
	Name    string
	NamePos diag.Pos
	// Ports holds the header port declarations. For ANSI headers these
	// carry full direction/kind/range information; for non-ANSI headers
	// they carry only names (DirNone) and the body declarations fill in
	// the rest.
	Ports []*PortDecl
	Items []Item
	// Complete is false when the parser had to synthesize the module end
	// (missing endmodule).
	Complete bool
}

// Pos returns the module's position.
func (m *Module) Pos() diag.Pos { return m.NamePos }

// PortDecl is a port declaration, in the header or the body.
type PortDecl struct {
	Dir     PortDir
	Kind    NetKind // KindNone means plain wire
	Signed  bool
	VRange  *Range
	Name    string
	DeclPos diag.Pos
}

// Pos returns the declaration's position.
func (p *PortDecl) Pos() diag.Pos { return p.DeclPos }

// Item is a module-body item.
type Item interface {
	Node
	item()
}

// Decl declares nets or variables inside a module body.
type Decl struct {
	Kind    NetKind
	Signed  bool
	VRange  *Range
	Names   []DeclName
	DeclPos diag.Pos
}

// DeclName is one declared name with an optional initializer
// (wire x = a & b).
type DeclName struct {
	Name    string
	NamePos diag.Pos
	Init    Expr
}

func (d *Decl) item() {}

// Pos returns the declaration's position.
func (d *Decl) Pos() diag.Pos { return d.DeclPos }

// PortItem is a port declaration appearing in the module body (non-ANSI
// style).
type PortItem struct {
	PortDecl
}

func (p *PortItem) item() {}

// ParamDecl declares parameters or localparams.
type ParamDecl struct {
	Local   bool
	VRange  *Range
	Names   []DeclName
	DeclPos diag.Pos
}

func (p *ParamDecl) item() {}

// Pos returns the declaration's position.
func (p *ParamDecl) Pos() diag.Pos { return p.DeclPos }

// AssignItem is a continuous assignment.
type AssignItem struct {
	LHS       Expr
	RHS       Expr
	AssignPos diag.Pos
}

func (a *AssignItem) item() {}

// Pos returns the assignment's position.
func (a *AssignItem) Pos() diag.Pos { return a.AssignPos }

// EventEdge is an edge specifier in a sensitivity list.
type EventEdge int

// Edge specifiers.
const (
	EdgeNone EventEdge = iota // level-sensitive (combinational)
	EdgePos
	EdgeNeg
)

// String names the edge keyword.
func (e EventEdge) String() string {
	switch e {
	case EdgePos:
		return "posedge"
	case EdgeNeg:
		return "negedge"
	}
	return ""
}

// EventExpr is one entry in a sensitivity list.
type EventExpr struct {
	Edge   EventEdge
	Signal Expr
}

// AlwaysBlock is an always process. Star is true for always @(*) or
// always @* forms.
type AlwaysBlock struct {
	Star      bool
	Events    []EventExpr
	Body      Stmt
	AlwaysPos diag.Pos
}

func (a *AlwaysBlock) item() {}

// Pos returns the block's position.
func (a *AlwaysBlock) Pos() diag.Pos { return a.AlwaysPos }

// IsClocked reports whether any sensitivity entry has an edge.
func (a *AlwaysBlock) IsClocked() bool {
	for _, e := range a.Events {
		if e.Edge != EdgeNone {
			return true
		}
	}
	return false
}

// InitialBlock is an initial process (accepted, ignored in synthesis-style
// simulation except for constant reg initialization).
type InitialBlock struct {
	Body    Stmt
	InitPos diag.Pos
}

func (i *InitialBlock) item() {}

// Pos returns the block's position.
func (i *InitialBlock) Pos() diag.Pos { return i.InitPos }

// Stmt is a procedural statement.
type Stmt interface {
	Node
	stmt()
}

// BlockStmt is begin ... end, optionally named, optionally declaring local
// variables (begin : name integer i; ... end).
type BlockStmt struct {
	Label    string
	Decls    []*Decl
	Stmts    []Stmt
	BeginPos diag.Pos
}

func (b *BlockStmt) stmt() {}

// Pos returns the block's position.
func (b *BlockStmt) Pos() diag.Pos { return b.BeginPos }

// AssignStmt is a procedural assignment, blocking (=) or non-blocking (<=).
type AssignStmt struct {
	LHS      Expr
	RHS      Expr
	Blocking bool
	StmtPos  diag.Pos
}

func (a *AssignStmt) stmt() {}

// Pos returns the statement's position.
func (a *AssignStmt) Pos() diag.Pos { return a.StmtPos }

// IfStmt is if/else.
type IfStmt struct {
	Cond  Expr
	Then  Stmt
	Else  Stmt // may be nil
	IfPos diag.Pos
}

func (i *IfStmt) stmt() {}

// Pos returns the statement's position.
func (i *IfStmt) Pos() diag.Pos { return i.IfPos }

// CaseKind distinguishes case/casez/casex.
type CaseKind int

// Case kinds.
const (
	CasePlain CaseKind = iota
	CaseZ
	CaseX
)

// String names the case keyword.
func (k CaseKind) String() string {
	switch k {
	case CaseZ:
		return "casez"
	case CaseX:
		return "casex"
	}
	return "case"
}

// CaseItem is one arm of a case statement. A nil Labels slice marks the
// default arm.
type CaseItem struct {
	Labels []Expr
	Body   Stmt
	ArmPos diag.Pos
}

// CaseStmt is a case statement.
type CaseStmt struct {
	Kind    CaseKind
	Subject Expr
	Items   []CaseItem
	CasePos diag.Pos
}

func (c *CaseStmt) stmt() {}

// Pos returns the statement's position.
func (c *CaseStmt) Pos() diag.Pos { return c.CasePos }

// ForStmt is a for loop. LoopVar is non-empty when the init clause declares
// its variable inline (for (int i = 0; ...)), SV style.
type ForStmt struct {
	LoopVar    string // "" when init assigns an existing variable
	LoopVarPos diag.Pos
	Init       *AssignStmt
	Cond       Expr
	Step       *AssignStmt
	Body       Stmt
	ForPos     diag.Pos
}

func (f *ForStmt) stmt() {}

// Pos returns the statement's position.
func (f *ForStmt) Pos() diag.Pos { return f.ForPos }

// NullStmt is a lone semicolon.
type NullStmt struct {
	StmtPos diag.Pos
}

func (n *NullStmt) stmt() {}

// Pos returns the statement's position.
func (n *NullStmt) Pos() diag.Pos { return n.StmtPos }

// Expr is an expression.
type Expr interface {
	Node
	expr()
}

// Ident is an identifier reference.
type Ident struct {
	Name    string
	NamePos diag.Pos
}

func (i *Ident) expr() {}

// Pos returns the identifier's position.
func (i *Ident) Pos() diag.Pos { return i.NamePos }

// Number is an integer literal. Text preserves the source spelling
// (normalized to lowercase base letter).
type Number struct {
	Text   string
	NumPos diag.Pos
}

func (n *Number) expr() {}

// Pos returns the literal's position.
func (n *Number) Pos() diag.Pos { return n.NumPos }

// MaxLiteralBits bounds a sized literal's width as sema.MaxSignalBits
// bounds a declaration's: `2000000000'd0` is an error, not a 250 MB
// vector that every evaluation of it allocates again.
const MaxLiteralBits = 1 << 16

// Value decodes the literal into a bit vector. Unsized literals get width
// 32, per the Verilog LRM's minimum integer width. x/z/? digits decode as 0
// in this two-state evaluator.
func (n *Number) Value() (bitvec.Vec, error) {
	text := strings.ReplaceAll(n.Text, "_", "")
	tick := strings.IndexByte(text, '\'')
	if tick < 0 {
		v, err := strconv.ParseUint(text, 10, 64)
		if err != nil {
			return bitvec.Vec{}, fmt.Errorf("bad decimal literal %q", n.Text)
		}
		return bitvec.FromUint64(32, v), nil
	}
	width := 32
	if tick > 0 {
		w, err := strconv.Atoi(text[:tick])
		if err != nil || w <= 0 {
			return bitvec.Vec{}, fmt.Errorf("bad literal size in %q", n.Text)
		}
		if w > MaxLiteralBits {
			return bitvec.Vec{}, fmt.Errorf("literal size %d is over the limit of %d bits", w, MaxLiteralBits)
		}
		width = w
	}
	rest := text[tick+1:]
	if rest == "" {
		return bitvec.Vec{}, fmt.Errorf("bad literal %q", n.Text)
	}
	base := rest[0]
	digits := rest[1:]
	var bitsPerDigit int
	switch base {
	case 'b':
		bitsPerDigit = 1
	case 'o':
		bitsPerDigit = 3
	case 'h':
		bitsPerDigit = 4
	case 'd':
		v, err := strconv.ParseUint(digits, 10, 64)
		if err != nil {
			return bitvec.Vec{}, fmt.Errorf("bad decimal digits in %q", n.Text)
		}
		return bitvec.FromUint64(width, v), nil
	default:
		return bitvec.Vec{}, fmt.Errorf("bad base %q in %q", string(base), n.Text)
	}
	out := bitvec.New(width)
	for i := 0; i < len(digits); i++ {
		c := digits[len(digits)-1-i]
		var dv uint64
		switch {
		case c >= '0' && c <= '9':
			dv = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			dv = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			dv = uint64(c-'A') + 10
		case c == 'x' || c == 'z' || c == 'X' || c == 'Z' || c == '?':
			dv = 0
		default:
			return bitvec.Vec{}, fmt.Errorf("bad digit %q in %q", string(c), n.Text)
		}
		for b := 0; b < bitsPerDigit; b++ {
			if dv>>b&1 == 1 {
				idx := i*bitsPerDigit + b
				if idx < width {
					out = out.SetBit(idx, true)
				}
			}
		}
	}
	return out, nil
}

// WildcardMask decodes the literal and additionally returns a care mask:
// bit i of the mask is 0 when the source digit at that position was z or ?
// (and x too, when includeX is set) — the don't-care positions of
// casez/casex label matching. For literals without wildcards the mask is
// all ones.
func (n *Number) WildcardMask(includeX bool) (val, care bitvec.Vec, err error) {
	val, err = n.Value()
	if err != nil {
		return bitvec.Vec{}, bitvec.Vec{}, err
	}
	care = bitvec.New(val.Width()).Not() // all ones
	text := strings.ReplaceAll(n.Text, "_", "")
	tick := strings.IndexByte(text, '\'')
	if tick < 0 {
		return val, care, nil
	}
	rest := text[tick+1:]
	if rest == "" {
		return val, care, nil
	}
	base := rest[0]
	digits := rest[1:]
	var bitsPerDigit int
	switch base {
	case 'b':
		bitsPerDigit = 1
	case 'o':
		bitsPerDigit = 3
	case 'h':
		bitsPerDigit = 4
	default:
		return val, care, nil // decimal literals carry no wildcards
	}
	for i := 0; i < len(digits); i++ {
		c := digits[len(digits)-1-i]
		wild := c == 'z' || c == 'Z' || c == '?'
		if includeX && (c == 'x' || c == 'X') {
			wild = true
		}
		if !wild {
			continue
		}
		for b := 0; b < bitsPerDigit; b++ {
			idx := i*bitsPerDigit + b
			if idx < care.Width() {
				care = care.SetBit(idx, false)
			}
		}
	}
	return val, care, nil
}

// Unary is a unary operation: ~ ! - + & | ^ ~& ~| ~^.
type Unary struct {
	Op    string
	X     Expr
	OpPos diag.Pos
}

func (u *Unary) expr() {}

// Pos returns the operator's position.
func (u *Unary) Pos() diag.Pos { return u.OpPos }

// Binary is a binary operation.
type Binary struct {
	Op    string
	X, Y  Expr
	OpPos diag.Pos
}

func (b *Binary) expr() {}

// Pos returns the operator's position.
func (b *Binary) Pos() diag.Pos { return b.OpPos }

// Ternary is cond ? a : b.
type Ternary struct {
	Cond, Then, Else Expr
	QPos             diag.Pos
}

func (t *Ternary) expr() {}

// Pos returns the '?' position.
func (t *Ternary) Pos() diag.Pos { return t.QPos }

// Concat is {a, b, c}.
type Concat struct {
	Elems    []Expr
	BracePos diag.Pos
}

func (c *Concat) expr() {}

// Pos returns the opening brace's position.
func (c *Concat) Pos() diag.Pos { return c.BracePos }

// Repl is a replication {N{expr}}.
type Repl struct {
	Count    Expr
	Value    Expr
	BracePos diag.Pos
}

func (r *Repl) expr() {}

// Pos returns the opening brace's position.
func (r *Repl) Pos() diag.Pos { return r.BracePos }

// Index is a bit-select x[i].
type Index struct {
	X     Expr
	Idx   Expr
	LbPos diag.Pos
}

func (i *Index) expr() {}

// Pos returns the '[' position.
func (i *Index) Pos() diag.Pos { return i.LbPos }

// PartSelectKind distinguishes constant ([h:l]) and indexed (+:/-:) part
// selects.
type PartSelectKind int

// Part-select kinds.
const (
	SelectConst PartSelectKind = iota
	SelectPlus                 // [base +: width]
	SelectMinus                // [base -: width]
)

// Slice is a part-select x[hi:lo], x[base +: w], or x[base -: w].
type Slice struct {
	X      Expr
	Kind   PartSelectKind
	Hi, Lo Expr // for SelectConst; for indexed selects Hi=base, Lo=width
	LbPos  diag.Pos
}

func (s *Slice) expr() {}

// Pos returns the '[' position.
func (s *Slice) Pos() diag.Pos { return s.LbPos }

// Call is a system-function call such as $signed(x) or $clog2(n).
type Call struct {
	Name    string
	Args    []Expr
	CallPos diag.Pos
}

func (c *Call) expr() {}

// Pos returns the call's position.
func (c *Call) Pos() diag.Pos { return c.CallPos }

// WalkExprs calls fn for e and every sub-expression, pre-order.
func WalkExprs(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Unary:
		WalkExprs(x.X, fn)
	case *Binary:
		WalkExprs(x.X, fn)
		WalkExprs(x.Y, fn)
	case *Ternary:
		WalkExprs(x.Cond, fn)
		WalkExprs(x.Then, fn)
		WalkExprs(x.Else, fn)
	case *Concat:
		for _, el := range x.Elems {
			WalkExprs(el, fn)
		}
	case *Repl:
		WalkExprs(x.Count, fn)
		WalkExprs(x.Value, fn)
	case *Index:
		WalkExprs(x.X, fn)
		WalkExprs(x.Idx, fn)
	case *Slice:
		WalkExprs(x.X, fn)
		WalkExprs(x.Hi, fn)
		WalkExprs(x.Lo, fn)
	case *Call:
		for _, a := range x.Args {
			WalkExprs(a, fn)
		}
	}
}

// LHSBases lists the root signal names an l-value writes, in syntactic
// order: the base of every bit- and part-select, through concatenations.
func LHSBases(lhs Expr) []string {
	switch x := lhs.(type) {
	case *Ident:
		return []string{x.Name}
	case *Index:
		return LHSBases(x.X)
	case *Slice:
		return LHSBases(x.X)
	case *Concat:
		var out []string
		for _, el := range x.Elems {
			out = append(out, LHSBases(el)...)
		}
		return out
	}
	return nil
}

// WalkStmts calls fn for s and every sub-statement, pre-order.
func WalkStmts(s Stmt, fn func(Stmt)) {
	if s == nil {
		return
	}
	fn(s)
	switch x := s.(type) {
	case *BlockStmt:
		for _, sub := range x.Stmts {
			WalkStmts(sub, fn)
		}
	case *IfStmt:
		WalkStmts(x.Then, fn)
		WalkStmts(x.Else, fn)
	case *CaseStmt:
		for _, item := range x.Items {
			WalkStmts(item.Body, fn)
		}
	case *ForStmt:
		WalkStmts(x.Body, fn)
	}
}
