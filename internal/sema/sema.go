// Package sema elaborates a parsed Verilog module: it builds the symbol
// table, folds constant expressions, and runs the semantic checks whose
// failures make up the bulk of the RTLFixer error taxonomy — undeclared
// identifiers (the paper's 'clk' example), constant indices outside a
// declared range (the paper's Fig. 6 failure case), procedural assignments
// to nets ("not a valid l-value"), continuous assignments to regs, port
// mismatches, and duplicate declarations.
//
// Elaboration only runs when parsing produced no errors, mirroring real
// compilers: a parse error masks the semantic errors behind it, which is
// exactly the cascade behaviour that makes iterative (ReAct) debugging
// outperform one-shot fixes.
package sema

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/diag"
	"repro/internal/verilog"
)

// Signal is one elaborated net, variable, or port.
type Signal struct {
	Name   string
	Dir    verilog.PortDir // DirNone for internal signals
	Kind   verilog.NetKind // KindNone means plain wire
	Signed bool
	// MSB/LSB are the declared bounds; for scalars both are 0.
	MSB, LSB int
	Pos      diag.Pos
	// Init is the declaration initializer, if any (wire x = a & b).
	Init verilog.Expr
}

// Width returns the signal's width in bits.
func (s *Signal) Width() int { return rangeWidth(s.MSB, s.LSB) }

// rangeWidth is the width in bits of the range [msb:lsb].
func rangeWidth(msb, lsb int) int {
	d := msb - lsb
	if d < 0 {
		d = -d
	}
	return d + 1
}

// InRange reports whether a constant bit index is inside the declared
// range.
func (s *Signal) InRange(idx int) bool {
	lo, hi := s.LSB, s.MSB
	if lo > hi {
		lo, hi = hi, lo
	}
	return idx >= lo && idx <= hi
}

// IsVariable reports whether the signal may be a procedural assignment
// target.
func (s *Signal) IsVariable() bool { return s.Kind.IsVariable() }

// Design is the elaborated form of a single module.
type Design struct {
	Module  *verilog.Module
	Signals map[string]*Signal
	// PortOrder lists port names in header order.
	PortOrder []string
	// Params maps parameter/localparam names to their folded values.
	Params map[string]bitvec.Vec
}

// Signal returns the named signal or nil.
func (d *Design) Signal(name string) *Signal { return d.Signals[name] }

// Inputs returns the input port signals in header order.
func (d *Design) Inputs() []*Signal { return d.portsByDir(verilog.DirInput) }

// Outputs returns the output port signals in header order.
func (d *Design) Outputs() []*Signal { return d.portsByDir(verilog.DirOutput) }

func (d *Design) portsByDir(dir verilog.PortDir) []*Signal {
	var out []*Signal
	for _, name := range d.PortOrder {
		if s := d.Signals[name]; s != nil && s.Dir == dir {
			out = append(out, s)
		}
	}
	return out
}

// MaxSignalBits bounds the state one declared signal may hold: its width
// times its array depth (the supported subset declares no arrays, so the
// depth is 1). IEEE 1364-2005 §4.3.1 lets an implementation limit vector
// width provided the limit is at least 2^16 bits; this frontend takes
// exactly that, so one untrusted declaration cannot make the simulator
// or its observers allocate gigabytes. A wider range is a
// diag.CatResourceLimit error.
const MaxSignalBits = 1 << 16

// MaxDesignBits bounds the state one design may declare: the sum of its
// module-level signal widths. MaxSignalBits alone lets 2^16-bit
// declarations add up to about a gigabyte inside one 1 MiB request;
// 2^20 bits (128 KiB) is over 3000 times the widest benchmark reference
// (301 bits). A larger sum is a diag.CatResourceLimit error.
const MaxDesignBits = 1 << 20

// ParseAndElaborate is the one frontend pass behind the compiler
// personas and the semantic analyzer. It parses src and, only when the
// parse is clean, elaborates it: parse errors mask the elaboration errors
// behind them, as in real compilers. The design is returned even when
// elaboration reports errors (the analyzer runs on such best-effort
// designs); it is nil when parsing failed or the source declares no
// module. The diagnostics are sorted by position (deduplicated when
// elaboration ran) in a slice the caller owns.
func ParseAndElaborate(src string) (*verilog.SourceFile, *Design, diag.List) {
	file, parseDiags := verilog.Parse(src)
	if parseDiags.HasErrors() {
		parseDiags.SortByPos()
		return file, nil, parseDiags
	}
	design, semaDiags := Elaborate(file)
	// Copy into a fresh slice: append(parseDiags, ...) may share
	// parseDiags' backing array, which SortByPos would then mutate under
	// any caller still holding the parse diagnostics.
	all := make(diag.List, 0, len(parseDiags)+len(semaDiags))
	all = append(all, parseDiags...)
	all = append(all, semaDiags...)
	all = all.Dedupe()
	all.SortByPos()
	return file, design, all
}

// Elaborate elaborates the first module of the file and runs all semantic
// checks. The returned Design is nil when the file declares no module.
func Elaborate(file *verilog.SourceFile) (*Design, diag.List) {
	var diags diag.List
	if len(file.Modules) == 0 {
		diags.Add(diag.Errorf(diag.CatModuleStructure, diag.Pos{Line: 1},
			"source contains no module definition"))
		return nil, diags
	}
	if len(file.Modules) > 1 {
		m := file.Modules[1]
		diags.Add(diag.Errorf(diag.CatModuleStructure, m.Pos(),
			"multiple module definitions; expected exactly one (found '%s')", m.Name))
	}
	e := &elaborator{
		diags: diags,
		design: &Design{
			Module:  file.Modules[0],
			Signals: map[string]*Signal{},
			Params:  map[string]bitvec.Vec{},
		},
	}
	e.run()
	return e.design, e.diags
}

type elaborator struct {
	design *Design
	diags  diag.List
	// locals tracks block-scoped declarations (loop variables, block
	// integers) currently visible, by name.
	locals map[string]*Signal
	// unknownParams names parameters declared without a constant value.
	// Their own error is reported once; their uses resolve (no
	// undeclared-identifier error, not assignable) but have no value or
	// width.
	unknownParams map[string]bool
}

func (e *elaborator) errorf(cat diag.Category, pos diag.Pos, sym, suggestion, format string, args ...any) {
	d := diag.Errorf(cat, pos, format, args...)
	d.Symbol = sym
	d.Suggestion = suggestion
	e.diags.Add(d)
}

func (e *elaborator) warnf(cat diag.Category, pos diag.Pos, sym, format string, args ...any) {
	d := diag.Warningf(cat, pos, format, args...)
	d.Symbol = sym
	e.diags.Add(d)
}

func (e *elaborator) run() {
	m := e.design.Module
	e.collectParams(m)
	e.collectSignals(m)
	e.checkDesignBits(m)
	e.checkPorts(m)
	e.checkDrivers(m)
	for _, item := range m.Items {
		switch it := item.(type) {
		case *verilog.AssignItem:
			e.checkContinuousAssign(it)
		case *verilog.AlwaysBlock:
			e.checkAlways(it)
		case *verilog.InitialBlock:
			e.checkStmt(it.Body, procCtx{})
		case *verilog.Decl:
			for _, dn := range it.Names {
				if dn.Init != nil {
					e.checkExpr(dn.Init)
				}
			}
		}
	}
}

// ---------- symbol collection ----------

func (e *elaborator) collectParams(m *verilog.Module) {
	for _, item := range m.Items {
		pd, ok := item.(*verilog.ParamDecl)
		if !ok {
			continue
		}
		for _, dn := range pd.Names {
			if dn.Init == nil {
				e.errorf(diag.CatNonConstantExpr, dn.NamePos, dn.Name, "",
					"parameter '%s' has no value", dn.Name)
				e.declareUnknownParam(dn.Name)
				continue
			}
			v, ok := e.design.constValue(dn.Init)
			if !ok {
				e.errorf(diag.CatNonConstantExpr, dn.NamePos, dn.Name,
					"Parameter values must be constant expressions.",
					"parameter '%s' is not a constant expression", dn.Name)
				e.declareUnknownParam(dn.Name)
				continue
			}
			if e.isParam(dn.Name) {
				e.errorf(diag.CatDuplicateDecl, dn.NamePos, dn.Name, "",
					"parameter '%s' is already declared", dn.Name)
				continue
			}
			e.design.Params[dn.Name] = v
		}
	}
}

// declareUnknownParam records a parameter whose value is already
// reported as missing or not constant, so its uses add no second error.
func (e *elaborator) declareUnknownParam(name string) {
	if e.isParam(name) {
		return
	}
	if e.unknownParams == nil {
		e.unknownParams = map[string]bool{}
	}
	e.unknownParams[name] = true
}

// isParam reports whether name is a declared parameter, valued or not.
func (e *elaborator) isParam(name string) bool {
	_, ok := e.design.Params[name]
	return ok || e.unknownParams[name]
}

func (e *elaborator) declare(s *Signal) {
	if prev, ok := e.design.Signals[s.Name]; ok {
		// Merging rules: a header port may be completed by a body
		// declaration (non-ANSI style, or 'output [7:0] out' + 'reg
		// [7:0] out'). Everything else is a duplicate.
		if prev.Dir != verilog.DirNone && s.Dir == verilog.DirNone && prev.Kind == verilog.KindNone {
			if s.Width() != prev.Width() && s.MSB != 0 {
				e.errorf(diag.CatPortMismatch, s.Pos, s.Name,
					"Make the port and net declarations use the same range.",
					"declaration of '%s' as [%d:%d] conflicts with port range [%d:%d]",
					s.Name, s.MSB, s.LSB, prev.MSB, prev.LSB)
				return
			}
			prev.Kind = s.Kind
			prev.Init = s.Init
			return
		}
		if prev.Dir == verilog.DirNone && prev.Kind == verilog.KindNone && s.Dir != verilog.DirNone {
			// non-ANSI header name completed by a body port item
			prev.Dir = s.Dir
			prev.Kind = s.Kind
			prev.MSB, prev.LSB = s.MSB, s.LSB
			return
		}
		e.errorf(diag.CatDuplicateDecl, s.Pos, s.Name,
			"Remove or rename one of the declarations.",
			"'%s' is already declared at line %d", s.Name, prev.Pos.Line)
		return
	}
	e.design.Signals[s.Name] = s
}

func (e *elaborator) rangeBounds(r *verilog.Range, kind verilog.NetKind) (msb, lsb int) {
	if r == nil {
		if kind == verilog.KindInteger || kind == verilog.KindInt {
			return 31, 0
		}
		return 0, 0
	}
	m, okM := e.design.ConstInt(r.MSB)
	l, okL := e.design.ConstInt(r.LSB)
	if !okM || !okL {
		e.errorf(diag.CatNonConstantExpr, r.Pos(), "",
			"Range bounds must be constant expressions.",
			"vector range bounds must be constant")
		return 0, 0
	}
	if w := rangeWidth(m, l); w > MaxSignalBits {
		e.errorf(diag.CatResourceLimit, r.Pos(), "",
			fmt.Sprintf("Declare at most %d bits per signal.", MaxSignalBits),
			"vector range [%d:%d] is %d bits wide, over the limit of %d bits per signal",
			m, l, w, MaxSignalBits)
	}
	return m, l
}

func (e *elaborator) collectSignals(m *verilog.Module) {
	for _, pd := range m.Ports {
		msb, lsb := e.rangeBounds(pd.VRange, pd.Kind)
		e.declare(&Signal{
			Name: pd.Name, Dir: pd.Dir, Kind: pd.Kind, Signed: pd.Signed,
			MSB: msb, LSB: lsb, Pos: pd.Pos(),
		})
		e.design.PortOrder = append(e.design.PortOrder, pd.Name)
	}
	for _, item := range m.Items {
		switch it := item.(type) {
		case *verilog.PortItem:
			msb, lsb := e.rangeBounds(it.VRange, it.Kind)
			e.declare(&Signal{
				Name: it.Name, Dir: it.Dir, Kind: it.Kind, Signed: it.Signed,
				MSB: msb, LSB: lsb, Pos: it.Pos(),
			})
		case *verilog.Decl:
			msb, lsb := e.rangeBounds(it.VRange, it.Kind)
			for _, dn := range it.Names {
				e.declare(&Signal{
					Name: dn.Name, Kind: it.Kind, Signed: it.Signed,
					MSB: msb, LSB: lsb, Pos: dn.NamePos, Init: dn.Init,
				})
			}
		}
	}
}

// checkDesignBits reports a design whose signals together declare more
// than MaxDesignBits of state, at the module header. A signal over
// MaxSignalBits is already refused on its own and is not counted again.
func (e *elaborator) checkDesignBits(m *verilog.Module) {
	total := 0
	for _, s := range e.design.Signals {
		if w := s.Width(); w <= MaxSignalBits {
			total += w
		}
	}
	if total > MaxDesignBits {
		e.errorf(diag.CatResourceLimit, m.Pos(), m.Name,
			fmt.Sprintf("Declare at most %d bits of signals per module.", MaxDesignBits),
			"module '%s' declares %d bits of signal state, over the limit of %d bits per design",
			m.Name, total, MaxDesignBits)
	}
}

func (e *elaborator) checkPorts(m *verilog.Module) {
	// Non-ANSI header names must get a direction from the body.
	for _, pd := range m.Ports {
		if pd.Dir != verilog.DirNone {
			continue
		}
		s := e.design.Signals[pd.Name]
		if s == nil || s.Dir == verilog.DirNone {
			e.errorf(diag.CatPortMismatch, pd.Pos(), pd.Name,
				fmt.Sprintf("Add a direction declaration such as 'input %s;' or 'output %s;' in the module body.", pd.Name, pd.Name),
				"port '%s' appears in the port list but has no direction declaration", pd.Name)
		}
	}
	// Body port items must appear in the header list.
	inHeader := map[string]bool{}
	for _, pd := range m.Ports {
		inHeader[pd.Name] = true
	}
	for _, item := range m.Items {
		if pi, ok := item.(*verilog.PortItem); ok && !inHeader[pi.Name] {
			e.errorf(diag.CatPortMismatch, pi.Pos(), pi.Name,
				fmt.Sprintf("Add '%s' to the module's port list.", pi.Name),
				"'%s' is declared as a port but does not appear in the module port list", pi.Name)
		}
	}
}

// checkDrivers warns when a signal has more than one driver: two
// continuous assignments, or a continuous assignment plus an always
// block. Both reference compilers flag this; it stays warning-level here
// because two-state simulation still resolves deterministically.
func (e *elaborator) checkDrivers(m *verilog.Module) {
	// Every drive site is recorded so the diagnostic can point at each
	// offender: Pos is the first site, Related the remaining ones.
	// The name slices keep first-drive order, so same-position warnings
	// (one assign driving a concatenation) come out in a fixed order
	// rather than in map iteration order.
	assignSites := map[string][]diag.Pos{}
	alwaysSites := map[string][]diag.Pos{}
	var assignNames, alwaysNames []string

	for _, item := range m.Items {
		switch it := item.(type) {
		case *verilog.AssignItem:
			for _, name := range verilog.LHSBases(it.LHS) {
				if assignSites[name] == nil {
					assignNames = append(assignNames, name)
				}
				assignSites[name] = append(assignSites[name], it.Pos())
			}
		case *verilog.AlwaysBlock:
			seen := map[string]bool{}
			verilog.WalkStmts(it.Body, func(s verilog.Stmt) {
				as, ok := s.(*verilog.AssignStmt)
				if !ok {
					return
				}
				for _, name := range verilog.LHSBases(as.LHS) {
					if !seen[name] {
						seen[name] = true
						if alwaysSites[name] == nil {
							alwaysNames = append(alwaysNames, name)
						}
						alwaysSites[name] = append(alwaysSites[name], as.Pos())
					}
				}
			})
		}
	}
	warn := func(sites []diag.Pos, name, format string, args ...any) {
		d := diag.Warningf(diag.CatMultipleDrivers, sites[0], format, args...)
		d.Symbol = name
		if len(sites) > 1 {
			d.Related = append([]diag.Pos(nil), sites[1:]...)
		}
		e.diags.Add(d)
	}
	for _, name := range assignNames {
		sites := assignSites[name]
		// Bit/part-select assigns of disjoint slices are a legitimate
		// idiom only within always blocks; two whole-signal continuous
		// drivers are flagged regardless.
		if len(sites) > 1 {
			warn(sites, name, "'%s' is driven by %d continuous assignments", name, len(sites))
		}
		if aw := alwaysSites[name]; len(aw) > 0 {
			warn(append(append([]diag.Pos(nil), sites[0]), aw...), name,
				"'%s' is driven by both a continuous assignment and an always block", name)
		}
	}
	for _, name := range alwaysNames {
		if sites := alwaysSites[name]; len(sites) > 1 {
			warn(sites, name, "'%s' is driven from %d always blocks", name, len(sites))
		}
	}
}

// ---------- expression checking ----------

// lookup resolves a name against the elaborator's block locals, then
// the module scope.
func (e *elaborator) lookup(name string) *Signal { return e.design.lookup(name, e.locals) }

// lookup resolves a name against locals (nil at module scope), params,
// then module signals.
func (d *Design) lookup(name string, locals map[string]*Signal) *Signal {
	if s, ok := locals[name]; ok {
		return s
	}
	if _, ok := d.Params[name]; ok {
		// Parameters behave as constants; model as a 32-bit signal for
		// range purposes.
		return &Signal{Name: name, MSB: 31, LSB: 0}
	}
	return d.Signals[name]
}

func (e *elaborator) checkExpr(expr verilog.Expr) {
	verilog.WalkExprs(expr, func(x verilog.Expr) {
		switch n := x.(type) {
		case *verilog.Ident:
			if e.lookup(n.Name) == nil && !e.unknownParams[n.Name] {
				e.errorf(diag.CatUndeclaredIdent, n.Pos(), n.Name,
					"Verify the object name is correct. If the name is correct, declare the object.",
					"object \"%s\" is not declared", n.Name)
			}
		case *verilog.Index:
			e.checkIndex(n)
		case *verilog.Slice:
			e.checkSlice(n)
		case *verilog.Number:
			if _, err := n.Value(); err != nil {
				e.errorf(diag.CatMalformedLiteral, n.Pos(), n.Text, "",
					"invalid literal '%s': %v", n.Text, err)
			}
		}
	})
}

func (e *elaborator) baseSignal(x verilog.Expr) *Signal {
	id, ok := x.(*verilog.Ident)
	if !ok {
		return nil
	}
	return e.lookup(id.Name)
}

func (e *elaborator) checkIndex(n *verilog.Index) {
	sig := e.baseSignal(n.X)
	if sig == nil {
		return // undeclared base reported separately
	}
	idx, ok := e.design.ConstInt(n.Idx)
	if !ok {
		return // dynamic index: legal, checked at runtime by the simulator
	}
	if !sig.InRange(idx) {
		e.errorf(diag.CatIndexOutOfRange, n.Pos(), sig.Name,
			fmt.Sprintf("Keep indices of '%s' within [%d:%d].", sig.Name, sig.MSB, sig.LSB),
			"index %d cannot fall outside the declared range [%d:%d] for vector '%s'",
			idx, sig.MSB, sig.LSB, sig.Name)
	}
}

func (e *elaborator) checkSlice(n *verilog.Slice) {
	sig := e.baseSignal(n.X)
	if sig == nil {
		return
	}
	switch n.Kind {
	case verilog.SelectConst:
		hi, okH := e.design.ConstInt(n.Hi)
		lo, okL := e.design.ConstInt(n.Lo)
		if !okH || !okL {
			e.errorf(diag.CatNonConstantExpr, n.Pos(), sig.Name,
				"Part-select bounds must be constant; use an indexed part-select '[base +: width]' for variable bases.",
				"part-select bounds of '%s' must be constant", sig.Name)
			return
		}
		if !sig.InRange(hi) || !sig.InRange(lo) {
			e.errorf(diag.CatIndexOutOfRange, n.Pos(), sig.Name,
				fmt.Sprintf("Keep part-selects of '%s' within [%d:%d].", sig.Name, sig.MSB, sig.LSB),
				"part-select [%d:%d] is outside the declared range [%d:%d] for vector '%s'",
				hi, lo, sig.MSB, sig.LSB, sig.Name)
			return
		}
		if (sig.MSB >= sig.LSB) != (hi >= lo) {
			e.errorf(diag.CatIndexOutOfRange, n.Pos(), sig.Name,
				"Match the part-select direction to the declaration.",
				"part-select [%d:%d] is reversed with respect to the declaration [%d:%d] of '%s'",
				hi, lo, sig.MSB, sig.LSB, sig.Name)
		}
	case verilog.SelectPlus, verilog.SelectMinus:
		w, ok := e.design.ConstInt(n.Lo)
		if !ok {
			e.errorf(diag.CatNonConstantExpr, n.Pos(), sig.Name,
				"The width of an indexed part-select must be constant.",
				"indexed part-select width of '%s' must be constant", sig.Name)
			return
		}
		if w <= 0 || w > sig.Width() {
			e.errorf(diag.CatIndexOutOfRange, n.Pos(), sig.Name, "",
				"indexed part-select width %d is invalid for vector '%s' of width %d",
				w, sig.Name, sig.Width())
		}
	}
}

// ---------- assignment checking ----------

func (e *elaborator) checkContinuousAssign(a *verilog.AssignItem) {
	e.checkExpr(a.RHS)
	e.checkLHS(a.LHS, lhsContinuous)
	e.checkWidths(a.LHS, a.RHS, a.Pos())
}

type procCtx struct {
	inAlways bool
	clocked  bool
}

func (e *elaborator) checkAlways(b *verilog.AlwaysBlock) {
	for _, ev := range b.Events {
		e.checkExpr(ev.Signal)
	}
	ctx := procCtx{inAlways: true, clocked: b.IsClocked()}
	e.checkStmt(b.Body, ctx)
}

func (e *elaborator) checkStmt(s verilog.Stmt, ctx procCtx) {
	switch st := s.(type) {
	case nil:
	case *verilog.BlockStmt:
		// Block-local declarations become visible for the block body.
		saved := e.locals
		e.locals = map[string]*Signal{}
		for k, v := range saved {
			e.locals[k] = v
		}
		for _, d := range st.Decls {
			msb, lsb := e.rangeBounds(d.VRange, d.Kind)
			for _, dn := range d.Names {
				e.locals[dn.Name] = &Signal{
					Name: dn.Name, Kind: d.Kind, MSB: msb, LSB: lsb, Pos: dn.NamePos,
				}
			}
		}
		for _, sub := range st.Stmts {
			e.checkStmt(sub, ctx)
		}
		e.locals = saved
	case *verilog.AssignStmt:
		e.checkExpr(st.RHS)
		mode := lhsProcedural
		if !ctx.inAlways {
			mode = lhsInitial
		}
		e.checkLHS(st.LHS, mode)
		e.checkWidths(st.LHS, st.RHS, st.Pos())
	case *verilog.IfStmt:
		e.checkExpr(st.Cond)
		e.checkStmt(st.Then, ctx)
		e.checkStmt(st.Else, ctx)
	case *verilog.CaseStmt:
		e.checkExpr(st.Subject)
		for _, item := range st.Items {
			for _, l := range item.Labels {
				e.checkExpr(l)
			}
			e.checkStmt(item.Body, ctx)
		}
	case *verilog.ForStmt:
		saved := e.locals
		if st.LoopVar != "" {
			e.locals = map[string]*Signal{}
			for k, v := range saved {
				e.locals[k] = v
			}
			e.locals[st.LoopVar] = &Signal{
				Name: st.LoopVar, Kind: verilog.KindInt, MSB: 31, LSB: 0, Pos: st.LoopVarPos,
			}
		}
		if st.Init != nil {
			e.checkExpr(st.Init.RHS)
			e.checkLHS(st.Init.LHS, lhsLoop)
		}
		e.checkExpr(st.Cond)
		if st.Step != nil {
			e.checkExpr(st.Step.RHS)
		}
		e.checkStmt(st.Body, ctx)
		e.locals = saved
	case *verilog.NullStmt:
	}
}

type lhsMode int

const (
	lhsContinuous lhsMode = iota // assign ... = ...
	lhsProcedural                // inside always
	lhsInitial                   // inside initial
	lhsLoop                      // for-loop index assignment
)

func (e *elaborator) checkLHS(lhs verilog.Expr, mode lhsMode) {
	switch x := lhs.(type) {
	case *verilog.Concat:
		for _, el := range x.Elems {
			e.checkLHS(el, mode)
		}
		return
	case *verilog.Index:
		e.checkIndex(x)
		e.checkLHSBase(x.X, lhs.Pos(), mode)
		return
	case *verilog.Slice:
		e.checkSlice(x)
		e.checkLHSBase(x.X, lhs.Pos(), mode)
		return
	case *verilog.Ident:
		e.checkLHSBase(x, x.Pos(), mode)
		return
	default:
		e.errorf(diag.CatInvalidLValue, lhs.Pos(), "",
			"Assignment targets must be signals, bit-selects, part-selects, or concatenations of these.",
			"expression is not a valid assignment target")
	}
}

func (e *elaborator) checkLHSBase(base verilog.Expr, pos diag.Pos, mode lhsMode) {
	id, ok := base.(*verilog.Ident)
	if !ok {
		e.errorf(diag.CatInvalidLValue, pos, "", "",
			"expression is not a valid assignment target")
		return
	}
	sig := e.lookup(id.Name)
	if sig == nil && !e.unknownParams[id.Name] {
		e.errorf(diag.CatUndeclaredIdent, pos, id.Name,
			fmt.Sprintf("Declare '%s' before assigning to it.", id.Name),
			"object '%s' is not declared", id.Name)
		return
	}
	if e.isParam(id.Name) {
		e.errorf(diag.CatInvalidLValue, pos, id.Name,
			"Parameters are constants and cannot be assigned.",
			"parameter '%s' cannot be an assignment target", id.Name)
		return
	}
	if sig.Dir == verilog.DirInput {
		e.errorf(diag.CatInvalidLValue, pos, id.Name,
			fmt.Sprintf("'%s' is an input port; drive a different signal or change the port direction.", id.Name),
			"input port '%s' cannot be assigned inside the module", id.Name)
		return
	}
	switch mode {
	case lhsContinuous:
		if sig.Kind.IsVariable() {
			e.errorf(diag.CatAssignToReg, pos, id.Name,
				fmt.Sprintf("Declare '%s' as a wire, or move the assignment into an always block.", id.Name),
				"continuous assignment to variable '%s'; 'assign' targets must be nets", id.Name)
		}
	case lhsProcedural, lhsInitial:
		if !sig.Kind.IsVariable() {
			e.errorf(diag.CatInvalidLValue, pos, id.Name,
				fmt.Sprintf("Declare '%s' as 'reg' (or 'logic'), or use an 'assign' statement instead of an always block.", id.Name),
				"'%s' is not a valid l-value; procedural assignments require a variable (reg), not a net", id.Name)
		}
	case lhsLoop:
		if !sig.Kind.IsVariable() {
			e.errorf(diag.CatInvalidLValue, pos, id.Name,
				"Declare the loop index as 'integer'.",
				"loop index '%s' must be a variable such as an integer", id.Name)
		}
	}
}

// checkWidths emits a width-mismatch warning when both sides have
// statically-known widths that disagree. Warnings never fail compilation.
func (e *elaborator) checkWidths(lhs, rhs verilog.Expr, pos diag.Pos) {
	lw, okL := e.design.staticWidth(lhs, e.locals)
	rw, okR := e.design.staticWidth(rhs, e.locals)
	if okL && okR && lw != rw {
		e.warnf(diag.CatWidthMismatch, pos, "",
			"assignment target is %d bits but expression is %d bits", lw, rw)
	}
}

// StaticWidth is the width rule of sema's own width check, at module
// scope: the width of x when it is statically known from its shape
// alone (signals, bit- and part-selects, concatenations, replications),
// false when it is context-dependent (plain numbers, operator results
// and the like are deliberately left out to avoid noisy warnings). A
// parameter reads as 32 bits. When StaticWidth knows both sides of a
// continuous or procedural assignment, the elaborator has already
// compared them.
func (d *Design) StaticWidth(x verilog.Expr) (int, bool) { return d.staticWidth(x, nil) }

// staticWidth is StaticWidth with block locals in scope.
func (d *Design) staticWidth(x verilog.Expr, locals map[string]*Signal) (int, bool) {
	switch n := x.(type) {
	case *verilog.Ident:
		if sig := d.lookup(n.Name, locals); sig != nil {
			return sig.Width(), true
		}
	case *verilog.Index:
		return 1, true
	case *verilog.Slice:
		return d.SliceWidth(n)
	case *verilog.Concat:
		total := 0
		for _, el := range n.Elems {
			w, ok := d.staticWidth(el, locals)
			if !ok {
				return 0, false
			}
			total += w
		}
		return total, true
	case *verilog.Repl:
		cnt, okC := d.ConstInt(n.Count)
		w, okW := d.staticWidth(n.Value, locals)
		if okC && okW {
			return cnt * w, true
		}
	}
	return 0, false
}

// SliceWidth is the width of a part-select whose bounds (or indexed
// width) fold to constants.
func (d *Design) SliceWidth(n *verilog.Slice) (int, bool) {
	switch n.Kind {
	case verilog.SelectConst:
		hi, okH := d.ConstInt(n.Hi)
		lo, okL := d.ConstInt(n.Lo)
		if okH && okL {
			return rangeWidth(hi, lo), true
		}
	case verilog.SelectPlus, verilog.SelectMinus:
		return d.ConstInt(n.Lo)
	}
	return 0, false
}

// ---------- constant folding ----------

// ConstInt folds a constant expression to an int: literals, parameter
// references, and the operators, system calls and ternaries the
// elaborator accepts in parameter values and range bounds, with
// bit-vector wraparound. It is the one constant folder behind the
// frontend and the semantic analyzer, and reads only d.Params.
func (d *Design) ConstInt(x verilog.Expr) (int, bool) {
	v, ok := d.constValue(x)
	if !ok {
		return 0, false
	}
	u := v.Uint64()
	// Treat very large values as negative two's-complement 32-bit
	// constants: "i - 1" with i==0 folds to 0xFFFFFFFF, which must compare
	// as -1 for range checks.
	if v.Width() == 32 && u > 0x7FFFFFFF {
		return int(int32(uint32(u))), true
	}
	if u > 1<<31 {
		return 0, false
	}
	return int(u), true
}

func (d *Design) constValue(x verilog.Expr) (bitvec.Vec, bool) {
	switch n := x.(type) {
	case *verilog.Number:
		v, err := n.Value()
		if err != nil {
			return bitvec.Vec{}, false
		}
		return v, true
	case *verilog.Ident:
		if v, ok := d.Params[n.Name]; ok {
			return v, true
		}
		return bitvec.Vec{}, false
	case *verilog.Unary:
		v, ok := d.constValue(n.X)
		if !ok {
			return bitvec.Vec{}, false
		}
		switch n.Op {
		case "-":
			return bitvec.New(v.Width()).Sub(v), true
		case "+":
			return v, true
		case "~":
			return v.Not(), true
		case "!":
			if v.Bool() {
				return bitvec.FromUint64(1, 0), true
			}
			return bitvec.FromUint64(1, 1), true
		}
		return bitvec.Vec{}, false
	case *verilog.Binary:
		a, okA := d.constValue(n.X)
		b, okB := d.constValue(n.Y)
		if !okA || !okB {
			return bitvec.Vec{}, false
		}
		return foldBinary(n.Op, a, b)
	case *verilog.Ternary:
		c, ok := d.constValue(n.Cond)
		if !ok {
			return bitvec.Vec{}, false
		}
		if c.Bool() {
			return d.constValue(n.Then)
		}
		return d.constValue(n.Else)
	case *verilog.Call:
		if n.Name == "$clog2" && len(n.Args) == 1 {
			v, ok := d.constValue(n.Args[0])
			if !ok {
				return bitvec.Vec{}, false
			}
			return bitvec.FromUint64(32, uint64(bitvec.Clog2(v.Uint64()))), true
		}
		return bitvec.Vec{}, false
	}
	return bitvec.Vec{}, false
}

func foldBinary(op string, a, b bitvec.Vec) (bitvec.Vec, bool) {
	boolVec := func(c bool) bitvec.Vec {
		if c {
			return bitvec.FromUint64(1, 1)
		}
		return bitvec.FromUint64(1, 0)
	}
	switch op {
	case "+":
		return a.Add(b), true
	case "-":
		return a.Sub(b), true
	case "*":
		return a.Mul(b), true
	case "/":
		if b.Uint64() == 0 {
			return bitvec.Vec{}, false
		}
		return bitvec.FromUint64(maxW(a, b), a.Uint64()/b.Uint64()), true
	case "%":
		if b.Uint64() == 0 {
			return bitvec.Vec{}, false
		}
		return bitvec.FromUint64(maxW(a, b), a.Uint64()%b.Uint64()), true
	case "&":
		return a.And(b), true
	case "|":
		return a.Or(b), true
	case "^":
		return a.Xor(b), true
	case "<<", "<<<":
		return a.Shl(b.ShiftCount()), true
	case ">>", ">>>":
		return a.Shr(b.ShiftCount()), true
	case "==", "===":
		return boolVec(a.Eq(b)), true
	case "!=", "!==":
		return boolVec(!a.Eq(b)), true
	case "<":
		return boolVec(a.Ult(b)), true
	case ">":
		return boolVec(b.Ult(a)), true
	case "<=":
		return boolVec(!b.Ult(a)), true
	case ">=":
		return boolVec(!a.Ult(b)), true
	case "&&":
		return boolVec(a.Bool() && b.Bool()), true
	case "||":
		return boolVec(a.Bool() || b.Bool()), true
	}
	return bitvec.Vec{}, false
}

func maxW(a, b bitvec.Vec) int {
	if a.Width() > b.Width() {
		return a.Width()
	}
	return b.Width()
}
