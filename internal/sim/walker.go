package sim

// This file is the legacy tree-walking evaluator: a direct interpreter
// over the AST with map-keyed signal storage and immutable bitvec
// operations. It is retained as the reference oracle — the
// compiled engine (compile.go / engine.go) must produce bit-identical
// outputs, which the differential corpus tests assert. It judges no
// design; select it with NewWith(design, EngineWalker).

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/diag"
	"repro/internal/resilience"
	"repro/internal/sema"
	"repro/internal/verilog"
)

// walkerSim holds the mutable state of one design instance.
type walkerSim struct {
	design *sema.Design
	values map[string]bitvec.Vec
	// prev holds the value each signal had before the last SetInput
	// batch, for edge detection on asynchronous controls.
	prev map[string]bitvec.Vec

	assigns    []*verilog.AssignItem
	combAlways []*verilog.AlwaysBlock
	seqAlways  []*verilog.AlwaysBlock

	// wd, when armed via Simulator.SetWatchdog, is checked inside the
	// settle fixpoint and charged every loop trip, so a runaway settle
	// or loop nest is canceled mid-iteration.
	wd *resilience.Watchdog

	// ports names the signals port has resolved, by handle.
	ports []string
}

func (s *walkerSim) setWatchdog(wd *resilience.Watchdog) { s.wd = wd }

// New builds a simulator over an elaborated design. It fails when the
// design uses constructs the simulator does not support.
func newWalkerSim(design *sema.Design) (*walkerSim, error) {
	if design == nil {
		return nil, fmt.Errorf("sim: nil design")
	}
	s := &walkerSim{
		design: design,
		values: map[string]bitvec.Vec{},
		prev:   map[string]bitvec.Vec{},
	}
	for name, sig := range design.Signals {
		s.values[name] = bitvec.New(sig.Width())
	}
	for _, item := range design.Module.Items {
		switch it := item.(type) {
		case *verilog.AssignItem:
			s.assigns = append(s.assigns, it)
		case *verilog.AlwaysBlock:
			if it.IsClocked() {
				s.seqAlways = append(s.seqAlways, it)
			} else {
				s.combAlways = append(s.combAlways, it)
			}
		case *verilog.Decl:
			// A net-kind initializer (wire x = expr) is continuous
			// assignment shorthand per the LRM, so it joins the settle
			// loop as a synthesized assign at its declaration position.
			// Variable initializers stay one-shot (applyDeclInits).
			for _, dn := range it.Names {
				sig := design.Signal(dn.Name)
				if dn.Init == nil || sig == nil || sig.Init != dn.Init || sig.Kind.IsVariable() {
					continue
				}
				s.assigns = append(s.assigns, &verilog.AssignItem{
					LHS:       &verilog.Ident{Name: dn.Name, NamePos: dn.NamePos},
					RHS:       dn.Init,
					AssignPos: dn.NamePos,
				})
			}
		}
	}
	s.applyDeclInits()
	return s, nil
}

// Reset zeroes every signal and re-applies declaration initializers. The
// values and prev maps (and the word storage behind each value) are
// reused rather than reallocated — testbench runners call Reset once per
// run, and the old per-run map churn showed up in the oracle's profile.
// Vectors previously returned by Get observe the zeroing, matching the
// contract that Get's result is only valid until the next mutation.
func (s *walkerSim) Reset() {
	for name, sig := range s.design.Signals {
		if v, ok := s.values[name]; ok && v.Width() == sig.Width() {
			v.Zero()
			continue
		}
		s.values[name] = bitvec.New(sig.Width())
	}
	for name := range s.prev {
		delete(s.prev, name)
	}
	s.applyDeclInits()
}

// applyDeclInits applies variable declaration initializers (reg r = 0,
// integer i = 5) once, in declaration order — map order here once made
// init-to-init references nondeterministic, which the differential
// fuzzer caught as an intermittent walker-vs-engine divergence. Net
// initializers are continuous assigns and are handled in Settle.
func (s *walkerSim) applyDeclInits() {
	for _, item := range s.design.Module.Items {
		decl, ok := item.(*verilog.Decl)
		if !ok {
			continue
		}
		for _, dn := range decl.Names {
			sig := s.design.Signal(dn.Name)
			if dn.Init == nil || sig == nil || sig.Init != dn.Init || !sig.Kind.IsVariable() {
				continue
			}
			env := newEnv(s)
			if v, err := env.eval(dn.Init); err == nil {
				s.values[dn.Name] = v.Resize(sig.Width())
			}
		}
	}
}

// Get returns the current value of a signal (zero vector for unknown
// names, so probing never panics mid-benchmark).
func (s *walkerSim) Get(name string) bitvec.Vec {
	if v, ok := s.values[name]; ok {
		return v
	}
	return bitvec.New(1)
}

// SetInput drives an input port. Edges produced by the change trigger
// edge-sensitive always blocks whose sensitivity list mentions the signal
// (asynchronous resets).
func (s *walkerSim) SetInput(name string, v bitvec.Vec) error {
	sig := s.design.Signal(name)
	if sig == nil {
		return fmt.Errorf("sim: no signal %q", name)
	}
	old := s.values[name]
	s.values[name] = v.Resize(sig.Width())
	oldBit, newBit := old.Bit(0), s.values[name].Bit(0)
	if oldBit == newBit {
		return nil
	}
	edge := verilog.EdgeNeg
	if !oldBit && newBit {
		edge = verilog.EdgePos
	}
	return s.fireEdge(name, edge)
}

// SetInputUint drives an input port from a uint64.
func (s *walkerSim) SetInputUint(name string, v uint64) error {
	sig := s.design.Signal(name)
	if sig == nil {
		return fmt.Errorf("sim: no signal %q", name)
	}
	return s.SetInput(name, bitvec.FromUint64(sig.Width(), v))
}

// port returns the signal's index in ports, adding it on first use.
func (s *walkerSim) port(name string) int32 {
	for i, n := range s.ports {
		if n == name {
			return int32(i)
		}
	}
	s.ports = append(s.ports, name)
	return int32(len(s.ports) - 1)
}

func (s *walkerSim) value(port int32) bitvec.Vec { return s.Get(s.ports[port]) }

func (s *walkerSim) drive(port int32, words []uint64) error {
	return s.SetInput(s.ports[port], bitvec.FromWords(len(words)*64, words))
}

// fireEdge runs every clocked always block sensitive to the given edge of
// the given signal, with non-blocking semantics across blocks.
func (s *walkerSim) fireEdge(name string, edge verilog.EventEdge) error {
	var fired []*verilog.AlwaysBlock
	for _, blk := range s.seqAlways {
		for _, ev := range blk.Events {
			id, ok := ev.Signal.(*verilog.Ident)
			if !ok || id.Name != name {
				continue
			}
			if ev.Edge == edge {
				fired = append(fired, blk)
				break
			}
		}
	}
	if len(fired) == 0 {
		return nil
	}
	// Each block executes in its own env: block locals (loop variables,
	// integers declared in the body) are scoped to their block, so two
	// blocks declaring the same name get distinct storage — the compiled
	// engine interns one register per block-local per block, and NBA
	// targets re-evaluated at commit must observe the owning block's
	// final loop-variable values, not a later block's. Commits run after
	// every block has executed, in block order, which is exactly the
	// engine's single merged queue order.
	envs := make([]*env, len(fired))
	for i, blk := range fired {
		envs[i] = newEnv(s)
		if err := envs[i].exec(blk.Body); err != nil {
			return err
		}
	}
	for _, env := range envs {
		env.commitNBA()
	}
	return nil
}

// Settle evaluates continuous assigns and combinational always blocks to a
// fixpoint.
func (s *walkerSim) Settle() error {
	for iter := 0; iter < settleLimit; iter++ {
		if err := s.wd.Check(); err != nil {
			return err
		}
		changed := false
		for _, a := range s.assigns {
			env := newEnv(s)
			v, err := env.evalCtx(a.RHS, env.lvalueWidth(a.LHS))
			if err != nil {
				return err
			}
			if env.assignTo(a.LHS, v, true) {
				changed = true
			}
		}
		for _, blk := range s.combAlways {
			env := newEnv(s)
			before := snapshotTargets(s, blk)
			if err := env.exec(blk.Body); err != nil {
				return err
			}
			env.commitNBA()
			if !equalSnapshot(s, before) {
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("sim: combinational logic did not settle (possible feedback loop)")
}

// snapshotTargets captures the current values of every signal the block
// assigns, for change detection.
func snapshotTargets(s *walkerSim, blk *verilog.AlwaysBlock) map[string]bitvec.Vec {
	out := map[string]bitvec.Vec{}
	verilog.WalkStmts(blk.Body, func(st verilog.Stmt) {
		a, ok := st.(*verilog.AssignStmt)
		if !ok {
			return
		}
		for _, name := range verilog.LHSBases(a.LHS) {
			if v, ok := s.values[name]; ok {
				out[name] = v
			}
		}
	})
	return out
}

func equalSnapshot(s *walkerSim, snap map[string]bitvec.Vec) bool {
	for name, v := range snap {
		if !s.values[name].Eq(v) {
			return false
		}
	}
	return true
}

// ---------- evaluation environment ----------

// env is one procedural execution context: module signals plus block-local
// variables, with a non-blocking-assignment queue.
type env struct {
	sim    *walkerSim
	locals map[string]bitvec.Vec
	nba    []nbaWrite
}

type nbaWrite struct {
	target verilog.Expr
	value  bitvec.Vec
}

func newEnv(s *walkerSim) *env {
	return &env{sim: s, locals: map[string]bitvec.Vec{}}
}

func (e *env) commitNBA() {
	for _, w := range e.nba {
		e.assignTo(w.target, w.value, true)
	}
	e.nba = nil
}

func (e *env) read(name string) (bitvec.Vec, bool) {
	if v, ok := e.locals[name]; ok {
		return v, true
	}
	if v, ok := e.sim.design.Params[name]; ok {
		return v, true
	}
	if v, ok := e.sim.values[name]; ok {
		return v, true
	}
	return bitvec.Vec{}, false
}

func (e *env) write(name string, v bitvec.Vec) bool {
	if old, ok := e.locals[name]; ok {
		nv := v.Resize(widthOf(old, v))
		changed := !old.Eq(nv)
		e.locals[name] = nv
		return changed
	}
	sig := e.sim.design.Signal(name)
	if sig == nil {
		// Block-scoped variable first seen here (declared in a begin
		// block): adopt it as a 32-bit local.
		e.locals[name] = v.Resize(32)
		return true
	}
	nv := v.Resize(sig.Width())
	changed := !e.sim.values[name].Eq(nv)
	e.sim.values[name] = nv
	return changed
}

func widthOf(old, v bitvec.Vec) int {
	if old.Width() > 0 {
		return old.Width()
	}
	return v.Width()
}

// declLocal introduces a block-local variable.
func (e *env) declLocal(name string, width int) {
	e.locals[name] = bitvec.New(width)
}

// ---------- statement execution ----------

func (e *env) exec(s verilog.Stmt) error {
	switch st := s.(type) {
	case nil, *verilog.NullStmt:
		return nil
	case *verilog.BlockStmt:
		for _, d := range st.Decls {
			w := 32
			if d.VRange != nil {
				// Ranges on block locals are rare in the corpus; a fixed
				// 32-bit width is sufficient for loop indices.
				w = 32
			}
			for _, dn := range d.Names {
				e.declLocal(dn.Name, w)
			}
		}
		for _, sub := range st.Stmts {
			if err := e.exec(sub); err != nil {
				return err
			}
		}
		return nil
	case *verilog.AssignStmt:
		v, err := e.evalCtx(st.RHS, e.lvalueWidth(st.LHS))
		if err != nil {
			return err
		}
		if st.Blocking {
			e.assignTo(st.LHS, v, true)
		} else {
			e.nba = append(e.nba, nbaWrite{target: st.LHS, value: v})
		}
		return nil
	case *verilog.IfStmt:
		c, err := e.eval(st.Cond)
		if err != nil {
			return err
		}
		if c.Bool() {
			return e.exec(st.Then)
		}
		return e.exec(st.Else)
	case *verilog.CaseStmt:
		subj, err := e.eval(st.Subject)
		if err != nil {
			return err
		}
		var deflt verilog.Stmt
		for _, item := range st.Items {
			if item.Labels == nil {
				deflt = item.Body
				continue
			}
			for _, l := range item.Labels {
				match, err := e.caseLabelMatches(st.Kind, subj, l)
				if err != nil {
					return err
				}
				if match {
					return e.exec(item.Body)
				}
			}
		}
		return e.exec(deflt)
	case *verilog.ForStmt:
		if st.LoopVar != "" {
			e.declLocal(st.LoopVar, 32)
		}
		if st.Init != nil {
			if err := e.exec(st.Init); err != nil {
				return err
			}
		}
		for trip := 0; ; trip++ {
			if trip >= loopLimit {
				return fmt.Errorf("sim: for loop at line %d exceeded %d iterations", st.Pos().Line, loopLimit)
			}
			if err := e.sim.wd.Trip(); err != nil {
				return err
			}
			c, err := e.eval(st.Cond)
			if err != nil {
				return err
			}
			if !c.Bool() {
				return nil
			}
			if err := e.exec(st.Body); err != nil {
				return err
			}
			if st.Step != nil {
				if err := e.exec(st.Step); err != nil {
					return err
				}
			}
		}
	default:
		return fmt.Errorf("sim: unsupported statement at line %d", s.Pos().Line)
	}
}

// caseLabelMatches compares one case label against the subject. For
// casez, z/? digits in a literal label are don't-cares; casex extends the
// wildcard set with x digits, per the LRM's wildcard-matching semantics.
func (e *env) caseLabelMatches(kind verilog.CaseKind, subj bitvec.Vec, label verilog.Expr) (bool, error) {
	if kind != verilog.CasePlain {
		if num, ok := label.(*verilog.Number); ok {
			val, care, err := num.WildcardMask(kind == verilog.CaseX)
			if err != nil {
				return false, err
			}
			care = care.Resize(subj.Width())
			return subj.And(care).Eq(val.Resize(subj.Width()).And(care)), nil
		}
	}
	lv, err := e.eval(label)
	if err != nil {
		return false, err
	}
	return lv.Resize(subj.Width()).Eq(subj), nil
}

// assignTo writes v into an l-value expression. It reports whether any
// stored value changed.
func (e *env) assignTo(lhs verilog.Expr, v bitvec.Vec, resize bool) bool {
	switch x := lhs.(type) {
	case *verilog.Ident:
		return e.write(x.Name, v)
	case *verilog.Index:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return false
		}
		idxV, err := e.eval(x.Idx)
		if err != nil {
			return false
		}
		cur, ok := e.read(id.Name)
		if !ok {
			return false
		}
		bitIdx := e.normalizeIndex(id.Name, int(int32(uint32(idxV.Uint64()))))
		if bitIdx < 0 || bitIdx >= cur.Width() {
			return false // dynamic out-of-range write: dropped, like X
		}
		nv := cur.SetBit(bitIdx, v.Bit(0))
		return e.write(id.Name, nv)
	case *verilog.Slice:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return false
		}
		lo, width, ok := e.sliceBounds(id.Name, x)
		if !ok {
			return false
		}
		cur, okr := e.read(id.Name)
		if !okr {
			return false
		}
		nv := cur
		for i := 0; i < width; i++ {
			if lo+i >= 0 && lo+i < cur.Width() {
				nv = nv.SetBit(lo+i, v.Bit(i))
			}
		}
		return e.write(id.Name, nv)
	case *verilog.Concat:
		// {a, b} = v assigns the low bits to the rightmost element.
		changed := false
		offset := 0
		for i := len(x.Elems) - 1; i >= 0; i-- {
			el := x.Elems[i]
			w := e.lvalueWidth(el)
			part := v.Shr(offset).Resize(w)
			if e.assignTo(el, part, false) {
				changed = true
			}
			offset += w
		}
		return changed
	}
	return false
}

func (e *env) lvalueWidth(lhs verilog.Expr) int {
	switch x := lhs.(type) {
	case *verilog.Ident:
		if sig := e.sim.design.Signal(x.Name); sig != nil {
			return sig.Width()
		}
		if v, ok := e.locals[x.Name]; ok {
			return v.Width()
		}
	case *verilog.Index:
		return 1
	case *verilog.Slice:
		if id, ok := x.X.(*verilog.Ident); ok {
			if _, w, ok := e.sliceBounds(id.Name, x); ok {
				return w
			}
		}
	case *verilog.Concat:
		total := 0
		for _, el := range x.Elems {
			total += e.lvalueWidth(el)
		}
		return total
	}
	return 1
}

// normalizeIndex converts a declared-range index to a zero-based bit
// offset, honouring non-zero LSBs and ascending ranges.
func (e *env) normalizeIndex(name string, idx int) int {
	sig := e.sim.design.Signal(name)
	if sig == nil {
		return idx
	}
	if sig.MSB >= sig.LSB {
		return idx - sig.LSB
	}
	// ascending range [0:7]: bit 0 is the MSB
	return sig.LSB - idx
}

// sliceBounds resolves a part-select into (low bit offset, width).
func (e *env) sliceBounds(name string, sl *verilog.Slice) (lo, width int, ok bool) {
	evalInt := func(x verilog.Expr) (int, bool) {
		v, err := e.eval(x)
		if err != nil {
			return 0, false
		}
		return int(int32(uint32(v.Uint64()))), true
	}
	switch sl.Kind {
	case verilog.SelectConst:
		hi, okH := evalInt(sl.Hi)
		l, okL := evalInt(sl.Lo)
		if !okH || !okL {
			return 0, 0, false
		}
		hiN := e.normalizeIndex(name, hi)
		loN := e.normalizeIndex(name, l)
		if hiN < loN {
			hiN, loN = loN, hiN
		}
		return loN, hiN - loN + 1, true
	case verilog.SelectPlus:
		base, okB := evalInt(sl.Hi)
		w, okW := evalInt(sl.Lo)
		if !okB || !okW || w <= 0 {
			return 0, 0, false
		}
		return e.normalizeIndex(name, base), w, true
	case verilog.SelectMinus:
		base, okB := evalInt(sl.Hi)
		w, okW := evalInt(sl.Lo)
		if !okB || !okW || w <= 0 {
			return 0, 0, false
		}
		return e.normalizeIndex(name, base) - w + 1, w, true
	}
	return 0, 0, false
}

// ---------- expression evaluation ----------

// evalCtx evaluates x in an assignment context of the given width,
// implementing Verilog's context-determined width rule: operands of
// arithmetic and bitwise operators are extended to the assignment width
// before the operation, so '{cout, sum} = a + b + cin' keeps its carry.
// Self-determined contexts (comparisons, reductions, concatenation
// elements, index expressions) fall back to eval.
func (e *env) evalCtx(x verilog.Expr, width int) (bitvec.Vec, error) {
	switch n := x.(type) {
	case *verilog.Number:
		v, err := n.Value()
		if err != nil {
			return bitvec.Vec{}, err
		}
		if v.Width() < width {
			v = v.Resize(width)
		}
		return v, nil
	case *verilog.Ident:
		v, err := e.eval(n)
		if err != nil {
			return bitvec.Vec{}, err
		}
		if v.Width() < width {
			v = v.Resize(width)
		}
		return v, nil
	case *verilog.Unary:
		switch n.Op {
		case "~", "-", "+":
			v, err := e.evalCtx(n.X, width)
			if err != nil {
				return bitvec.Vec{}, err
			}
			return evalUnary(n.Op, v)
		}
		return e.eval(x)
	case *verilog.Binary:
		switch n.Op {
		case "+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~":
			a, err := e.evalCtx(n.X, width)
			if err != nil {
				return bitvec.Vec{}, err
			}
			b, err := e.evalCtx(n.Y, width)
			if err != nil {
				return bitvec.Vec{}, err
			}
			return evalBinary(n.Op, a, b)
		case "<<", ">>", "<<<", ">>>":
			a, err := e.evalCtx(n.X, width)
			if err != nil {
				return bitvec.Vec{}, err
			}
			b, err := e.eval(n.Y) // shift amount is self-determined
			if err != nil {
				return bitvec.Vec{}, err
			}
			return evalBinary(n.Op, a, b)
		}
		return e.eval(x)
	case *verilog.Ternary:
		return e.evalTernary(n, width)
	default:
		return e.eval(x)
	}
}

// evalTernary sizes c ? j : k per IEEE 1364-2005 §5.4.1: the result is
// max(L(j), L(k)) bits wide, raised to the context width (0 where the
// context is self-determined), and the chosen branch is evaluated at
// that width.
func (e *env) evalTernary(n *verilog.Ternary, width int) (bitvec.Vec, error) {
	c, err := e.eval(n.Cond)
	if err != nil {
		return bitvec.Vec{}, err
	}
	w, err := exprWidth(e, n)
	if err != nil {
		return bitvec.Vec{}, err
	}
	if w > maxProgramBits {
		return bitvec.Vec{}, stateLimit(n)
	}
	w = max(w, width)
	x := n.Else
	if c.Bool() {
		x = n.Then
	}
	v, err := e.evalCtx(x, w)
	if err != nil || v.Width() == w {
		return v, err
	}
	return v.Resize(w), nil
}

func (e *env) eval(x verilog.Expr) (bitvec.Vec, error) {
	switch n := x.(type) {
	case *verilog.Number:
		v, err := n.Value()
		if err != nil {
			return bitvec.Vec{}, err
		}
		return v, nil
	case *verilog.Ident:
		v, ok := e.read(n.Name)
		if !ok {
			return bitvec.Vec{}, unknownSignal(n)
		}
		return v, nil
	case *verilog.Unary:
		v, err := e.eval(n.X)
		if err != nil {
			return bitvec.Vec{}, err
		}
		return evalUnary(n.Op, v)
	case *verilog.Binary:
		a, err := e.eval(n.X)
		if err != nil {
			return bitvec.Vec{}, err
		}
		b, err := e.eval(n.Y)
		if err != nil {
			return bitvec.Vec{}, err
		}
		return evalBinary(n.Op, a, b)
	case *verilog.Ternary:
		return e.evalTernary(n, 0)
	case *verilog.Concat:
		out := bitvec.New(0)
		for _, el := range n.Elems {
			v, err := e.eval(el)
			if err != nil {
				return bitvec.Vec{}, err
			}
			if out.Width()+v.Width() > maxProgramBits {
				return bitvec.Vec{}, stateLimit(n)
			}
			out = out.Concat(v)
		}
		return out, nil
	case *verilog.Repl:
		c, err := e.replCount(n)
		if err != nil {
			return bitvec.Vec{}, err
		}
		v, err := e.eval(n.Value)
		if err != nil {
			return bitvec.Vec{}, err
		}
		if c*v.Width() > maxProgramBits {
			return bitvec.Vec{}, stateLimit(n)
		}
		return v.Repeat(c), nil
	case *verilog.Index:
		base, err := e.eval(n.X)
		if err != nil {
			return bitvec.Vec{}, err
		}
		idxV, err := e.eval(n.Idx)
		if err != nil {
			return bitvec.Vec{}, err
		}
		idx := e.normalizeIndex(identName(n.X), int(int32(uint32(idxV.Uint64()))))
		if idx < 0 || idx >= base.Width() {
			return bitvec.FromUint64(1, 0), nil // out-of-range read: 0
		}
		if base.Bit(idx) {
			return bitvec.FromUint64(1, 1), nil
		}
		return bitvec.FromUint64(1, 0), nil
	case *verilog.Slice:
		base, err := e.eval(n.X)
		if err != nil {
			return bitvec.Vec{}, err
		}
		lo, w, ok := e.sliceBounds(identName(n.X), n)
		if !ok {
			return bitvec.Vec{}, unresolvableSlice(n)
		}
		if lo < 0 {
			return bitvec.New(w), nil
		}
		return base.Shr(lo).Resize(w), nil
	case *verilog.Call:
		return e.evalCall(n)
	}
	return bitvec.Vec{}, fmt.Errorf("sim: unsupported expression at line %d", x.Pos().Line)
}

// sizer answers the three questions exprWidth cannot read off the tree:
// the width of a name, the width of a part-select and a replication
// count. The walker answers at run time; the compiler answers from
// constants and fails the compile where it cannot.
type sizer interface {
	nameWidth(n *verilog.Ident) (int, error)
	sliceWidth(n *verilog.Slice) (int, error)
	replCount(n *verilog.Repl) (int, error)
}

// exprWidth returns L(x), the width of x evaluated self-determined (eval
// here, compileExpr in the engine), without evaluating it.
func exprWidth(s sizer, x verilog.Expr) (int, error) {
	switch n := x.(type) {
	case *verilog.Number:
		v, err := n.Value()
		return v.Width(), err
	case *verilog.Ident:
		return s.nameWidth(n)
	case *verilog.Unary:
		switch n.Op {
		case "~", "-", "+":
			return exprWidth(s, n.X)
		}
		return 1, nil
	case *verilog.Binary:
		switch n.Op {
		case "+", "-", "*", "&", "|", "^", "~^", "^~":
			return maxWidth(s, n.X, n.Y)
		case "/", "%", "<<", "<<<", ">>", ">>>":
			return exprWidth(s, n.X)
		}
		return 1, nil
	case *verilog.Ternary:
		return maxWidth(s, n.Then, n.Else)
	case *verilog.Concat:
		total := 0
		for _, el := range n.Elems {
			w, err := exprWidth(s, el)
			if err != nil {
				return 0, err
			}
			total += w
		}
		return total, nil
	case *verilog.Repl:
		c, err := s.replCount(n)
		if err != nil {
			return 0, err
		}
		w, err := exprWidth(s, n.Value)
		return c * w, err
	case *verilog.Index:
		return 1, nil
	case *verilog.Slice:
		return s.sliceWidth(n)
	case *verilog.Call:
		if (n.Name == "$signed" || n.Name == "$unsigned") && len(n.Args) == 1 {
			return exprWidth(s, n.Args[0])
		}
		return 32, nil
	}
	return 0, fmt.Errorf("sim: unsupported expression at line %d", x.Pos().Line)
}

func maxWidth(s sizer, a, b verilog.Expr) (int, error) {
	wa, err := exprWidth(s, a)
	if err != nil {
		return 0, err
	}
	wb, err := exprWidth(s, b)
	return max(wa, wb), err
}

func (e *env) nameWidth(n *verilog.Ident) (int, error) {
	v, ok := e.read(n.Name)
	if !ok {
		return 0, unknownSignal(n)
	}
	return v.Width(), nil
}

func (e *env) sliceWidth(n *verilog.Slice) (int, error) {
	_, w, ok := e.sliceBounds(identName(n.X), n)
	if !ok {
		return 0, unresolvableSlice(n)
	}
	return w, nil
}

func (e *env) replCount(n *verilog.Repl) (int, error) {
	cnt, err := e.eval(n.Count)
	if err != nil {
		return 0, err
	}
	c := int(cnt.Uint64())
	if c < 0 || c > 4096 {
		return 0, fmt.Errorf("sim: replication count %d out of bounds at line %d", c, n.Pos().Line)
	}
	return c, nil
}

// identName is x's name when x is a plain identifier, else "".
func identName(x verilog.Expr) string {
	if id, ok := x.(*verilog.Ident); ok {
		return id.Name
	}
	return ""
}

func unknownSignal(n *verilog.Ident) error {
	return fmt.Errorf("sim: read of unknown signal %q at line %d", n.Name, n.Pos().Line)
}

// stateLimit refuses a value wider than one program's register state,
// the bound the compiler puts on the same design: the walker may be
// handed a design the engine never compiled, and a few bytes of nested
// replication would otherwise ask it for gigabytes. The error is a
// resource-limit diagnostic.
func stateLimit(x verilog.Expr) error {
	return diag.Errorf(diag.CatResourceLimit, x.Pos(),
		"sim: expression needs over %d bits of state", maxProgramBits)
}

func unresolvableSlice(n *verilog.Slice) error {
	return fmt.Errorf("sim: unresolvable part-select at line %d", n.Pos().Line)
}

func (e *env) evalCall(n *verilog.Call) (bitvec.Vec, error) {
	switch n.Name {
	case "$signed", "$unsigned":
		if len(n.Args) == 1 {
			return e.eval(n.Args[0])
		}
	case "$clog2":
		if len(n.Args) == 1 {
			v, err := e.eval(n.Args[0])
			if err != nil {
				return bitvec.Vec{}, err
			}
			return bitvec.FromUint64(32, uint64(bitvec.Clog2(v.Uint64()))), nil
		}
	case "$countones":
		if len(n.Args) == 1 {
			v, err := e.eval(n.Args[0])
			if err != nil {
				return bitvec.Vec{}, err
			}
			return bitvec.FromUint64(32, uint64(v.PopCount())), nil
		}
	}
	return bitvec.Vec{}, fmt.Errorf("sim: unsupported system function %s at line %d", n.Name, n.Pos().Line)
}

func evalUnary(op string, v bitvec.Vec) (bitvec.Vec, error) {
	switch op {
	case "~":
		return v.Not(), nil
	case "!":
		if v.Bool() {
			return bitvec.FromUint64(1, 0), nil
		}
		return bitvec.FromUint64(1, 1), nil
	case "-":
		return bitvec.New(v.Width()).Sub(v), nil
	case "+":
		return v, nil
	case "&":
		return v.ReduceAnd(), nil
	case "|":
		return v.ReduceOr(), nil
	case "^":
		return v.ReduceXor(), nil
	case "~&":
		return v.ReduceAnd().Not(), nil
	case "~|":
		return v.ReduceOr().Not(), nil
	case "~^":
		return v.ReduceXor().Not(), nil
	}
	return bitvec.Vec{}, fmt.Errorf("sim: unsupported unary operator %q", op)
}

func evalBinary(op string, a, b bitvec.Vec) (bitvec.Vec, error) {
	boolVec := func(c bool) bitvec.Vec {
		if c {
			return bitvec.FromUint64(1, 1)
		}
		return bitvec.FromUint64(1, 0)
	}
	switch op {
	case "+":
		return a.Add(b), nil
	case "-":
		return a.Sub(b), nil
	case "*":
		return a.Mul(b), nil
	case "/":
		if b.IsZero() {
			return bitvec.New(a.Width()), nil
		}
		return bitvec.FromUint64(a.Width(), a.Uint64()/b.Uint64()), nil
	case "%":
		if b.IsZero() {
			return bitvec.New(a.Width()), nil
		}
		return bitvec.FromUint64(a.Width(), a.Uint64()%b.Uint64()), nil
	case "&":
		return a.And(b), nil
	case "|":
		return a.Or(b), nil
	case "^":
		return a.Xor(b), nil
	case "~^", "^~":
		return a.Xor(b).Not(), nil
	case "<<", "<<<":
		return a.Shl(b.ShiftCount()), nil
	case ">>", ">>>":
		return a.Shr(b.ShiftCount()), nil
	case "==", "===":
		return boolVec(a.Eq(b)), nil
	case "!=", "!==":
		return boolVec(!a.Eq(b)), nil
	case "<":
		return boolVec(a.Ult(b)), nil
	case ">":
		return boolVec(b.Ult(a)), nil
	case "<=":
		return boolVec(!b.Ult(a)), nil
	case ">=":
		return boolVec(!a.Ult(b)), nil
	case "&&":
		return boolVec(a.Bool() && b.Bool()), nil
	case "||":
		return boolVec(a.Bool() || b.Bool()), nil
	}
	return bitvec.Vec{}, fmt.Errorf("sim: unsupported binary operator %q", op)
}
