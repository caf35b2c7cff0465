package analyze

import (
	"repro/internal/diag"
	"repro/internal/verilog"
)

// ---------- read/write collection ----------

// addReads records every identifier an expression reads into dst,
// keeping the first position seen per name.
func addReads(e verilog.Expr, dst map[string]diag.Pos) {
	verilog.WalkExprs(e, func(x verilog.Expr) {
		if id, ok := x.(*verilog.Ident); ok {
			if _, seen := dst[id.Name]; !seen {
				dst[id.Name] = id.Pos()
			}
		}
	})
}

// lhsReads records the reads embedded in an l-value: index expressions
// and part-select bounds (the base being written is not a read).
func lhsReads(lhs verilog.Expr, dst map[string]diag.Pos) {
	switch x := lhs.(type) {
	case *verilog.Index:
		lhsReads(x.X, dst)
		addReads(x.Idx, dst)
	case *verilog.Slice:
		lhsReads(x.X, dst)
		addReads(x.Hi, dst)
		addReads(x.Lo, dst)
	case *verilog.Concat:
		for _, el := range x.Elems {
			lhsReads(el, dst)
		}
	}
}

// lhsPartialBases lists the root names written through a bit- or
// part-select (not whole-signal writes).
func lhsPartialBases(lhs verilog.Expr) []string {
	switch x := lhs.(type) {
	case *verilog.Index:
		return verilog.LHSBases(x.X)
	case *verilog.Slice:
		return verilog.LHSBases(x.X)
	case *verilog.Concat:
		var out []string
		for _, el := range x.Elems {
			out = append(out, lhsPartialBases(el)...)
		}
		return out
	}
	return nil
}

// localNames collects names scoped to the block body: begin/end block
// declarations and SV-style inline for-loop variables. They shadow (or
// simply are not) module signals, so rules exclude them.
func localNames(body verilog.Stmt) map[string]bool {
	locals := map[string]bool{}
	verilog.WalkStmts(body, func(s verilog.Stmt) {
		switch x := s.(type) {
		case *verilog.BlockStmt:
			for _, d := range x.Decls {
				for _, n := range d.Names {
					locals[n.Name] = true
				}
			}
		case *verilog.ForStmt:
			if x.LoopVar != "" {
				locals[x.LoopVar] = true
			}
		}
	})
	return locals
}

// blockWrites returns the first write position per base name assigned
// anywhere in the body (locals included; callers filter).
func blockWrites(body verilog.Stmt) map[string]diag.Pos {
	writes := map[string]diag.Pos{}
	verilog.WalkStmts(body, func(s verilog.Stmt) {
		as, ok := s.(*verilog.AssignStmt)
		if !ok {
			return
		}
		for _, name := range verilog.LHSBases(as.LHS) {
			if _, seen := writes[name]; !seen {
				writes[name] = as.Pos()
			}
		}
	})
	return writes
}

// blockReads returns the first read position per name read anywhere in
// the body (RHS values, conditions, case subjects and labels, loop
// bounds, and l-value index expressions).
func blockReads(body verilog.Stmt) map[string]diag.Pos {
	reads := map[string]diag.Pos{}
	verilog.WalkStmts(body, func(s verilog.Stmt) {
		switch x := s.(type) {
		case *verilog.AssignStmt:
			addReads(x.RHS, reads)
			lhsReads(x.LHS, reads)
		case *verilog.IfStmt:
			addReads(x.Cond, reads)
		case *verilog.CaseStmt:
			addReads(x.Subject, reads)
			for _, item := range x.Items {
				for _, l := range item.Labels {
					addReads(l, reads)
				}
			}
		case *verilog.ForStmt:
			// Init/Step are assignments not visited by WalkStmts.
			if x.Init != nil {
				addReads(x.Init.RHS, reads)
				lhsReads(x.Init.LHS, reads)
			}
			addReads(x.Cond, reads)
			if x.Step != nil {
				addReads(x.Step.RHS, reads)
				lhsReads(x.Step.LHS, reads)
			}
		}
	})
	return reads
}

// ---------- definite assignment ----------

// assignSets computes the base names definitely assigned on every path
// through s (must) and on at least one path (may). The analysis is
// optimistic where it keeps false latches down: a partial (bit/part-
// select) write counts as assigning the name, and for-loop bodies are
// assumed to execute.
func assignSets(s verilog.Stmt) (must, may map[string]bool) {
	must, may = map[string]bool{}, map[string]bool{}
	switch x := s.(type) {
	case nil:
	case *verilog.AssignStmt:
		for _, n := range verilog.LHSBases(x.LHS) {
			must[n], may[n] = true, true
		}
	case *verilog.BlockStmt:
		for _, sub := range x.Stmts {
			m, a := assignSets(sub)
			union(must, m)
			union(may, a)
		}
	case *verilog.IfStmt:
		m1, a1 := assignSets(x.Then)
		union(may, a1)
		if x.Else == nil {
			return
		}
		m2, a2 := assignSets(x.Else)
		union(may, a2)
		union(must, intersect(m1, m2))
	case *verilog.CaseStmt:
		var armMusts []map[string]bool
		hasDefault := false
		for _, item := range x.Items {
			m, a := assignSets(item.Body)
			union(may, a)
			armMusts = append(armMusts, m)
			if item.Labels == nil {
				hasDefault = true
			}
		}
		// Without a default arm some activation may skip every arm, so
		// nothing is definitely assigned.
		if !hasDefault || len(armMusts) == 0 {
			return
		}
		acc := armMusts[0]
		for _, m := range armMusts[1:] {
			acc = intersect(acc, m)
		}
		union(must, acc)
	case *verilog.ForStmt:
		if x.Init != nil {
			m, a := assignSets(x.Init)
			union(must, m)
			union(may, a)
		}
		m, a := assignSets(x.Body)
		union(must, m)
		union(may, a)
		if x.Step != nil {
			m, a := assignSets(x.Step)
			union(must, m)
			union(may, a)
		}
	}
	return
}

func union(dst, src map[string]bool) {
	for k := range src {
		dst[k] = true
	}
}

func intersect(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// ---------- combinational value flow ----------

// combFlow is the result of symbolically executing one combinational
// always block in statement order.
type combFlow struct {
	// sources[t] holds the module-level signals whose current-activation
	// values can reach the value assigned to t, through data dependences
	// (right-hand sides, indices) and control dependences (enclosing
	// conditions). Reads of a name after the block itself assigned it
	// propagate that assignment's sources instead of the name — so an
	// initialise-then-accumulate loop does not count as self-dependence.
	sources map[string]map[string]bool
	// readBeforeWrite records, per name the block writes, the first
	// position where the block reads it while it is not yet definitely
	// assigned on the current path. Such a read sees the value left over
	// from the previous activation.
	readBeforeWrite map[string]diag.Pos
	// writes is the first write position per module-level name assigned
	// anywhere in the block.
	writes map[string]diag.Pos
}

// flowState is the per-path state of the symbolic walk.
type flowState struct {
	must map[string]bool            // definitely assigned so far on this path
	may  map[string]bool            // possibly assigned so far
	val  map[string]map[string]bool // value sources of assigned names
}

func newFlowState() *flowState {
	return &flowState{must: map[string]bool{}, may: map[string]bool{}, val: map[string]map[string]bool{}}
}

func (st *flowState) clone() *flowState {
	c := newFlowState()
	union(c.must, st.must)
	union(c.may, st.may)
	for k, v := range st.val {
		s := map[string]bool{}
		union(s, v)
		c.val[k] = s
	}
	return c
}

// merge joins another path into st: assigned-on-both stays definite,
// value sources accumulate.
func (st *flowState) merge(o *flowState) {
	st.must = intersect(st.must, o.must)
	union(st.may, o.may)
	for k, v := range o.val {
		if st.val[k] == nil {
			st.val[k] = map[string]bool{}
		}
		union(st.val[k], v)
	}
}

// flowWalker executes a block body symbolically.
type flowWalker struct {
	flow   *combFlow
	locals map[string]bool
}

// analyzeCombFlow runs the symbolic walk over one always-block body.
func analyzeCombFlow(body verilog.Stmt) *combFlow {
	fw := &flowWalker{
		flow: &combFlow{
			sources:         map[string]map[string]bool{},
			readBeforeWrite: map[string]diag.Pos{},
			writes:          map[string]diag.Pos{},
		},
		locals: localNames(body),
	}
	allWrites := blockWrites(body)
	for name, pos := range allWrites {
		if !fw.locals[name] {
			fw.flow.writes[name] = pos
		}
	}
	fw.walk(body, newFlowState(), map[string]bool{})
	return fw.flow
}

// exprSources resolves an expression's reads against the current path
// state: a read of a name the path has assigned propagates that value's
// sources; an unassigned (external) read contributes the name itself —
// and, when the block writes the name later, records a
// read-before-write.
func (fw *flowWalker) exprSources(e verilog.Expr, st *flowState) map[string]bool {
	srcs := map[string]bool{}
	reads := map[string]diag.Pos{}
	addReads(e, reads)
	for _, name := range sortedNames(reads) {
		local := fw.locals[name]
		if st.may[name] {
			union(srcs, st.val[name])
			if !st.must[name] && !local {
				srcs[name] = true
				fw.noteStaleRead(name, reads[name])
			}
			continue
		}
		if local {
			continue // uninitialised local: nothing external flows in
		}
		srcs[name] = true
		fw.noteStaleRead(name, reads[name])
	}
	return srcs
}

// noteStaleRead records a read of a block-written name before its
// (definite) write.
func (fw *flowWalker) noteStaleRead(name string, pos diag.Pos) {
	if _, writes := fw.flow.writes[name]; !writes {
		return
	}
	if _, seen := fw.flow.readBeforeWrite[name]; !seen {
		fw.flow.readBeforeWrite[name] = pos
	}
}

// assign applies one procedural assignment to the path state.
func (fw *flowWalker) assign(as *verilog.AssignStmt, st *flowState, ctrl map[string]bool) {
	srcs := map[string]bool{}
	union(srcs, ctrl)
	union(srcs, fw.exprSources(as.RHS, st))
	// Index/part-select bounds on the l-value are reads too.
	idxReads := map[string]diag.Pos{}
	lhsReads(as.LHS, idxReads)
	for _, name := range sortedNames(idxReads) {
		var tmp verilog.Expr = &verilog.Ident{Name: name, NamePos: idxReads[name]}
		union(srcs, fw.exprSources(tmp, st))
	}
	bases := verilog.LHSBases(as.LHS)
	partial := map[string]bool{}
	for _, n := range lhsPartialBases(as.LHS) {
		partial[n] = true
	}
	for _, t := range bases {
		newVal := map[string]bool{}
		union(newVal, srcs)
		if partial[t] && st.may[t] {
			// A partial write keeps the sources already folded into the
			// name this activation. Bits never written this activation
			// retain the previous value — that is latch-like retention
			// (L001's concern), not a combinational read, so it does
			// not become a loop edge here.
			union(newVal, st.val[t])
		}
		st.val[t] = newVal
		st.must[t], st.may[t] = true, true
		if !fw.locals[t] {
			if fw.flow.sources[t] == nil {
				fw.flow.sources[t] = map[string]bool{}
			}
		}
	}
}

// walk executes s on the path state st under control sources ctrl.
func (fw *flowWalker) walk(s verilog.Stmt, st *flowState, ctrl map[string]bool) {
	switch x := s.(type) {
	case nil:
	case *verilog.AssignStmt:
		fw.assign(x, st, ctrl)
	case *verilog.BlockStmt:
		for _, sub := range x.Stmts {
			fw.walk(sub, st, ctrl)
		}
	case *verilog.IfStmt:
		cs := map[string]bool{}
		union(cs, ctrl)
		union(cs, fw.exprSources(x.Cond, st))
		thenSt := st.clone()
		fw.walk(x.Then, thenSt, cs)
		elseSt := st.clone()
		fw.walk(x.Else, elseSt, cs)
		*st = *thenSt
		st.merge(elseSt)
	case *verilog.CaseStmt:
		cs := map[string]bool{}
		union(cs, ctrl)
		union(cs, fw.exprSources(x.Subject, st))
		hasDefault := false
		var states []*flowState
		for _, item := range x.Items {
			acs := map[string]bool{}
			union(acs, cs)
			for _, l := range item.Labels {
				union(acs, fw.exprSources(l, st))
			}
			if item.Labels == nil {
				hasDefault = true
			}
			armSt := st.clone()
			fw.walk(item.Body, armSt, acs)
			states = append(states, armSt)
		}
		if !hasDefault {
			states = append(states, st.clone()) // the fall-through path
		}
		if len(states) > 0 {
			first := states[0]
			for _, o := range states[1:] {
				first.merge(o)
			}
			*st = *first
		}
	case *verilog.ForStmt:
		if x.Init != nil {
			fw.assign(x.Init, st, ctrl)
		}
		cs := map[string]bool{}
		union(cs, ctrl)
		union(cs, fw.exprSources(x.Cond, st))
		// Two passes approximate loop-carried dependences: the second
		// iteration reads values the first produced.
		for i := 0; i < 2; i++ {
			fw.walk(x.Body, st, cs)
			if x.Step != nil {
				fw.assign(x.Step, st, cs)
			}
		}
	}
	// Record accumulated sources after every statement so nested
	// assignments are captured at their final per-path values.
	fw.commitSources(st)
}

// commitSources folds the path state's value sources into the flow
// summary (union across paths and program points).
func (fw *flowWalker) commitSources(st *flowState) {
	for t, srcs := range st.val {
		if fw.locals[t] {
			continue
		}
		if fw.flow.sources[t] == nil {
			fw.flow.sources[t] = map[string]bool{}
		}
		union(fw.flow.sources[t], srcs)
	}
}
