package analyze

import (
	"sort"
	"strings"

	"repro/internal/diag"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// combAlways reports whether the block is level-sensitive (always @(*)
// or an edge-free event list). Blocks with no event control at all are
// not combinational.
func combAlways(a *verilog.AlwaysBlock) bool {
	if a.Star {
		return true
	}
	return len(a.Events) > 0 && !a.IsClocked()
}

func quoteList(names []string) string {
	quoted := make([]string, len(names))
	for i, n := range names {
		quoted[i] = "'" + n + "'"
	}
	return strings.Join(quoted, ", ")
}

// ---------- L001 inferred-latch ----------

func runInferredLatch(p *pass) {
	for _, item := range p.mod.Items {
		a, ok := item.(*verilog.AlwaysBlock)
		if !ok || !combAlways(a) {
			continue
		}
		must, may := assignSets(a.Body)
		locals := localNames(a.Body)
		for _, name := range sortedNames(may) {
			if must[name] || locals[name] {
				continue
			}
			sig := p.signal(name)
			if sig == nil || !sig.IsVariable() {
				continue
			}
			p.report(a.Pos(), nil, name,
				"'%s' is not assigned on every path through this combinational always block; a latch is inferred to hold its previous value", name)
		}
	}
}

// ---------- L002 incomplete-sensitivity ----------

func runIncompleteSensitivity(p *pass) {
	for _, item := range p.mod.Items {
		a, ok := item.(*verilog.AlwaysBlock)
		if !ok || a.Star || !combAlways(a) {
			continue
		}
		listed := map[string]bool{}
		for _, ev := range a.Events {
			names := map[string]diag.Pos{}
			addReads(ev.Signal, names)
			for n := range names {
				listed[n] = true
			}
		}
		reads := blockReads(a.Body)
		writes := blockWrites(a.Body)
		locals := localNames(a.Body)
		var missing []string
		for _, name := range sortedNames(reads) {
			if listed[name] || locals[name] {
				continue
			}
			if _, written := writes[name]; written {
				continue // the block's own outputs need no sensitivity
			}
			if p.signal(name) == nil {
				continue // parameters and unknowns are constant or already reported
			}
			missing = append(missing, name)
		}
		if len(missing) > 0 {
			p.report(a.Pos(), nil, missing[0],
				"sensitivity list omits %s; the block reads them but will not wake when they change (use @(*) to be safe)", quoteList(missing))
		}
	}
}

// ---------- L003 nonblocking-in-comb / L004 blocking-in-seq ----------

func runNonblockingInComb(p *pass) {
	for _, item := range p.mod.Items {
		a, ok := item.(*verilog.AlwaysBlock)
		if !ok || !combAlways(a) {
			continue
		}
		verilog.WalkStmts(a.Body, func(s verilog.Stmt) {
			as, ok := s.(*verilog.AssignStmt)
			if !ok || as.Blocking {
				return
			}
			sym := ""
			if bases := verilog.LHSBases(as.LHS); len(bases) > 0 {
				sym = bases[0]
			}
			p.report(as.Pos(), nil, sym,
				"nonblocking assignment '<=' in a combinational always block; use '=' so the value settles within the same activation")
		})
	}
}

func runBlockingInSeq(p *pass) {
	for _, item := range p.mod.Items {
		a, ok := item.(*verilog.AlwaysBlock)
		if !ok || !a.IsClocked() {
			continue
		}
		locals := localNames(a.Body)
		verilog.WalkStmts(a.Body, func(s verilog.Stmt) {
			as, ok := s.(*verilog.AssignStmt)
			if !ok || !as.Blocking {
				return
			}
			for _, name := range verilog.LHSBases(as.LHS) {
				if locals[name] {
					continue
				}
				sig := p.signal(name)
				if sig == nil {
					continue
				}
				// Blocking updates of loop indices and scratch integers
				// inside clocked blocks are idiomatic.
				switch sig.Kind {
				case verilog.KindInteger, verilog.KindInt, verilog.KindGenvar:
					continue
				}
				p.report(as.Pos(), nil, name,
					"blocking assignment '=' to '%s' in a clocked always block; use '<=' so every register captures its pre-edge value", name)
				return
			}
		})
	}
}

// ---------- L005 write-race ----------

func runWriteRace(p *pass) {
	alwaysSites := map[string][]diag.Pos{}
	contSites := map[string][]diag.Pos{}
	for _, item := range p.mod.Items {
		switch it := item.(type) {
		case *verilog.AssignItem:
			for _, name := range verilog.LHSBases(it.LHS) {
				contSites[name] = append(contSites[name], it.Pos())
			}
		case *verilog.Decl:
			for _, dn := range it.Names {
				if dn.Init != nil {
					contSites[dn.Name] = append(contSites[dn.Name], dn.NamePos)
				}
			}
		case *verilog.AlwaysBlock:
			locals := localNames(it.Body)
			for _, name := range sortedNames(blockWrites(it.Body)) {
				if locals[name] {
					continue
				}
				alwaysSites[name] = append(alwaysSites[name], blockWrites(it.Body)[name])
			}
		}
	}
	for _, name := range sortedNames(alwaysSites) {
		if p.signal(name) == nil {
			continue
		}
		sites := alwaysSites[name]
		if len(sites) > 1 {
			p.report(sites[0], sites[1:], name,
				"'%s' is written from %d different always blocks; the writes race and last-writer-wins order is a simulation artifact", name, len(sites))
		}
		if cs := contSites[name]; len(cs) > 0 {
			related := append(append([]diag.Pos(nil), sites[1:]...), cs...)
			p.report(sites[0], related, name,
				"'%s' is written by both procedural and continuous assignments; the two drivers fight", name)
		}
	}
}

// ---------- L006 comb-loop ----------

func runCombLoop(p *pass) {
	if p.design.Signals == nil {
		return
	}
	names := sortedNames(p.design.Signals)
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	edges := make([]map[int]bool, len(names))
	addEdge := func(src, dst string) {
		si, ok1 := idx[src]
		di, ok2 := idx[dst]
		if !ok1 || !ok2 {
			return
		}
		if edges[si] == nil {
			edges[si] = map[int]bool{}
		}
		edges[si][di] = true
	}
	contDrive := func(lhs, rhs verilog.Expr) {
		srcs := map[string]diag.Pos{}
		addReads(rhs, srcs)
		lhsReads(lhs, srcs)
		for _, t := range verilog.LHSBases(lhs) {
			for _, s := range sortedNames(srcs) {
				addEdge(s, t)
			}
		}
	}
	for _, item := range p.mod.Items {
		switch it := item.(type) {
		case *verilog.AssignItem:
			contDrive(it.LHS, it.RHS)
		case *verilog.Decl:
			for _, dn := range it.Names {
				if dn.Init != nil {
					contDrive(&verilog.Ident{Name: dn.Name, NamePos: dn.NamePos}, dn.Init)
				}
			}
		case *verilog.AlwaysBlock:
			if !combAlways(it) {
				continue
			}
			flow := analyzeCombFlow(it.Body)
			for _, t := range sortedNames(flow.sources) {
				for _, s := range sortedNames(flow.sources[t]) {
					addEdge(s, t)
				}
			}
		}
	}
	adj := make([][]int, len(names))
	for i, es := range edges {
		for _, d := range sortedInts(es) {
			adj[i] = append(adj[i], d)
		}
	}
	for _, scc := range sim.Tarjan(adj) {
		selfLoop := len(scc) == 1 && edges[scc[0]] != nil && edges[scc[0]][scc[0]]
		if len(scc) < 2 && !selfLoop {
			continue
		}
		cycle := make([]string, len(scc))
		for i, n := range scc {
			cycle[i] = names[n]
		}
		sort.Strings(cycle)
		first := p.signal(cycle[0])
		pos := diag.Pos{Line: 1}
		if first != nil {
			pos = first.Pos
		}
		var related []diag.Pos
		for _, n := range cycle[1:] {
			if sig := p.signal(n); sig != nil {
				related = append(related, sig.Pos)
			}
		}
		p.report(pos, related, cycle[0],
			"combinational loop through %s; no register breaks the cycle, so the value oscillates or locks up", quoteList(cycle))
	}
}

func sortedInts(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// ---------- L007 width-trunc ----------

func runWidthTrunc(p *pass) {
	check := func(lhs, rhs verilog.Expr, pos diag.Pos) {
		lw, okL := p.widthOf(lhs)
		rw, okR := p.widthOf(rhs)
		if !okL || !okR || lw == rw {
			return
		}
		// sema's own width checker handles the cases it can compute;
		// this rule covers only what sema deliberately leaves unknown
		// (operator results, sized literals, mixed shapes).
		if _, semaL := p.design.StaticWidth(lhs); semaL {
			if _, semaR := p.design.StaticWidth(rhs); semaR {
				return
			}
		}
		sym := ""
		if bases := verilog.LHSBases(lhs); len(bases) > 0 {
			sym = bases[0]
		}
		if rw > lw {
			if num, ok := rhs.(*verilog.Number); ok && !literalNeedsBits(num, lw) {
				return // wide literal whose value still fits the target
			}
			p.report(pos, nil, sym,
				"expression produces %d bits but the assignment target is %d bits wide; the upper %d bits are silently dropped", rw, lw, rw-lw)
			return
		}
		// Extension is only worth flagging when the RHS shape was built
		// by hand to a specific width (concatenation or replication).
		switch rhs.(type) {
		case *verilog.Concat, *verilog.Repl:
			p.report(pos, nil, sym,
				"expression produces %d bits but the assignment target is %d bits wide; the upper %d bits are zero-filled", rw, lw, lw-rw)
		}
	}
	for _, item := range p.mod.Items {
		switch it := item.(type) {
		case *verilog.AssignItem:
			check(it.LHS, it.RHS, it.Pos())
		case *verilog.Decl:
			for _, dn := range it.Names {
				if dn.Init != nil {
					check(&verilog.Ident{Name: dn.Name, NamePos: dn.NamePos}, dn.Init, dn.NamePos)
				}
			}
		case *verilog.AlwaysBlock:
			verilog.WalkStmts(it.Body, func(s verilog.Stmt) {
				if as, ok := s.(*verilog.AssignStmt); ok {
					check(as.LHS, as.RHS, as.Pos())
				}
			})
		}
	}
}

// literalNeedsBits reports whether the literal's value has significant
// bits at or above position w.
func literalNeedsBits(n *verilog.Number, w int) bool {
	v, err := n.Value()
	if err != nil {
		return false
	}
	for i := w; i < v.Width(); i++ {
		if v.Bit(i) {
			return true
		}
	}
	return false
}

// ---------- L008 read-before-write ----------

func runReadBeforeWrite(p *pass) {
	for _, item := range p.mod.Items {
		a, ok := item.(*verilog.AlwaysBlock)
		if !ok || !combAlways(a) {
			continue
		}
		flow := analyzeCombFlow(a.Body)
		for _, name := range sortedNames(flow.readBeforeWrite) {
			sig := p.signal(name)
			if sig == nil || !sig.IsVariable() {
				continue
			}
			p.report(flow.readBeforeWrite[name], nil, name,
				"'%s' is read before this combinational block assigns it; the read returns the previous activation's value (an X risk in 4-state simulation)", name)
		}
	}
}

// ---------- L009 dead-signal ----------

func runDeadSignal(p *pass) {
	reads := map[string]diag.Pos{}
	writes := map[string]diag.Pos{}
	noteWrites := func(lhs verilog.Expr, pos diag.Pos) {
		for _, n := range verilog.LHSBases(lhs) {
			if _, ok := writes[n]; !ok {
				writes[n] = pos
			}
		}
	}
	for _, item := range p.mod.Items {
		switch it := item.(type) {
		case *verilog.AssignItem:
			addReads(it.RHS, reads)
			lhsReads(it.LHS, reads)
			noteWrites(it.LHS, it.Pos())
		case *verilog.Decl:
			for _, dn := range it.Names {
				if dn.Init != nil {
					addReads(dn.Init, reads)
					writes[dn.Name] = dn.NamePos
				}
			}
		case *verilog.AlwaysBlock:
			for _, ev := range it.Events {
				addReads(ev.Signal, reads)
			}
			for n, pos := range blockReads(it.Body) {
				if _, ok := reads[n]; !ok {
					reads[n] = pos
				}
			}
			for n, pos := range blockWrites(it.Body) {
				if _, ok := writes[n]; !ok {
					writes[n] = pos
				}
			}
		case *verilog.InitialBlock:
			for n, pos := range blockReads(it.Body) {
				if _, ok := reads[n]; !ok {
					reads[n] = pos
				}
			}
			for n, pos := range blockWrites(it.Body) {
				if _, ok := writes[n]; !ok {
					writes[n] = pos
				}
			}
		}
	}
	for _, name := range signalDeclOrder(p.mod) {
		sig := p.signal(name)
		if sig == nil {
			continue
		}
		_, read := reads[name]
		_, written := writes[name]
		switch sig.Dir {
		case verilog.DirOutput, verilog.DirInout:
			continue // read externally by the instantiating context
		case verilog.DirInput:
			if !read {
				p.report(sig.Pos, nil, name, "input '%s' is never read by the module", name)
			}
			continue
		}
		switch {
		case !read && !written:
			p.report(sig.Pos, nil, name, "'%s' is declared but never used", name)
		case !read:
			p.report(sig.Pos, nil, name, "'%s' is written but never read; the logic feeding it is dead", name)
		}
	}
}

// signalDeclOrder lists module-level signal names in declaration order
// (ports first, then body declarations), deduplicated.
func signalDeclOrder(m *verilog.Module) []string {
	var out []string
	seen := map[string]bool{}
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, pd := range m.Ports {
		add(pd.Name)
	}
	for _, item := range m.Items {
		switch it := item.(type) {
		case *verilog.PortItem:
			add(it.Name)
		case *verilog.Decl:
			for _, dn := range it.Names {
				add(dn.Name)
			}
		}
	}
	return out
}

// ---------- L010 alias-hazard ----------

func runAliasHazard(p *pass) {
	// Pattern A: a part-select store whose right-hand side (or index
	// expressions) reads the same base signal — the exact shape behind
	// the alias_slice_store / dynamic_self_slice engine regressions.
	for _, item := range p.mod.Items {
		a, ok := item.(*verilog.AlwaysBlock)
		if !ok {
			continue
		}
		verilog.WalkStmts(a.Body, func(s verilog.Stmt) {
			as, ok := s.(*verilog.AssignStmt)
			if !ok {
				return
			}
			partials := lhsPartialBases(as.LHS)
			if len(partials) == 0 {
				return
			}
			reads := map[string]diag.Pos{}
			addReads(as.RHS, reads)
			lhsReads(as.LHS, reads)
			reported := map[string]bool{}
			for _, base := range partials {
				if reported[base] || p.signal(base) == nil {
					continue
				}
				if _, selfRead := reads[base]; !selfRead {
					continue
				}
				reported[base] = true
				p.report(as.Pos(), nil, base,
					"part-select of '%s' is assigned from '%s' itself; the overlapping read and write alias the same storage and the result depends on evaluation order", base, base)
			}
		})
	}

	// Pattern B: a module-scope loop variable shared as a for index
	// across several always blocks while indexing nonblocking updates —
	// the shared_loop_var_nba regression. Commits re-evaluate the index
	// at the end of the time step, reading whichever loop finished last.
	type varUse struct {
		forSites []diag.Pos
		blocks   map[int]bool
		nbaIndex bool
	}
	uses := map[string]*varUse{}
	blockNo := 0
	for _, item := range p.mod.Items {
		a, ok := item.(*verilog.AlwaysBlock)
		if !ok {
			continue
		}
		blockNo++
		locals := localNames(a.Body)
		verilog.WalkStmts(a.Body, func(s verilog.Stmt) {
			f, ok := s.(*verilog.ForStmt)
			if !ok || f.Init == nil {
				return
			}
			id, ok := f.Init.LHS.(*verilog.Ident)
			if !ok || locals[id.Name] || p.signal(id.Name) == nil {
				return
			}
			u := uses[id.Name]
			if u == nil {
				u = &varUse{blocks: map[int]bool{}}
				uses[id.Name] = u
			}
			if !u.blocks[blockNo] {
				u.blocks[blockNo] = true
				u.forSites = append(u.forSites, f.Pos())
			}
		})
	}
	// Second sweep: an NBA index read in any block marks the variable,
	// regardless of which block declared its loops.
	for _, item := range p.mod.Items {
		a, ok := item.(*verilog.AlwaysBlock)
		if !ok {
			continue
		}
		verilog.WalkStmts(a.Body, func(s verilog.Stmt) {
			as, ok := s.(*verilog.AssignStmt)
			if !ok || as.Blocking {
				return
			}
			idxReads := map[string]diag.Pos{}
			lhsReads(as.LHS, idxReads)
			for n := range idxReads {
				if u := uses[n]; u != nil {
					u.nbaIndex = true
				}
			}
		})
	}
	for _, name := range sortedNames(uses) {
		u := uses[name]
		if len(u.blocks) < 2 || !u.nbaIndex {
			continue
		}
		p.report(u.forSites[0], u.forSites[1:], name,
			"loop variable '%s' is shared by %d always blocks and indexes nonblocking assignments; the deferred updates read whatever value '%s' holds after all loops finish", name, len(u.blocks), name)
	}
}
