package sim

// Compile lowers an elaborated design into a Program: a flat, slot-indexed
// instruction form the engine (engine.go) interprets with zero steady-state
// allocations. The lowering mirrors the tree-walker's evaluation rules
// exactly — every width computation, truncation, index normalization, and
// out-of-range behaviour below is a static transcription of the
// corresponding dynamic path in walker.go, and the differential corpus
// tests hold the two to bit-identical outputs.
//
// Pipeline:
//
//  1. Slot interning — every module-level signal gets a dense register
//     index; parameters and literals become preloaded constant registers;
//     block locals become per-process temporaries.
//  2. Lowering — continuous assigns and always bodies compile to a
//     register machine (binary ops at statically-computed widths, jumps
//     for if/case/for control flow, store ops with change detection,
//     non-blocking assigns as queue ops whose apply fragments re-evaluate
//     their target indices at commit time, as the walker does).
//  3. Scheduling — a dependency graph over combinational processes
//     (writer → reader on slots; partial-bit writers also read their
//     target) is condensed with Tarjan's SCC algorithm. Acyclic processes
//     run exactly once per Settle in topological order; strongly-connected
//     groups — genuine feedback, or slots with multiple drivers — iterate
//     to a bounded fixpoint in original program order, preserving the
//     walker's oscillation detection.
//
// Every register width is static. The conditional operator is sized by
// IEEE 1364-2005 §5.4.1 (max of its branch widths, raised to the context
// width; see exprWidth), so its result width never depends on a value.
// The only constructs left without a static width are illegal Verilog:
// non-constant replication counts and non-constant part-select bounds or
// widths. Compile rejects them with an error, and such a design does not
// simulate (New returns the error). So is a program whose registers need
// more than maxProgramBits of state.

import (
	"fmt"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/sema"
	"repro/internal/verilog"
)

// opcode enumerates the engine's instruction set.
type opcode uint8

// Instruction opcodes. Naming: *C suffixed forms take a compile-time
// immediate where the base form reads a register.
const (
	opCopy    opcode = iota // dst = a resized to dst's width
	opZeroReg               // dst = 0
	opAnd                   // dst = a & b
	opOr
	opXor
	opXnor
	opNot // dst = ~a
	opNeg // dst = -a
	opAdd
	opSub
	opMul
	opDiv // low-64 quotient at a's width, 0 on division by zero
	opMod
	opShl // dst = a << b.ShiftCount() at a's width
	opShr
	opEq // 1-bit comparison results
	opNe
	opLt
	opGt
	opLe
	opGe
	opLAnd // logical: both operands already evaluated (no short-circuit)
	opLOr
	opLNot
	opRedAnd
	opRedOr
	opRedXor
	opRedNand
	opRedNor
	opRedXnor
	opPopCnt // dst(32) = $countones(a)
	opClog2  // dst(32) = $clog2(a)
	opConcat // dst = {a, b}, a in the high bits
	opRepeatC
	opBitGetC   // dst(1) = a.Bit(imm); imm pre-normalized
	opBitGet    // dst(1) = a.Bit(norm(int32(b))); mode/imm carry normalization
	opSliceC    // dst = (a >> imm) resized to dst width; imm >= 0
	opSliceDyn  // dst = (a >> norm(int32(b))) or zero when the offset is negative
	opStore     // target dst = a resized; slot stores set the changed flag
	opStoreBitC // target dst bit imm = a.Bit(0); imm pre-normalized and in range
	opStoreBit  // dynamic-index bit store; out-of-range writes dropped
	opStoreSliceC
	opStoreSliceDyn
	opNbaQueue // enqueue value a for apply fragment imm at commit
	opNbaVal   // dst = pending NBA value resized to dst width
	opJump     // pc = imm
	opJumpIfZ  // if a == 0: pc = imm
	opJumpIfNZ
	opLoopInit  // trips[imm] = 0
	opLoopGuard // error when trips[imm] reaches loopLimit, else trips[imm]++
)

// normalization modes carried in instr.mode for dynamic index/slice ops.
const (
	normNone  uint8 = 0 // locals, params, non-ident bases: index used as-is
	normDesc  uint8 = 1 // [msb:lsb] with msb >= lsb: bit = idx - lsb
	normAsc   uint8 = 2 // ascending [0:7]: bit = lsb - idx
	normMask  uint8 = 3
	minusFlag uint8 = 4 // indexed part-select [base -: w]: lo = norm(base)-w+1
)

// instr is one register-machine instruction.
type instr struct {
	op   opcode
	dst  int32
	a, b int32
	imm  int32 // shift count / bit index / jump target / fragment id
	aux  int32 // secondary immediate: store-slice width, norm LSB
	mode uint8
}

type slotMeta struct {
	name  string
	width int
}

type constEntry struct {
	reg int32
	val bitvec.Vec
}

type loopMeta struct{ line int }

// procMeta attributes one compiled process (a nodes or seq entry) back to
// the design for profiling: kind is "assign", "comb", or "seq"; line is
// the source line the process starts on. Processes index nodes first,
// then seq blocks — the same order the engine's activation counters use.
type procMeta struct {
	kind string
	line int
}

// opNames maps opcodes to the short names profiling histograms report.
// Indexed by opcode, so the array length is also the opcode count.
var opNames = [...]string{
	opCopy: "copy", opZeroReg: "zero", opAnd: "and", opOr: "or",
	opXor: "xor", opXnor: "xnor", opNot: "not", opNeg: "neg",
	opAdd: "add", opSub: "sub", opMul: "mul", opDiv: "div", opMod: "mod",
	opShl: "shl", opShr: "shr", opEq: "eq", opNe: "ne", opLt: "lt",
	opGt: "gt", opLe: "le", opGe: "ge", opLAnd: "land", opLOr: "lor",
	opLNot: "lnot", opRedAnd: "redand", opRedOr: "redor",
	opRedXor: "redxor", opRedNand: "rednand", opRedNor: "rednor",
	opRedXnor: "redxnor", opPopCnt: "popcnt", opClog2: "clog2",
	opConcat: "concat", opRepeatC: "repeat", opBitGetC: "bitgetc",
	opBitGet: "bitget", opSliceC: "slicec", opSliceDyn: "slicedyn",
	opStore: "store", opStoreBitC: "storebitc", opStoreBit: "storebit",
	opStoreSliceC: "storeslicec", opStoreSliceDyn: "storeslicedyn",
	opNbaQueue: "nbaqueue", opNbaVal: "nbaval", opJump: "jump",
	opJumpIfZ: "jumpifz", opJumpIfNZ: "jumpifnz",
	opLoopInit: "loopinit", opLoopGuard: "loopguard",
}

type edgeKey struct {
	slot int32
	edge verilog.EventEdge
}

// schedItem is one step of the Settle schedule: a single acyclic process,
// or a strongly-connected group iterated to a bounded fixpoint.
type schedItem struct {
	nodes    []int32
	fixpoint bool
}

// Program is a compiled design: immutable, safe to share across
// goroutines, instantiated per run with NewFromProgram.
type Program struct {
	design   *sema.Design
	slots    []slotMeta
	slotOf   map[string]int32
	regWidth []int
	consts   []constEntry
	initCode []instr
	nodes    [][]instr // combinational processes, original program order
	// tracked lists, per node, the slots whose before/after comparison
	// drives fixpoint change detection. nil means incremental store
	// tracking (continuous assigns, where every write is a tracked
	// write). Comb always blocks get the walker's snapshot semantics:
	// only targets of AssignStmts in the body count — for-loop
	// init/step variables are excluded, and a transient write that
	// restores the old value is no change.
	tracked [][]int32
	sched   []schedItem
	seq     [][]instr // clocked always blocks, declaration order
	edges   map[edgeKey][]int32
	frags   [][]instr // NBA apply fragments
	loops   []loopMeta
	// procs attributes processes for profiling: one entry per nodes
	// element followed by one per seq element.
	procs []procMeta
}

// Design returns the elaborated design the program was compiled from.
func (p *Program) Design() *sema.Design { return p.design }

// compileBail carries a compilation rejection up to Compile's recover.
type compileBail struct{ err error }

// Compile lowers the design. A non-nil error means the design uses a
// construct the compiler cannot express with static register widths
// (illegal Verilog; see the file comment), and such a design does not
// simulate.
func Compile(design *sema.Design) (*Program, error) {
	if design == nil {
		return nil, fmt.Errorf("sim: nil design")
	}
	c := &compiler{
		design:   design,
		prog:     &Program{design: design, slotOf: map[string]int32{}, edges: map[edgeKey][]int32{}},
		constIdx: map[string]int32{},
	}
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				if b, ok := r.(compileBail); ok {
					err = b.err
					return
				}
				panic(r)
			}
		}()
		c.run()
	}()
	if err != nil {
		return nil, err
	}
	return c.prog, nil
}

type compiler struct {
	design   *sema.Design
	prog     *Program
	constIdx map[string]int32
	code     []instr          // current emission buffer
	locals   map[string]int32 // flat per-process scope, as the walker's env
	bits     int              // register bits so far, at most maxProgramBits
}

// maxProgramBits bounds the register state of one program: signals,
// temporaries and constants together, which every instance allocates.
// sema.MaxDesignBits bounds only the declared signals; without this,
// 100 bytes of `{4096{{4096{{4096{a}}}}}}` ask each instance for 8 GiB,
// a fatal out-of-memory. The largest program of the benchmark's
// references and candidates holds 511 bits.
const maxProgramBits = 4 * sema.MaxDesignBits

func (c *compiler) failf(format string, args ...any) {
	panic(compileBail{fmt.Errorf("sim: compile: "+format, args...)})
}

// ---------- registers ----------

func (c *compiler) newTemp(width int) int32 {
	if width < 0 {
		c.failf("negative register width %d", width)
	}
	c.bits += width
	if c.bits > maxProgramBits {
		c.failf("registers need over %d bits of state", maxProgramBits)
	}
	r := int32(len(c.prog.regWidth))
	c.prog.regWidth = append(c.prog.regWidth, width)
	return r
}

func (c *compiler) regW(r int32) int { return c.prog.regWidth[r] }

// constReg interns a constant value as a preloaded read-only register.
func (c *compiler) constReg(v bitvec.Vec) int32 {
	key := v.Hex()
	if r, ok := c.constIdx[key]; ok {
		return r
	}
	r := c.newTemp(v.Width())
	c.constIdx[key] = r
	c.prog.consts = append(c.prog.consts, constEntry{reg: r, val: v})
	return r
}

func (c *compiler) emit(i instr) int {
	c.code = append(c.code, i)
	return len(c.code) - 1
}

// take finishes the current emission buffer.
func (c *compiler) take() []instr {
	out := c.code
	c.code = nil
	return out
}

// sigNorm returns the index-normalization parameters for a named base, the
// static form of the walker's normalizeIndex.
func (c *compiler) sigNorm(name string) (mode uint8, lsb int32) {
	sig := c.design.Signal(name)
	if sig == nil {
		return normNone, 0
	}
	if sig.MSB >= sig.LSB {
		return normDesc, int32(sig.LSB)
	}
	return normAsc, int32(sig.LSB)
}

// normConst applies sigNorm to a compile-time index.
func normConst(mode uint8, lsb int32, idx int) int {
	switch mode {
	case normDesc:
		return idx - int(lsb)
	case normAsc:
		return int(lsb) - idx
	}
	return idx
}

// ---------- top level ----------

func (c *compiler) run() {
	p := c.prog
	// Slot interning: deterministic order (sorted names).
	names := make([]string, 0, len(c.design.Signals))
	for name := range c.design.Signals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sig := c.design.Signals[name]
		r := c.newTemp(sig.Width())
		p.slots = append(p.slots, slotMeta{name: name, width: sig.Width()})
		p.slotOf[name] = r
	}

	// Variable declaration initializers (reg r = 0), in declaration
	// order, run once at reset. Net initializers (wire x = expr) are
	// continuous-assign shorthand and are lowered into the settle
	// schedule below instead — the walker mirrors both rules, so the
	// backends agree on init-to-init references too.
	c.locals = map[string]int32{}
	for _, item := range c.design.Module.Items {
		decl, ok := item.(*verilog.Decl)
		if !ok {
			continue
		}
		for _, dn := range decl.Names {
			if dn.Init == nil {
				continue
			}
			sig := c.design.Signal(dn.Name)
			if sig == nil || sig.Init != dn.Init {
				continue // duplicate declaration lost the merge
			}
			if !sig.Kind.IsVariable() {
				continue // net init: continuous assign, not reset code
			}
			v := c.compileExpr(dn.Init)
			c.emit(instr{op: opStore, dst: p.slotOf[dn.Name], a: v})
		}
	}
	p.initCode = c.take()

	// Collect processes in the walker's order: assigns as encountered,
	// then combinational and clocked always blocks.
	var assigns []*verilog.AssignItem
	var comb, seqB []*verilog.AlwaysBlock
	for _, item := range c.design.Module.Items {
		switch it := item.(type) {
		case *verilog.AssignItem:
			assigns = append(assigns, it)
		case *verilog.AlwaysBlock:
			if it.IsClocked() {
				seqB = append(seqB, it)
			} else {
				comb = append(comb, it)
			}
		case *verilog.Decl:
			// Net initializers join the settle schedule at their
			// declaration position (same rule as the walker).
			for _, dn := range it.Names {
				sig := c.design.Signal(dn.Name)
				if dn.Init == nil || sig == nil || sig.Init != dn.Init || sig.Kind.IsVariable() {
					continue
				}
				assigns = append(assigns, &verilog.AssignItem{
					LHS:       &verilog.Ident{Name: dn.Name, NamePos: dn.NamePos},
					RHS:       dn.Init,
					AssignPos: dn.NamePos,
				})
			}
		}
	}

	for _, a := range assigns {
		c.locals = map[string]int32{}
		v := c.compileExprCtx(a.RHS, c.lvalueWidth(a.LHS))
		c.compileAssignTo(a.LHS, v)
		p.nodes = append(p.nodes, c.take())
		p.tracked = append(p.tracked, nil)
		p.procs = append(p.procs, procMeta{kind: "assign", line: a.Pos().Line})
	}
	for _, blk := range comb {
		c.locals = map[string]int32{}
		c.compileStmt(blk.Body)
		p.nodes = append(p.nodes, c.take())
		p.tracked = append(p.tracked, c.snapshotSlots(blk))
		p.procs = append(p.procs, procMeta{kind: "comb", line: blk.Pos().Line})
	}
	for bi, blk := range seqB {
		c.locals = map[string]int32{}
		c.compileStmt(blk.Body)
		p.seq = append(p.seq, c.take())
		p.procs = append(p.procs, procMeta{kind: "seq", line: blk.Pos().Line})
		for _, ev := range blk.Events {
			id, ok := ev.Signal.(*verilog.Ident)
			if !ok || ev.Edge == verilog.EdgeNone {
				continue
			}
			slot, ok := p.slotOf[id.Name]
			if !ok {
				continue // walker ignores events on unknown names too
			}
			k := edgeKey{slot: slot, edge: ev.Edge}
			// one firing per block per edge, as the walker's break gives
			if l := p.edges[k]; len(l) == 0 || l[len(l)-1] != int32(bi) {
				p.edges[k] = append(p.edges[k], int32(bi))
			}
		}
	}

	c.schedule()
}

// declLocal mirrors the walker's flat, unscoped env map: redeclaring a
// name (a nested for loop reusing the same loop variable, a block
// redeclaring an integer) binds the SAME storage, zeroed at the
// declaration site — the walker has no shadowing, so neither does the
// compiled form. All walker locals are 32-bit.
func (c *compiler) declLocal(name string) int32 {
	if r, ok := c.locals[name]; ok {
		return r
	}
	r := c.newTemp(32)
	c.locals[name] = r
	return r
}

// snapshotSlots computes the walker's snapshotTargets set for a comb
// always block: the module signals assigned by AssignStmts reachable in
// the body (for-loop init/step assignments are not statements of the
// body and do not count).
func (c *compiler) snapshotSlots(blk *verilog.AlwaysBlock) []int32 {
	seen := map[int32]bool{}
	out := []int32{} // non-nil: empty means "no tracked targets", not "incremental"
	verilog.WalkStmts(blk.Body, func(st verilog.Stmt) {
		a, ok := st.(*verilog.AssignStmt)
		if !ok {
			return
		}
		for _, name := range verilog.LHSBases(a.LHS) {
			if slot, ok := c.prog.slotOf[name]; ok && !seen[slot] {
				seen[slot] = true
				out = append(out, slot)
			}
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---------- dependency scheduling ----------

// instrReads reports which of an instruction's a/b fields are register
// reads — the unused fields are zero-initialized and must not be
// mistaken for references to slot 0.
func instrReads(op opcode) (ra, rb bool) {
	switch op {
	case opZeroReg, opJump, opLoopInit, opLoopGuard, opNbaVal:
		return false, false
	case opCopy, opNot, opNeg, opLNot,
		opRedAnd, opRedOr, opRedXor, opRedNand, opRedNor, opRedXnor,
		opPopCnt, opClog2, opRepeatC, opBitGetC, opSliceC,
		opStore, opStoreBitC, opStoreSliceC, opNbaQueue,
		opJumpIfZ, opJumpIfNZ:
		return true, false
	default: // binary ops, comparisons, dynamic index/slice/store forms
		return true, true
	}
}

// nodeDeps extracts the slots a process reads and writes by scanning its
// instructions (and any NBA fragments it queues). Partial-bit writers
// count their target as a read: the unwritten bits flow from the previous
// value, which is real feedback the fixpoint handling must see.
func (c *compiler) nodeDeps(code []instr) (reads, writes map[int32]bool) {
	nSlots := int32(len(c.prog.slots))
	reads, writes = map[int32]bool{}, map[int32]bool{}
	var scan func(code []instr)
	scan = func(code []instr) {
		for _, in := range code {
			ra, rb := instrReads(in.op)
			if ra && in.a < nSlots {
				reads[in.a] = true
			}
			if rb && in.b < nSlots {
				reads[in.b] = true
			}
			switch in.op {
			case opStore:
				if in.dst < nSlots {
					writes[in.dst] = true
				}
			case opStoreBitC, opStoreBit, opStoreSliceC, opStoreSliceDyn:
				if in.dst < nSlots {
					writes[in.dst] = true
					reads[in.dst] = true
				}
			case opNbaQueue:
				scan(c.prog.frags[in.imm])
			}
		}
	}
	scan(code)
	return reads, writes
}

// schedule builds the Settle schedule: Tarjan SCCs over the writer→reader
// graph, emitted in topological order.
func (c *compiler) schedule() {
	p := c.prog
	n := len(p.nodes)
	if n == 0 {
		return
	}
	readsOf := make([]map[int32]bool, n)
	selfFeed := make([]bool, n)
	writersOf := map[int32][]int{}
	for i, code := range p.nodes {
		reads, writes := c.nodeDeps(code)
		readsOf[i] = reads
		for s := range writes {
			writersOf[s] = append(writersOf[s], i)
			if reads[s] {
				selfFeed[i] = true
			}
		}
	}
	// adjacency: writer → reader; multiple writers of one slot are tied
	// into a cycle so they land in one fixpoint group and replicate the
	// walker's last-writer-per-round (and oscillation) behaviour.
	adj := make([][]int, n)
	addEdge := func(from, to int) { adj[from] = append(adj[from], to) }
	slotList := make([]int32, 0, len(writersOf))
	for s := range writersOf {
		slotList = append(slotList, s)
	}
	sort.Slice(slotList, func(i, j int) bool { return slotList[i] < slotList[j] })
	for _, s := range slotList {
		ws := writersOf[s]
		for i := 0; i < n; i++ {
			if readsOf[i][s] {
				for _, w := range ws {
					if w != i {
						addEdge(w, i)
					}
				}
			}
		}
		if len(ws) > 1 {
			for _, a := range ws {
				for _, b := range ws {
					if a != b {
						addEdge(a, b)
					}
				}
			}
		}
	}

	sccs := Tarjan(adj)
	// Tarjan pops callees first: reverse for writers-before-readers order.
	for i := len(sccs) - 1; i >= 0; i-- {
		scc := sccs[i]
		sort.Ints(scc) // walker round order within a group
		item := schedItem{fixpoint: len(scc) > 1}
		for _, ni := range scc {
			if selfFeed[ni] {
				item.fixpoint = true
			}
			item.nodes = append(item.nodes, int32(ni))
		}
		p.sched = append(p.sched, item)
	}
}

// Tarjan returns the strongly connected components of the adjacency
// list adj (node i's successors are adj[i]), in reverse topological
// order: a component is emitted only after every component it reaches.
// The engine scheduler uses it for writers-before-readers process
// ordering; the semantic lint engine (internal/analyze) reuses it for
// combinational-loop detection.
func Tarjan(adj [][]int) [][]int {
	n := len(adj)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var sccs [][]int
	next := 0
	var strong func(v int)
	strong = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] < 0 {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] < 0 {
			strong(v)
		}
	}
	return sccs
}

// ---------- statements ----------

func (c *compiler) compileStmt(s verilog.Stmt) {
	switch st := s.(type) {
	case nil, *verilog.NullStmt:
	case *verilog.BlockStmt:
		for _, d := range st.Decls {
			for _, dn := range d.Names {
				// Block locals are fixed 32-bit in the walker regardless
				// of any declared range; zeroed at every block entry.
				c.emit(instr{op: opZeroReg, dst: c.declLocal(dn.Name)})
			}
		}
		for _, sub := range st.Stmts {
			c.compileStmt(sub)
		}
	case *verilog.AssignStmt:
		v := c.compileExprCtx(st.RHS, c.lvalueWidth(st.LHS))
		if st.Blocking {
			c.compileAssignTo(st.LHS, v)
		} else {
			frag := c.compileNbaFragment(st.LHS, c.regW(v))
			c.emit(instr{op: opNbaQueue, a: v, imm: frag})
		}
	case *verilog.IfStmt:
		cond := c.compileExpr(st.Cond)
		jz := c.emit(instr{op: opJumpIfZ, a: cond})
		c.compileStmt(st.Then)
		if st.Else == nil {
			c.code[jz].imm = int32(len(c.code))
			return
		}
		jmp := c.emit(instr{op: opJump})
		c.code[jz].imm = int32(len(c.code))
		c.compileStmt(st.Else)
		c.code[jmp].imm = int32(len(c.code))
	case *verilog.CaseStmt:
		c.compileCase(st)
	case *verilog.ForStmt:
		if st.LoopVar != "" {
			c.emit(instr{op: opZeroReg, dst: c.declLocal(st.LoopVar)})
		}
		if st.Init != nil {
			c.compileStmt(st.Init)
		}
		loopID := int32(len(c.prog.loops))
		c.prog.loops = append(c.prog.loops, loopMeta{line: st.Pos().Line})
		c.emit(instr{op: opLoopInit, imm: loopID})
		top := int32(len(c.code))
		c.emit(instr{op: opLoopGuard, imm: loopID})
		if st.Cond == nil {
			c.failf("for loop without condition at line %d", st.Pos().Line)
		}
		cond := c.compileExpr(st.Cond)
		jz := c.emit(instr{op: opJumpIfZ, a: cond})
		c.compileStmt(st.Body)
		if st.Step != nil {
			c.compileStmt(st.Step)
		}
		c.emit(instr{op: opJump, imm: top})
		c.code[jz].imm = int32(len(c.code))
	default:
		c.failf("unsupported statement at line %d", s.Pos().Line)
	}
}

// compileCase lowers case/casez/casex: labels tested in declaration
// order, first match jumps to its body, the (last) default runs when
// nothing matches.
func (c *compiler) compileCase(st *verilog.CaseStmt) {
	subj := c.compileExpr(st.Subject)
	subjW := c.regW(subj)
	type arm struct {
		item  verilog.CaseItem
		jumps []int // test-site indices to patch to the arm's body
	}
	var arms []arm
	var deflt verilog.Stmt
	hasDefault := false
	for _, item := range st.Items {
		if item.Labels == nil {
			deflt = item.Body
			hasDefault = true
			continue
		}
		a := arm{item: item}
		for _, l := range item.Labels {
			t := c.compileCaseTest(st.Kind, subj, subjW, l)
			a.jumps = append(a.jumps, c.emit(instr{op: opJumpIfNZ, a: t}))
		}
		arms = append(arms, a)
	}
	var endJumps []int
	if hasDefault {
		c.compileStmt(deflt)
	}
	endJumps = append(endJumps, c.emit(instr{op: opJump}))
	for _, a := range arms {
		body := int32(len(c.code))
		for _, j := range a.jumps {
			c.code[j].imm = body
		}
		c.compileStmt(a.item.Body)
		endJumps = append(endJumps, c.emit(instr{op: opJump}))
	}
	end := int32(len(c.code))
	for _, j := range endJumps {
		c.code[j].imm = end
	}
}

// compileCaseTest emits a 1-bit register holding "label matches subject".
func (c *compiler) compileCaseTest(kind verilog.CaseKind, subj int32, subjW int, label verilog.Expr) int32 {
	if kind != verilog.CasePlain {
		if num, ok := label.(*verilog.Number); ok {
			val, care, err := num.WildcardMask(kind == verilog.CaseX)
			if err != nil {
				c.failf("bad case label at line %d: %v", label.Pos().Line, err)
			}
			careR := care.Resize(subjW)
			valR := val.Resize(subjW).And(careR)
			masked := c.newTemp(subjW)
			c.emit(instr{op: opAnd, dst: masked, a: subj, b: c.constReg(careR)})
			dst := c.newTemp(1)
			c.emit(instr{op: opEq, dst: dst, a: masked, b: c.constReg(valR)})
			return dst
		}
	}
	lv := c.compileExpr(label)
	if c.regW(lv) > subjW {
		// the walker truncates the label to the subject's width before
		// comparing; Eq zero-extends, so only truncation needs a copy
		t := c.newTemp(subjW)
		c.emit(instr{op: opCopy, dst: t, a: lv})
		lv = t
	}
	dst := c.newTemp(1)
	c.emit(instr{op: opEq, dst: dst, a: lv, b: subj})
	return dst
}

// ---------- l-values ----------

// lvalueWidth mirrors the walker's assignment-context width rule.
func (c *compiler) lvalueWidth(lhs verilog.Expr) int {
	switch x := lhs.(type) {
	case *verilog.Ident:
		if sig := c.design.Signal(x.Name); sig != nil {
			return sig.Width()
		}
		if r, ok := c.locals[x.Name]; ok {
			return c.regW(r)
		}
	case *verilog.Index:
		return 1
	case *verilog.Slice:
		if id, ok := x.X.(*verilog.Ident); ok {
			if _, w, ok := c.staticSliceBounds(id.Name, x); ok {
				return w
			}
			// An indexed part-select's width is static even when its
			// base is dynamic — the walker's runtime sliceBounds returns
			// the same w for any base value, and the RHS context width
			// must keep the carry: q[sel +: 8] = a + b.
			if x.Kind == verilog.SelectPlus || x.Kind == verilog.SelectMinus {
				if wv, ok := c.constEval(x.Lo); ok {
					if w := constInt(wv); w > 0 {
						return w
					}
				}
			}
		}
	case *verilog.Concat:
		total := 0
		for _, el := range x.Elems {
			total += c.lvalueWidth(el)
		}
		return total
	}
	return 1
}

// targetReg resolves an assignment target name the way the walker's write
// does: local first, then module signal. The bool reports a slot (change
// detection applies) versus a local.
func (c *compiler) targetReg(name string, pos int) int32 {
	if r, ok := c.locals[name]; ok {
		return r
	}
	if r, ok := c.prog.slotOf[name]; ok {
		return r
	}
	// The walker would adopt an undeclared target as a fresh local and
	// report "changed" forever; such designs never pass sema, so reject.
	c.failf("assignment to undeclared %q at line %d", name, pos)
	return 0
}

// compileAssignTo emits the stores for a blocking assignment of src into
// lhs, mirroring the walker's assignTo.
func (c *compiler) compileAssignTo(lhs verilog.Expr, src int32) {
	switch x := lhs.(type) {
	case *verilog.Ident:
		tr := c.targetReg(x.Name, lhs.Pos().Line)
		c.emit(instr{op: opStore, dst: tr, a: src})
	case *verilog.Index:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return // walker drops writes through non-ident bases
		}
		tr := c.targetReg(id.Name, lhs.Pos().Line)
		mode, lsb := c.sigNorm(id.Name)
		if iv, ok := c.constEval(x.Idx); ok {
			idx := normConst(mode, lsb, constInt(iv))
			if idx < 0 || idx >= c.regW(tr) {
				return // static out-of-range write: dropped, like X
			}
			c.emit(instr{op: opStoreBitC, dst: tr, a: src, imm: int32(idx)})
			return
		}
		idxR := c.compileExpr(x.Idx)
		c.emit(instr{op: opStoreBit, dst: tr, a: src, b: idxR, imm: lsb, mode: mode})
	case *verilog.Slice:
		id, ok := x.X.(*verilog.Ident)
		if !ok {
			return
		}
		tr := c.targetReg(id.Name, lhs.Pos().Line)
		c.compileSliceStore(id.Name, tr, x, src)
	case *verilog.Concat:
		// {a, b} = v assigns the low bits to the rightmost element.
		offset := 0
		for i := len(x.Elems) - 1; i >= 0; i-- {
			el := x.Elems[i]
			w := c.lvalueWidth(el)
			part := c.newTemp(w)
			c.emit(instr{op: opSliceC, dst: part, a: src, imm: int32(offset)})
			c.compileAssignTo(el, part)
			offset += w
		}
	}
}

// compileSliceStore emits a part-select store. Only indexed selects may
// have a dynamic base; constant selects must fold (sema guarantees it for
// designs that reach simulation).
//
// When the RHS register IS the store target (q[4:1] = q reaches here with
// src == tr, because compileExprCtx returns wide-enough idents without a
// copy), the multi-bit store would read source bits it already overwrote.
// The walker snapshots the RHS before writing, so the compiled form copies
// the aliased source into a temporary first. Single-bit stores read their
// one source bit before writing and need no copy.
func (c *compiler) compileSliceStore(name string, tr int32, sl *verilog.Slice, src int32) {
	if src == tr {
		t := c.newTemp(c.regW(src))
		c.emit(instr{op: opCopy, dst: t, a: src})
		src = t
	}
	mode, lsb := c.sigNorm(name)
	switch sl.Kind {
	case verilog.SelectConst:
		hi, okH := c.constEval(sl.Hi)
		lo, okL := c.constEval(sl.Lo)
		if !okH || !okL {
			c.failf("non-constant part-select bounds at line %d", sl.Pos().Line)
		}
		hiN := normConst(mode, lsb, constInt(hi))
		loN := normConst(mode, lsb, constInt(lo))
		if hiN < loN {
			hiN, loN = loN, hiN
		}
		c.emit(instr{op: opStoreSliceC, dst: tr, a: src, imm: int32(loN), aux: int32(hiN - loN + 1)})
	case verilog.SelectPlus, verilog.SelectMinus:
		wv, ok := c.constEval(sl.Lo)
		if !ok {
			c.failf("non-constant part-select width at line %d", sl.Pos().Line)
		}
		w := constInt(wv)
		if w <= 0 {
			return // walker: unresolvable bounds, write dropped
		}
		m := mode
		if sl.Kind == verilog.SelectMinus {
			m |= minusFlag
		}
		if bv, ok := c.constEval(sl.Hi); ok {
			lo := normConst(mode, lsb, constInt(bv))
			if sl.Kind == verilog.SelectMinus {
				lo = lo - w + 1
			}
			c.emit(instr{op: opStoreSliceC, dst: tr, a: src, imm: int32(lo), aux: int32(w)})
			return
		}
		base := c.compileExpr(sl.Hi)
		c.emit(instr{op: opStoreSliceDyn, dst: tr, a: src, b: base, imm: lsb, aux: int32(w), mode: m})
	}
}

// compileNbaFragment builds the commit-time apply code for a non-blocking
// assignment. The fragment re-evaluates target indices at commit, exactly
// as the walker's commitNBA does (its queue stores the target expression,
// not resolved offsets), so loop-variable indices observe their final
// values.
func (c *compiler) compileNbaFragment(lhs verilog.Expr, valWidth int) int32 {
	saved := c.code
	c.code = nil
	val := c.newTemp(valWidth)
	c.emit(instr{op: opNbaVal, dst: val})
	c.compileAssignTo(lhs, val)
	frag := c.take()
	c.code = saved
	id := int32(len(c.prog.frags))
	c.prog.frags = append(c.prog.frags, frag)
	return id
}

// ---------- expressions ----------

// constInt converts a folded constant to the walker's int interpretation
// (wrap to signed 32-bit).
func constInt(v bitvec.Vec) int {
	return int(int32(uint32(v.Uint64())))
}

// constEval folds expressions whose leaves are literals and parameters,
// mirroring the walker's runtime evaluation of the same nodes. The false
// return means "not a compile-time constant", not an error; a malformed
// literal, which the walker faults on at run time, aborts compilation.
func (c *compiler) constEval(x verilog.Expr) (bitvec.Vec, bool) {
	switch n := x.(type) {
	case *verilog.Number:
		v, err := n.Value()
		if err != nil {
			c.failf("bad literal at line %d: %v", n.Pos().Line, err)
		}
		return v, true
	case *verilog.Ident:
		if _, shadowed := c.locals[n.Name]; shadowed {
			return bitvec.Vec{}, false
		}
		if v, ok := c.design.Params[n.Name]; ok {
			return v, true
		}
		return bitvec.Vec{}, false
	case *verilog.Unary:
		v, ok := c.constEval(n.X)
		if !ok {
			return bitvec.Vec{}, false
		}
		out, err := evalUnary(n.Op, v)
		if err != nil {
			return bitvec.Vec{}, false
		}
		return out, true
	case *verilog.Binary:
		a, okA := c.constEval(n.X)
		b, okB := c.constEval(n.Y)
		if !okA || !okB {
			return bitvec.Vec{}, false
		}
		out, err := evalBinary(n.Op, a, b)
		if err != nil {
			return bitvec.Vec{}, false
		}
		return out, true
	case *verilog.Ternary:
		cv, ok := c.constEval(n.Cond)
		if !ok {
			return bitvec.Vec{}, false
		}
		if cv.Bool() {
			return c.constEval(n.Then)
		}
		return c.constEval(n.Else)
	}
	return bitvec.Vec{}, false
}

// resolveRead mirrors the walker's env.read order: locals, parameters,
// module signals.
func (c *compiler) resolveRead(n *verilog.Ident) int32 {
	if r, ok := c.locals[n.Name]; ok {
		return r
	}
	if v, ok := c.design.Params[n.Name]; ok {
		return c.constReg(v)
	}
	if r, ok := c.prog.slotOf[n.Name]; ok {
		return r
	}
	c.failf("read of unknown signal %q at line %d", n.Name, n.Pos().Line)
	return 0
}

// compileExprCtx compiles x in an assignment context of the given width
// (the walker's evalCtx): operands of arithmetic and bitwise operators
// are extended to the assignment width before the operation.
func (c *compiler) compileExprCtx(x verilog.Expr, width int) int32 {
	switch n := x.(type) {
	case *verilog.Number:
		v, err := n.Value()
		if err != nil {
			c.failf("bad literal at line %d: %v", n.Pos().Line, err)
		}
		if v.Width() < width {
			v = v.Resize(width)
		}
		return c.constReg(v)
	case *verilog.Ident:
		r := c.resolveRead(n)
		if c.regW(r) < width {
			t := c.newTemp(width)
			c.emit(instr{op: opCopy, dst: t, a: r})
			return t
		}
		return r
	case *verilog.Unary:
		switch n.Op {
		case "~", "-", "+":
			return c.emitUnary(n.Op, c.compileExprCtx(n.X, width))
		}
		return c.compileExpr(x)
	case *verilog.Binary:
		switch n.Op {
		case "+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~":
			a := c.compileExprCtx(n.X, width)
			b := c.compileExprCtx(n.Y, width)
			return c.emitBinary(n.Op, a, b)
		case "<<", ">>", "<<<", ">>>":
			a := c.compileExprCtx(n.X, width)
			b := c.compileExpr(n.Y) // shift amount is self-determined
			return c.emitBinary(n.Op, a, b)
		}
		return c.compileExpr(x)
	case *verilog.Ternary:
		return c.compileTernary(n, width)
	default:
		return c.compileExpr(x)
	}
}

// compileTernary lowers cond ? j : k with both branches writing one
// destination register, sized as the walker's evalTernary: max(L(j),
// L(k)) bits raised to ctxWidth (0 where self-determined), both branches
// compiled at that width.
func (c *compiler) compileTernary(n *verilog.Ternary, ctxWidth int) int32 {
	w, err := exprWidth(c, n)
	if err != nil {
		panic(compileBail{err})
	}
	w = max(w, ctxWidth)
	dst := c.newTemp(w)
	cond := c.compileExpr(n.Cond)
	jz := c.emit(instr{op: opJumpIfZ, a: cond})
	c.emit(instr{op: opCopy, dst: dst, a: c.compileExprCtx(n.Then, w)})
	jmp := c.emit(instr{op: opJump})
	c.code[jz].imm = int32(len(c.code))
	c.emit(instr{op: opCopy, dst: dst, a: c.compileExprCtx(n.Else, w)})
	c.code[jmp].imm = int32(len(c.code))
	return dst
}

// nameWidth, sliceWidth and replCount make the compiler exprWidth's
// sizer: each answers from the value the lowering itself uses.
func (c *compiler) nameWidth(n *verilog.Ident) (int, error) {
	return c.regW(c.resolveRead(n)), nil
}

// sliceWidth is the width compileSliceRead gives n; it fails the compile
// where that width is not a constant.
func (c *compiler) sliceWidth(n *verilog.Slice) (int, error) {
	if n.Kind == verilog.SelectConst {
		if _, w, ok := c.staticSliceBounds(identName(n.X), n); ok {
			return w, nil
		}
		c.failf("non-constant part-select bounds at line %d", n.Pos().Line)
	}
	wv, ok := c.constEval(n.Lo)
	if !ok {
		c.failf("non-constant part-select width at line %d", n.Pos().Line)
	}
	w := constInt(wv)
	if w <= 0 {
		c.failf("unresolvable part-select at line %d", n.Pos().Line)
	}
	return w, nil
}

func (c *compiler) replCount(n *verilog.Repl) (int, error) {
	cv, ok := c.constEval(n.Count)
	if !ok {
		c.failf("non-constant replication count at line %d", n.Pos().Line)
	}
	cnt := int(cv.Uint64())
	if cnt < 0 || cnt > 4096 {
		c.failf("replication count %d out of bounds at line %d", cnt, n.Pos().Line)
	}
	return cnt, nil
}

// compileExpr compiles x self-determined (the walker's eval).
func (c *compiler) compileExpr(x verilog.Expr) int32 {
	switch n := x.(type) {
	case *verilog.Number:
		v, err := n.Value()
		if err != nil {
			c.failf("bad literal at line %d: %v", n.Pos().Line, err)
		}
		return c.constReg(v)
	case *verilog.Ident:
		return c.resolveRead(n)
	case *verilog.Unary:
		return c.emitUnary(n.Op, c.compileExpr(n.X))
	case *verilog.Binary:
		a := c.compileExpr(n.X)
		b := c.compileExpr(n.Y)
		return c.emitBinary(n.Op, a, b)
	case *verilog.Ternary:
		return c.compileTernary(n, 0)
	case *verilog.Concat:
		var cur int32 = -1
		for _, el := range n.Elems {
			v := c.compileExpr(el)
			if cur < 0 {
				cur = v
				continue
			}
			t := c.newTemp(c.regW(cur) + c.regW(v))
			c.emit(instr{op: opConcat, dst: t, a: cur, b: v})
			cur = t
		}
		if cur < 0 {
			return c.constReg(bitvec.New(0))
		}
		return cur
	case *verilog.Repl:
		cnt, _ := c.replCount(n)
		v := c.compileExpr(n.Value)
		dst := c.newTemp(cnt * c.regW(v))
		c.emit(instr{op: opRepeatC, dst: dst, a: v, imm: int32(cnt)})
		return dst
	case *verilog.Index:
		base := c.compileExpr(n.X)
		mode, lsb := c.sigNorm(identName(n.X))
		if iv, ok := c.constEval(n.Idx); ok {
			idx := normConst(mode, lsb, constInt(iv))
			if idx < 0 || idx >= c.regW(base) {
				return c.constReg(bitvec.FromUint64(1, 0)) // out-of-range read: 0
			}
			dst := c.newTemp(1)
			c.emit(instr{op: opBitGetC, dst: dst, a: base, imm: int32(idx)})
			return dst
		}
		idxR := c.compileExpr(n.Idx)
		dst := c.newTemp(1)
		c.emit(instr{op: opBitGet, dst: dst, a: base, b: idxR, imm: lsb, mode: mode})
		return dst
	case *verilog.Slice:
		return c.compileSliceRead(n)
	case *verilog.Call:
		return c.compileCall(n)
	}
	c.failf("unsupported expression at line %d", x.Pos().Line)
	return 0
}

// staticSliceBounds resolves a part-select to (lo, width) when every
// bound folds, mirroring the walker's sliceBounds.
func (c *compiler) staticSliceBounds(name string, sl *verilog.Slice) (lo, width int, ok bool) {
	mode, lsb := c.sigNorm(name)
	switch sl.Kind {
	case verilog.SelectConst:
		hv, okH := c.constEval(sl.Hi)
		lv, okL := c.constEval(sl.Lo)
		if !okH || !okL {
			return 0, 0, false
		}
		hiN := normConst(mode, lsb, constInt(hv))
		loN := normConst(mode, lsb, constInt(lv))
		if hiN < loN {
			hiN, loN = loN, hiN
		}
		return loN, hiN - loN + 1, true
	case verilog.SelectPlus, verilog.SelectMinus:
		wv, okW := c.constEval(sl.Lo)
		if !okW {
			return 0, 0, false
		}
		w := constInt(wv)
		if w <= 0 {
			return 0, 0, false
		}
		bv, okB := c.constEval(sl.Hi)
		if !okB {
			return 0, 0, false
		}
		l := normConst(mode, lsb, constInt(bv))
		if sl.Kind == verilog.SelectMinus {
			l = l - w + 1
		}
		return l, w, true
	}
	return 0, 0, false
}

func (c *compiler) compileSliceRead(n *verilog.Slice) int32 {
	base := c.compileExpr(n.X)
	name := identName(n.X)
	mode, lsb := c.sigNorm(name)
	if lo, w, ok := c.staticSliceBounds(name, n); ok {
		if lo < 0 {
			return c.constReg(bitvec.New(w))
		}
		dst := c.newTemp(w)
		c.emit(instr{op: opSliceC, dst: dst, a: base, imm: int32(lo)})
		return dst
	}
	w, _ := c.sliceWidth(n) // dynamic base: the width must still be static
	m := mode
	if n.Kind == verilog.SelectMinus {
		m |= minusFlag
	}
	baseR := c.compileExpr(n.Hi)
	dst := c.newTemp(w)
	c.emit(instr{op: opSliceDyn, dst: dst, a: base, b: baseR, imm: lsb, mode: m})
	return dst
}

func (c *compiler) compileCall(n *verilog.Call) int32 {
	switch n.Name {
	case "$signed", "$unsigned":
		if len(n.Args) == 1 {
			return c.compileExpr(n.Args[0])
		}
	case "$clog2":
		if len(n.Args) == 1 {
			v := c.compileExpr(n.Args[0])
			dst := c.newTemp(32)
			c.emit(instr{op: opClog2, dst: dst, a: v})
			return dst
		}
	case "$countones":
		if len(n.Args) == 1 {
			v := c.compileExpr(n.Args[0])
			dst := c.newTemp(32)
			c.emit(instr{op: opPopCnt, dst: dst, a: v})
			return dst
		}
	}
	c.failf("unsupported system function %s at line %d", n.Name, n.Pos().Line)
	return 0
}

// emitUnary mirrors evalUnary's result widths.
func (c *compiler) emitUnary(op string, a int32) int32 {
	w := c.regW(a)
	emit1 := func(o opcode, dw int) int32 {
		dst := c.newTemp(dw)
		c.emit(instr{op: o, dst: dst, a: a})
		return dst
	}
	switch op {
	case "~":
		return emit1(opNot, w)
	case "-":
		return emit1(opNeg, w)
	case "+":
		return a
	case "!":
		return emit1(opLNot, 1)
	case "&":
		return emit1(opRedAnd, 1)
	case "|":
		return emit1(opRedOr, 1)
	case "^":
		return emit1(opRedXor, 1)
	case "~&":
		return emit1(opRedNand, 1)
	case "~|":
		return emit1(opRedNor, 1)
	case "~^":
		return emit1(opRedXnor, 1)
	}
	c.failf("unsupported unary operator %q", op)
	return 0
}

// emitBinary mirrors evalBinary's result widths: arithmetic and bitwise
// ops at the wider operand width, division at the left operand's width,
// shifts at the left operand's width, comparisons at one bit.
func (c *compiler) emitBinary(op string, a, b int32) int32 {
	wa, wb := c.regW(a), c.regW(b)
	wmax := wa
	if wb > wmax {
		wmax = wb
	}
	emit2 := func(o opcode, dw int) int32 {
		dst := c.newTemp(dw)
		c.emit(instr{op: o, dst: dst, a: a, b: b})
		return dst
	}
	switch op {
	case "+":
		return emit2(opAdd, wmax)
	case "-":
		return emit2(opSub, wmax)
	case "*":
		return emit2(opMul, wmax)
	case "/":
		return emit2(opDiv, wa)
	case "%":
		return emit2(opMod, wa)
	case "&":
		return emit2(opAnd, wmax)
	case "|":
		return emit2(opOr, wmax)
	case "^":
		return emit2(opXor, wmax)
	case "~^", "^~":
		return emit2(opXnor, wmax)
	case "<<", "<<<":
		return emit2(opShl, wa)
	case ">>", ">>>":
		return emit2(opShr, wa)
	case "==", "===":
		return emit2(opEq, 1)
	case "!=", "!==":
		return emit2(opNe, 1)
	case "<":
		return emit2(opLt, 1)
	case ">":
		return emit2(opGt, 1)
	case "<=":
		return emit2(opLe, 1)
	case ">=":
		return emit2(opGe, 1)
	case "&&":
		return emit2(opLAnd, 1)
	case "||":
		return emit2(opLOr, 1)
	}
	c.failf("unsupported binary operator %q", op)
	return 0
}
