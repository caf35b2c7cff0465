package sim

// engine interprets a compiled Program. All value storage — one
// preallocated bitvec register per slot, constant, and temporary — is
// owned by the engine instance, so steady-state cycles (SetInput, Settle,
// ClockPulse) perform zero heap allocations; the bitvec in-place
// operations keep even multi-word vectors allocation-free, and ≤64-bit
// designs stay on the single-word fast paths throughout.

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/resilience"
	"repro/internal/verilog"
	"repro/internal/wave"
)

type engine struct {
	p      *Program
	regs   []bitvec.Vec
	nSlots int
	// nba is the pending non-blocking-assignment queue: fragment ids
	// paired with value snapshots. Both slices retain capacity across
	// commits; nbaVals entries grow monotonically to the widest value
	// ever queued in their position.
	nba     []int32
	nbaVals []bitvec.Vec
	curNBA  bitvec.Vec // value being applied by the running fragment
	trips   []uint64   // per loop: trips since its opLoopInit
	// Fixpoint change detection. Continuous assigns track incrementally
	// (trackStores gates the store ops' reporting); comb always blocks
	// compare their tracked slots against the shadow copies taken before
	// the run, reproducing the walker's snapshot semantics.
	changed     bool
	trackStores bool
	shadow      []bitvec.Vec
	// wd, when armed via Simulator.SetWatchdog, is checked inside the
	// settle fixpoint and charged every loop trip, so a runaway group
	// or loop nest is canceled mid-settle.
	wd *resilience.Watchdog
	// Profiling counters, nil unless enabled via the facade. Every hot-path
	// touch is behind a nil check so the disabled engine stays at zero
	// allocations and near-zero overhead per cycle.
	opCounts  []uint64 // per-opcode executed-instruction histogram
	actCounts []uint64 // per-process activations: nodes then seq blocks
	fixIters  []uint64 // per sched item: fixpoint iterations run
	settles   uint64   // Settle calls while profiling
}

func (e *engine) setWatchdog(wd *resilience.Watchdog) { e.wd = wd }

// enableActivations (re)arms per-process activation counting; counters
// are zeroed so each run reads as its own delta.
func (e *engine) enableActivations() {
	n := len(e.p.nodes) + len(e.p.seq)
	if len(e.actCounts) != n {
		e.actCounts = make([]uint64, n)
		return
	}
	for i := range e.actCounts {
		e.actCounts[i] = 0
	}
}

func (e *engine) activationCounts() []uint64 { return e.actCounts }

// enableProfile (re)arms full execution profiling: opcode histogram,
// fixpoint iteration counts, and activation counters, all three carved
// from one slice on first use.
func (e *engine) enableProfile() {
	if e.opCounts == nil {
		nOps, nSched := len(opNames), len(e.p.sched)
		c := make([]uint64, nOps+nSched+len(e.p.nodes)+len(e.p.seq))
		e.opCounts = c[:nOps:nOps]
		e.fixIters = c[nOps : nOps+nSched : nOps+nSched]
		e.actCounts = c[nOps+nSched:]
	} else {
		clear(e.opCounts)
		clear(e.fixIters)
	}
	e.settles = 0
	e.enableActivations()
}

// profileSnapshot renders the counters; nil when profiling is off.
func (e *engine) profileSnapshot() *wave.EngineProfile {
	if e.opCounts == nil {
		return nil
	}
	prof := &wave.EngineProfile{Settles: e.settles}
	nOps := 0
	for _, n := range e.opCounts {
		if n > 0 {
			nOps++
		}
	}
	prof.Ops = make([]wave.OpCount, 0, nOps)
	for op, n := range e.opCounts {
		if n > 0 {
			prof.Instructions += n
			prof.Ops = append(prof.Ops, wave.OpCount{Op: opNames[op], Count: n})
		}
	}
	for si := range e.p.sched {
		if !e.p.sched[si].fixpoint || e.fixIters[si] == 0 {
			continue
		}
		prof.FixpointGroups++
		prof.FixpointIters += e.fixIters[si]
		if e.fixIters[si] > prof.MaxGroupIters {
			prof.MaxGroupIters = e.fixIters[si]
		}
	}
	prof.Processes = make([]wave.ProcessStat, len(e.p.procs))
	for i, pm := range e.p.procs {
		prof.Processes[i] = wave.ProcessStat{Kind: pm.kind, Line: pm.line, Activations: e.actCounts[i]}
	}
	prof.Sort()
	return prof
}

// newEngine instantiates p in a constant number of allocations: the
// register and shadow vectors share one Vec slice, and their words and
// the loop trip counters are carved from one arena.
func newEngine(p *Program) *engine {
	nRegs, nLoops := len(p.regWidth), len(p.loops)
	vecs := make([]bitvec.Vec, nRegs+len(p.slots))
	arena := make([]uint64, nLoops+p.arena)
	e := &engine{
		p:      p,
		regs:   vecs[:nRegs:nRegs],
		shadow: vecs[nRegs:],
		nSlots: len(p.slots),
		trips:  arena[:nLoops:nLoops],
	}
	arena = arena[nLoops:]
	consts := p.consts
	for i, w := range p.regWidth {
		if len(consts) > 0 && int(consts[0].reg) == i {
			// Constant registers share the program's vectors: the
			// compiler never emits a write to them.
			e.regs[i] = consts[0].val
			consts = consts[1:]
			continue
		}
		e.regs[i], arena = bitvec.Carve(arena, w)
	}
	for i, sig := range p.slots {
		e.shadow[i], arena = bitvec.Carve(arena, sig.Width)
	}
	e.runInit()
	return e
}

func (e *engine) runInit() {
	// Initializer code cannot fault: every construct that could (bad
	// literals, unbounded loops) is rejected at compile time.
	_ = e.exec(e.p.initCode)
}

// Reset zeroes every signal in place and re-applies declaration
// initializers, reusing all backing storage.
func (e *engine) Reset() {
	for i := 0; i < e.nSlots; i++ {
		e.regs[i].Zero()
	}
	e.nba = e.nba[:0]
	e.runInit()
}

// Get returns the live value of a signal. The vector is valid until the
// next simulator mutation.
func (e *engine) Get(name string) bitvec.Vec {
	if slot, ok := e.p.slotOf[name]; ok {
		return e.regs[slot]
	}
	return bitvec.New(1)
}

// SetInput drives a signal and fires any edge-sensitive blocks the change
// triggers.
func (e *engine) SetInput(name string, v bitvec.Vec) error {
	slot, ok := e.p.slotOf[name]
	if !ok {
		return fmt.Errorf("sim: no signal %q", name)
	}
	old := e.regs[slot].Bit(0)
	e.regs[slot].CopyResize(v)
	return e.afterDrive(slot, old)
}

// SetInputUint drives a signal from a uint64 without allocating.
func (e *engine) SetInputUint(name string, v uint64) error {
	slot, ok := e.p.slotOf[name]
	if !ok {
		return fmt.Errorf("sim: no signal %q", name)
	}
	old := e.regs[slot].Bit(0)
	e.regs[slot].SetUint64(v)
	return e.afterDrive(slot, old)
}

// port is the signal's slot. Every signal of the design has one, and
// callers resolve only those.
func (e *engine) port(name string) int32 { return e.p.slotOf[name] }

func (e *engine) value(slot int32) bitvec.Vec { return e.regs[slot] }

// drive sets a slot from raw words without allocating.
func (e *engine) drive(slot int32, words []uint64) error {
	old := e.regs[slot].Bit(0)
	e.regs[slot].SetWords(words)
	return e.afterDrive(slot, old)
}

func (e *engine) afterDrive(slot int32, oldBit bool) error {
	newBit := e.regs[slot].Bit(0)
	if oldBit == newBit {
		return nil
	}
	edge := verilog.EdgeNeg
	if newBit {
		edge = verilog.EdgePos
	}
	blocks := e.p.edges[edgeKey{slot: slot, edge: edge}]
	if len(blocks) == 0 {
		return nil
	}
	for _, bi := range blocks {
		if e.actCounts != nil {
			e.actCounts[len(e.p.nodes)+int(bi)]++
		}
		if err := e.exec(e.p.seq[bi]); err != nil {
			return err
		}
	}
	return e.commitNBA()
}

// Settle runs the compiled schedule: topologically-ordered processes once
// each, strongly-connected groups to a bounded fixpoint.
func (e *engine) Settle() error {
	if e.opCounts != nil {
		e.settles++
	}
	for si := range e.p.sched {
		item := &e.p.sched[si]
		if !item.fixpoint {
			for _, ni := range item.nodes {
				if err := e.runNode(ni); err != nil {
					return err
				}
			}
			continue
		}
		settled := false
		for iter := 0; iter < settleLimit; iter++ {
			if err := e.wd.Check(); err != nil {
				return err
			}
			if e.fixIters != nil {
				e.fixIters[si]++
			}
			e.changed = false
			for _, ni := range item.nodes {
				if err := e.runNodeTracked(ni); err != nil {
					return err
				}
			}
			if !e.changed {
				settled = true
				break
			}
		}
		if !settled {
			return fmt.Errorf("sim: combinational logic did not settle (possible feedback loop)")
		}
	}
	return nil
}

func (e *engine) runNode(ni int32) error {
	if e.actCounts != nil {
		e.actCounts[ni]++
	}
	if err := e.exec(e.p.nodes[ni]); err != nil {
		return err
	}
	return e.commitNBA()
}

// runNodeTracked runs a node inside a fixpoint group with the walker's
// change-detection semantics for its kind.
func (e *engine) runNodeTracked(ni int32) error {
	tracked := e.p.tracked[ni]
	if tracked == nil {
		// continuous assign: every effective slot store is a change
		e.trackStores = true
		err := e.runNode(ni)
		e.trackStores = false
		return err
	}
	for _, s := range tracked {
		e.shadow[s].CopyResize(e.regs[s])
	}
	if err := e.runNode(ni); err != nil {
		return err
	}
	for _, s := range tracked {
		if !e.regs[s].Eq(e.shadow[s]) {
			e.changed = true
			break
		}
	}
	return nil
}

func (e *engine) commitNBA() error {
	for qi := 0; qi < len(e.nba); qi++ {
		e.curNBA = e.nbaVals[qi]
		if err := e.exec(e.p.frags[e.nba[qi]]); err != nil {
			return err
		}
	}
	e.nba = e.nba[:0]
	return nil
}

// dynIdx reproduces the walker's index arithmetic: the raw value wraps to
// signed 32-bit, then the declared range maps it to a zero-based offset.
func dynIdx(raw uint64, mode uint8, lsb int32) int {
	idx := int(int32(uint32(raw)))
	switch mode & normMask {
	case normDesc:
		return idx - int(lsb)
	case normAsc:
		return int(lsb) - idx
	}
	return idx
}

// exec interprets one instruction sequence.
func (e *engine) exec(code []instr) error {
	regs := e.regs
	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		if e.opCounts != nil {
			e.opCounts[in.op]++
		}
		switch in.op {
		case opCopy:
			regs[in.dst].CopyResize(regs[in.a])
		case opZeroReg:
			regs[in.dst].Zero()
		case opAnd:
			regs[in.dst].AndOf(regs[in.a], regs[in.b])
		case opOr:
			regs[in.dst].OrOf(regs[in.a], regs[in.b])
		case opXor:
			regs[in.dst].XorOf(regs[in.a], regs[in.b])
		case opXnor:
			regs[in.dst].XnorOf(regs[in.a], regs[in.b])
		case opNot:
			regs[in.dst].NotOf(regs[in.a])
		case opNeg:
			regs[in.dst].NegOf(regs[in.a])
		case opAdd:
			regs[in.dst].AddOf(regs[in.a], regs[in.b])
		case opSub:
			regs[in.dst].SubOf(regs[in.a], regs[in.b])
		case opMul:
			regs[in.dst].MulOf(regs[in.a], regs[in.b])
		case opDiv:
			regs[in.dst].DivLowOf(regs[in.a], regs[in.b])
		case opMod:
			regs[in.dst].ModLowOf(regs[in.a], regs[in.b])
		case opShl:
			regs[in.dst].ShlOf(regs[in.a], regs[in.b].ShiftCount())
		case opShr:
			regs[in.dst].ShrOf(regs[in.a], regs[in.b].ShiftCount())
		case opEq:
			regs[in.dst].SetBool(regs[in.a].Eq(regs[in.b]))
		case opNe:
			regs[in.dst].SetBool(!regs[in.a].Eq(regs[in.b]))
		case opLt:
			regs[in.dst].SetBool(regs[in.a].Ult(regs[in.b]))
		case opGt:
			regs[in.dst].SetBool(regs[in.b].Ult(regs[in.a]))
		case opLe:
			regs[in.dst].SetBool(!regs[in.b].Ult(regs[in.a]))
		case opGe:
			regs[in.dst].SetBool(!regs[in.a].Ult(regs[in.b]))
		case opLAnd:
			regs[in.dst].SetBool(regs[in.a].Bool() && regs[in.b].Bool())
		case opLOr:
			regs[in.dst].SetBool(regs[in.a].Bool() || regs[in.b].Bool())
		case opLNot:
			regs[in.dst].SetBool(!regs[in.a].Bool())
		case opRedAnd:
			regs[in.dst].SetBool(regs[in.a].AllOnes())
		case opRedOr:
			regs[in.dst].SetBool(regs[in.a].Bool())
		case opRedXor:
			regs[in.dst].SetBool(regs[in.a].PopCount()&1 == 1)
		case opRedNand:
			regs[in.dst].SetBool(!regs[in.a].AllOnes())
		case opRedNor:
			regs[in.dst].SetBool(!regs[in.a].Bool())
		case opRedXnor:
			regs[in.dst].SetBool(regs[in.a].PopCount()&1 == 0)
		case opPopCnt:
			regs[in.dst].SetUint64(uint64(regs[in.a].PopCount()))
		case opClog2:
			regs[in.dst].SetUint64(uint64(bitvec.Clog2(regs[in.a].Uint64())))
		case opConcat:
			regs[in.dst].ConcatOf(regs[in.a], regs[in.b])
		case opRepeatC:
			regs[in.dst].RepeatOf(regs[in.a], int(in.imm))
		case opBitGetC:
			regs[in.dst].SetBool(regs[in.a].Bit(int(in.imm)))
		case opBitGet:
			idx := dynIdx(regs[in.b].Uint64(), in.mode, in.imm)
			regs[in.dst].SetBool(regs[in.a].Bit(idx))
		case opSliceC:
			regs[in.dst].ShrOf(regs[in.a], int(in.imm))
		case opSliceDyn:
			lo := dynIdx(regs[in.b].Uint64(), in.mode, in.imm)
			if in.mode&minusFlag != 0 {
				lo = lo - regs[in.dst].Width() + 1
			}
			if lo < 0 {
				regs[in.dst].Zero()
			} else {
				regs[in.dst].ShrOf(regs[in.a], lo)
			}
		case opStore:
			dst := &regs[in.dst]
			if !dst.EqResized(regs[in.a]) {
				dst.CopyResize(regs[in.a])
				if e.trackStores && int(in.dst) < e.nSlots {
					e.changed = true
				}
			}
		case opStoreBitC:
			dst := &regs[in.dst]
			nb := regs[in.a].Bit(0)
			if dst.Bit(int(in.imm)) != nb {
				dst.SetBitInPlace(int(in.imm), nb)
				if e.trackStores && int(in.dst) < e.nSlots {
					e.changed = true
				}
			}
		case opStoreBit:
			idx := dynIdx(regs[in.b].Uint64(), in.mode, in.imm)
			dst := &regs[in.dst]
			if idx < 0 || idx >= dst.Width() {
				break // dynamic out-of-range write: dropped, like X
			}
			nb := regs[in.a].Bit(0)
			if dst.Bit(idx) != nb {
				dst.SetBitInPlace(idx, nb)
				if e.trackStores && int(in.dst) < e.nSlots {
					e.changed = true
				}
			}
		case opStoreSliceC:
			if regs[in.dst].StoreSliceOf(regs[in.a], int(in.imm), int(in.aux)) &&
				e.trackStores && int(in.dst) < e.nSlots {
				e.changed = true
			}
		case opStoreSliceDyn:
			lo := dynIdx(regs[in.b].Uint64(), in.mode, in.imm)
			if in.mode&minusFlag != 0 {
				lo = lo - int(in.aux) + 1
			}
			if regs[in.dst].StoreSliceOf(regs[in.a], lo, int(in.aux)) &&
				e.trackStores && int(in.dst) < e.nSlots {
				e.changed = true
			}
		case opNbaQueue:
			e.enqueueNBA(in.imm, regs[in.a])
		case opNbaVal:
			regs[in.dst].CopyResize(e.curNBA)
		case opJump:
			pc = int(in.imm) - 1
		case opJumpIfZ:
			if regs[in.a].IsZero() {
				pc = int(in.imm) - 1
			}
		case opJumpIfNZ:
			if !regs[in.a].IsZero() {
				pc = int(in.imm) - 1
			}
		case opLoopInit:
			e.trips[in.imm] = 0
		case opLoopGuard:
			if e.trips[in.imm] >= loopLimit {
				return fmt.Errorf("sim: for loop at line %d exceeded %d iterations",
					e.p.loops[in.imm].line, loopLimit)
			}
			e.trips[in.imm]++
			if e.wd != nil {
				if err := e.wd.Trip(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// enqueueNBA snapshots a value into the queue, reusing storage from
// earlier cycles. A position's vector is regrown only when a wider value
// arrives, so steady-state operation does not allocate.
func (e *engine) enqueueNBA(frag int32, v bitvec.Vec) {
	n := len(e.nba)
	e.nba = append(e.nba, frag)
	if n < len(e.nbaVals) {
		if e.nbaVals[n].Width() < v.Width() {
			e.nbaVals[n] = bitvec.New(v.Width())
		}
		e.nbaVals[n].CopyResize(v)
		return
	}
	fresh := bitvec.New(v.Width())
	fresh.CopyResize(v)
	e.nbaVals = append(e.nbaVals, fresh)
}
