// Package fuzz generates hazard-biased Verilog modules, runs them
// differentially through the compiled engine and the tree-walker via
// the shared sim diff path, and delta-debugs any diverging module down
// to a minimal repro emitted as a ready-to-paste Go test case.
//
// The generator is seeded and size-bounded: the same seed always yields
// the same module, so a campaign over a seed range is exactly
// reproducible (CI runs a fixed range; failures replay locally with
// cmd/fuzz -seed). Rather than sampling the whole grammar uniformly it
// is biased toward the constructs where the two backends have
// historically disagreed: aliasing part-select stores, blocking/NBA
// mixes inside one block, shared loop-variable names across same-edge
// blocks, dynamic indices, and multi-driven variables.
package fuzz

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/inject"
)

// GenConfig bounds the generated module's size.
type GenConfig struct {
	// MaxBlocks caps the number of always blocks. Zero defaults to 3.
	MaxBlocks int
	// MaxStmts caps the statements per block. Zero defaults to 4.
	MaxStmts int
	// MutateProb is the probability of layering one inject.Hazards()
	// mutator on top of the generated module, in [0,1]. Negative
	// disables mutation; zero defaults to 0.5.
	MutateProb float64
	// AliasBias, in (0,1], redraws that fraction of non-hazard statement
	// picks into the alias-hazard shapes (self-aliasing slice stores,
	// shared-loop-variable dynamic indexing) the analyzer's L010 rule
	// models. Zero — the default — draws no extra random numbers, so the
	// generated stream is byte-identical to earlier campaigns and CI
	// replays stay valid.
	AliasBias float64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.MaxBlocks == 0 {
		c.MaxBlocks = 3
	}
	if c.MaxStmts == 0 {
		c.MaxStmts = 4
	}
	if c.MutateProb == 0 {
		c.MutateProb = 0.5
	}
	return c
}

// Generate produces one module from seed under the default bounds.
func Generate(seed int64) string {
	return GenerateWith(seed, GenConfig{})
}

// GenerateWith produces one module from seed under cfg. The output is
// deterministic in (seed, cfg).
func GenerateWith(seed int64, cfg GenConfig) string {
	cfg = cfg.withDefaults()
	g := &generator{rng: rand.New(rand.NewSource(seed)), cfg: cfg}
	src := g.module()
	if cfg.MutateProb > 0 && g.rng.Float64() < cfg.MutateProb {
		muts := inject.Hazards()
		m := muts[g.rng.Intn(len(muts))]
		if out, _, ok := m.Apply(src, g.rng); ok {
			src = out
		}
	}
	return src
}

type signal struct {
	name  string
	width int
	isReg bool
}

type generator struct {
	rng *rand.Rand
	cfg GenConfig

	inputs   []signal
	outputs  []signal
	internal []signal
	// combDriven marks signals a combinational block drives. Wire
	// inits and comb-block expressions must not read them: a comb
	// process reading another comb process's output (or its own) can
	// have several valid fixpoints, and the walker's declaration-order
	// settle and the engine's topo-order settle may legitimately pick
	// different ones. Clocked state is fair game everywhere.
	combDriven map[string]bool
	// restricted is set while generating comb-block bodies and wire
	// inits; readable() then drops comb-driven signals from the pool.
	restricted bool
}

// combExpr emits an expression for a continuous-assign context: the
// readable pool excludes comb-driven signals for the duration.
func (g *generator) combExpr(depth int) string {
	g.restricted = true
	defer func() { g.restricted = false }()
	return g.expr(depth)
}

func (g *generator) width() int {
	// Bias toward widths that straddle interesting boundaries: 1,
	// sub-byte, byte, and just past a word boundary on occasion.
	switch g.rng.Intn(10) {
	case 0:
		return 1
	case 1, 2:
		return 2 + g.rng.Intn(3) // 2..4
	case 3, 4, 5, 6:
		return 5 + g.rng.Intn(8) // 5..12
	case 7, 8:
		return 16
	default:
		return 33 + g.rng.Intn(32) // multi-word vectors
	}
}

// blockPlan fixes a block's kind and target before any body text is
// generated, so combDriven is complete when expressions are drawn.
type blockPlan struct {
	clocked bool
	tgt     signal
}

func (g *generator) module() string {
	g.combDriven = map[string]bool{}
	g.inputs = []signal{{name: "clk", width: 1}}
	nin := 2 + g.rng.Intn(2)
	for i := 0; i < nin; i++ {
		g.inputs = append(g.inputs, signal{name: fmt.Sprintf("d%d", i), width: g.width()})
	}
	nout := 1 + g.rng.Intn(3)
	for i := 0; i < nout; i++ {
		g.outputs = append(g.outputs, signal{name: fmt.Sprintf("q%d", i), width: g.width(), isReg: true})
	}

	// Plan every block first. Targets are segregated by kind: one
	// signal never gets both a comb and a clocked driver (that mix is
	// another order-ambiguity source), but two same-kind blocks may
	// share a target to exercise multi-driver block ordering.
	nblk := 1 + g.rng.Intn(g.cfg.MaxBlocks)
	plans := make([]blockPlan, nblk)
	owned := map[string]bool{} // target -> clocked?
	for i := range plans {
		clocked := g.rng.Intn(3) != 0
		tgt, ok := g.target(clocked, owned)
		if !ok {
			// Every output is owned by the other kind; join it.
			clocked = !clocked
			tgt, _ = g.target(clocked, owned)
		}
		plans[i] = blockPlan{clocked: clocked, tgt: tgt}
		if !clocked {
			g.combDriven[tgt.name] = true
		}
	}

	var b strings.Builder
	b.WriteString("module fz(")
	for i, in := range g.inputs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("input ")
		b.WriteString(rangeOf(in.width))
		b.WriteString(in.name)
	}
	for _, out := range g.outputs {
		b.WriteString(", output reg ")
		b.WriteString(rangeOf(out.width))
		b.WriteString(out.name)
	}
	b.WriteString(");\n")

	// Module-level loop variable, shared by name across blocks — the
	// per-block scoping hazard needs this to live at module scope.
	b.WriteString("\tinteger i;\n")

	// A couple of internal nets for assign chains and extra state.
	// Their inits are continuous assigns, so they draw from the same
	// restricted pool as comb blocks (no comb-driven reads) and are
	// published only after their init is generated (no self-reads).
	nw := g.rng.Intn(3)
	for i := 0; i < nw; i++ {
		s := signal{name: fmt.Sprintf("t%d", i), width: g.width()}
		init := g.combExpr(2)
		g.internal = append(g.internal, s)
		b.WriteString("\twire ")
		b.WriteString(rangeOf(s.width))
		b.WriteString(s.name)
		b.WriteString(" = ")
		b.WriteString(init)
		b.WriteString(";\n")
	}

	for _, plan := range plans {
		g.block(&b, plan)
	}
	b.WriteString("endmodule\n")
	return b.String()
}

func rangeOf(w int) string {
	if w == 1 {
		return ""
	}
	return fmt.Sprintf("[%d:0] ", w-1)
}

// readable returns the pool of signals legal on a RHS. In restricted
// mode (comb bodies, wire inits) comb-driven signals are excluded.
func (g *generator) readable() []signal {
	pool := make([]signal, 0, len(g.inputs)+len(g.internal)+len(g.outputs))
	pool = append(pool, g.inputs[1:]...) // skip clk
	pool = append(pool, g.internal...)
	for _, o := range g.outputs {
		if g.restricted && g.combDriven[o.name] {
			continue
		}
		pool = append(pool, o)
	}
	return pool
}

// target picks an output reg for a block, preferring one no block owns
// yet; it sometimes reuses an owned one to exercise multi-driver block
// ordering, but only within the same kind (comb with comb, clocked
// with clocked).
func (g *generator) target(clocked bool, owned map[string]bool) (signal, bool) {
	var free, sameKind []signal
	for _, o := range g.outputs {
		wasClocked, taken := owned[o.name]
		if !taken {
			free = append(free, o)
		} else if wasClocked == clocked {
			sameKind = append(sameKind, o)
		}
	}
	pick := func(s signal) (signal, bool) {
		owned[s.name] = clocked
		return s, true
	}
	if len(free) > 0 && (len(sameKind) == 0 || g.rng.Intn(4) != 0) {
		return pick(free[g.rng.Intn(len(free))])
	}
	if len(sameKind) > 0 {
		return pick(sameKind[g.rng.Intn(len(sameKind))])
	}
	return signal{}, false
}

func (g *generator) block(b *strings.Builder, plan blockPlan) {
	if plan.clocked {
		b.WriteString("\talways @(posedge clk) begin\n")
	} else {
		b.WriteString("\talways @(*) begin\n")
		g.restricted = true
		defer func() { g.restricted = false }()
	}
	n := 1 + g.rng.Intn(g.cfg.MaxStmts)
	for i := 0; i < n; i++ {
		g.stmt(b, plan.tgt, plan.clocked, 2)
	}
	b.WriteString("\tend\n")
}

func (g *generator) stmt(b *strings.Builder, tgt signal, clocked bool, depth int) {
	ind := strings.Repeat("\t", depth)
	// Clocked blocks mix = and <=; combinational blocks must stay
	// blocking to keep settling well-defined.
	op := "="
	if clocked && g.rng.Intn(2) == 0 {
		op = "<="
	}
	pick := g.rng.Intn(10)
	if g.cfg.AliasBias > 0 && pick >= 6 && g.rng.Float64() < g.cfg.AliasBias {
		// Biased campaign: fold a non-hazard draw back into the
		// alias-hazard statement range.
		pick = g.rng.Intn(6)
	}
	switch {
	case pick < 3 && tgt.width >= 3:
		// Hazard: whole store followed by a self-aliasing slice store.
		lo := 1 + g.rng.Intn(tgt.width-2)
		hi := lo + g.rng.Intn(tgt.width-lo)
		fmt.Fprintf(b, "%s%s = %s;\n", ind, tgt.name, g.expr(2))
		fmt.Fprintf(b, "%s%s[%d:%d] %s %s;\n", ind, tgt.name, hi, lo, op, tgt.name)
	case pick < 5 && tgt.width >= 4:
		// Hazard: for loop over the shared module-level i with the
		// loop var as a dynamic store index.
		bound := 2 + g.rng.Intn(tgt.width-2)
		src := g.pickReadable()
		fmt.Fprintf(b, "%sfor (i = 0; i < %d; i = i + 1)\n", ind, bound)
		if src.width >= bound {
			fmt.Fprintf(b, "%s\t%s[i] %s %s[i];\n", ind, tgt.name, op, src.name)
		} else {
			fmt.Fprintf(b, "%s\t%s[i] %s %s[0];\n", ind, tgt.name, op, src.name)
		}
	case pick < 6:
		// Hazard: dynamic part-select store with a variable base.
		w := 1 + g.rng.Intn(4)
		if tgt.width > w {
			idx := g.pickReadable()
			fmt.Fprintf(b, "%s%s[%s %s 3 +: %d] %s %s;\n",
				ind, tgt.name, idx.name, []string{"&", "%"}[g.rng.Intn(2)], w, op, g.expr(1))
		} else {
			fmt.Fprintf(b, "%s%s %s %s;\n", ind, tgt.name, op, g.expr(2))
		}
	case pick < 8:
		// begin/end even for single statements: the line-based hazard
		// mutators may insert a statement after either branch.
		fmt.Fprintf(b, "%sif (%s) begin\n%s\t%s %s %s;\n%send else begin\n%s\t%s %s %s;\n%send\n",
			ind, g.expr(1), ind, tgt.name, op, g.expr(2), ind, ind, tgt.name, op, g.expr(2), ind)
	default:
		fmt.Fprintf(b, "%s%s %s %s;\n", ind, tgt.name, op, g.expr(2))
	}
}

func (g *generator) pickReadable() signal {
	pool := g.readable()
	return pool[g.rng.Intn(len(pool))]
}

// expr emits a random expression with the given depth budget.
func (g *generator) expr(depth int) string {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		// Leaf: signal, sliced signal, or literal.
		switch g.rng.Intn(5) {
		case 0:
			return fmt.Sprintf("%d'h%x", 4+g.rng.Intn(12), g.rng.Intn(256))
		case 1:
			s := g.pickReadable()
			if s.width >= 3 {
				lo := g.rng.Intn(s.width - 1)
				hi := lo + g.rng.Intn(s.width-lo)
				return fmt.Sprintf("%s[%d:%d]", s.name, hi, lo)
			}
			return s.name
		default:
			return g.pickReadable().name
		}
	}
	switch g.rng.Intn(8) {
	case 0:
		return fmt.Sprintf("(~%s)", g.expr(depth-1))
	case 1:
		s := g.pickReadable()
		idx := g.pickReadable()
		if s.width >= 2 {
			// Dynamic bit-select; masked so most reads land in range.
			return fmt.Sprintf("%s[%s & %d]", s.name, idx.name, s.width-1)
		}
		return s.name
	case 2:
		return fmt.Sprintf("{%s, %s}", g.expr(depth-1), g.expr(depth-1))
	case 3:
		// Independent branches: mixed widths exercise the §5.4.1
		// sizing both backends share.
		return fmt.Sprintf("(%s ? %s : %s)", g.expr(0), g.expr(depth-1), g.expr(depth-1))
	default:
		ops := []string{"+", "-", "&", "|", "^", ">>", "<<"}
		op := ops[g.rng.Intn(len(ops))]
		if op == ">>" || op == "<<" {
			return fmt.Sprintf("(%s %s %d)", g.expr(depth-1), op, g.rng.Intn(5))
		}
		return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), op, g.expr(depth-1))
	}
}
