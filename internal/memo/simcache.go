package memo

// SimCache is the content-addressed cache in front of the simulation
// oracle's compile pipeline: the frontend artifact (frontend.go) +
// sim.Compile, keyed by FNV-64a of the source on the same cache core
// (and collision guard) as the compile cache. The functional check is the innermost loop of every
// pass@k experiment — each candidate is re-frontended for scoring, and
// rtlfixerd re-serves the same hot problems — so one shared SimCache
// turns all of that into a single compile per distinct source.
//
// Cached entries are immutable by contract: sim.Program is read-only and
// instantiated per run via sim.NewFromProgram; the AST, design and
// diagnostics are the frontend artifact's, shared with every persona
// compile of the same source. A source whose design the simulator
// compiler rejects caches a nil Program, so the rejection is not
// recomputed either: such a design does not simulate.

import (
	"repro/internal/diag"
	"repro/internal/sema"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// simEntry is one cached frontend+compile outcome.
type simEntry struct {
	file   *verilog.SourceFile
	design *sema.Design
	diags  diag.List
	prog   *sim.Program // nil when design is nil or the engine rejected it
}

// SimCache is a concurrency-safe, sharded, content-addressed cache of
// elaborated designs and their compiled simulation programs.
type SimCache struct {
	cache[srcKey, text, simEntry]
}

// NewSimCache builds a cache holding at least capacity entries across all
// shards; capacity <= 0 selects the default.
func NewSimCache(capacity int) *SimCache {
	sc := &SimCache{}
	sc.init(capacity, &globalSim)
	return sc
}

// Frontend is compiler.Frontend through the cache: same results,
// amortized parse+sema, shared with the persona compiles of src.
func (sc *SimCache) Frontend(src string) (*verilog.SourceFile, *sema.Design, diag.List) {
	e := sc.lookup(src)
	return e.file, e.design, e.diags
}

// Program returns the compiled simulation program for src alongside the
// elaborated design and diagnostics. The program is nil when the source
// does not elaborate, or when the compiled engine rejects its design
// (non-nil design, nil program): that design does not simulate.
func (sc *SimCache) Program(src string) (*sim.Program, *sema.Design, diag.List) {
	e := sc.lookup(src)
	return e.prog, e.design, e.diags
}

func (sc *SimCache) lookup(src string) simEntry {
	h := HashSource(src)
	e, _ := sc.getOrCompute(srcKey(h), text(src), func() simEntry {
		return compileSimEntry(h, src)
	})
	return e
}

// compileSimEntry runs the oracle compile pipeline for one source, whose
// FNV-64a is h, over its frontend artifact: the source's Design is nil
// unless it compiles with no errors, exactly compiler.Frontend's masking.
func compileSimEntry(h uint64, src string) simEntry {
	fe := frontends.artifact(h, src)
	e := simEntry{file: fe.File, design: fe.Design, diags: fe.Diags}
	if e.design != nil {
		if prog, err := sim.Compile(e.design); err == nil {
			e.prog = prog
		}
	}
	return e
}
