package memo

// SimCache is the content-addressed cache in front of the simulation
// oracle's compile pipeline: parse + elaborate + sim.Compile, keyed by
// FNV-64a of the source on the same cache core (and collision guard) as
// the compile cache. The functional check is the innermost loop of every
// pass@k experiment — each candidate is re-frontended for scoring, each
// problem's reference is re-frontended for vector generation on every
// Check, and rtlfixerd re-serves the same hot problems — so one shared
// SimCache turns all of that into a single compile per distinct source.
//
// Cached entries are immutable by contract: sim.Program is read-only and
// instantiated per run via sim.NewFromProgram; the design and diagnostics
// are shared exactly as the compile cache shares compiler.Result. A
// source whose design the simulator compiler rejects caches a nil Program
// (callers fall back to the walker through sim.New) so the rejection is
// not recomputed either.

import (
	"repro/internal/compiler"
	"repro/internal/diag"
	"repro/internal/sema"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// simKey is the content address of one simulated source.
type simKey uint64

func (k simKey) shardHash() uint64 { return uint64(k) }

// simEntry is one cached frontend+compile outcome.
type simEntry struct {
	file   *verilog.SourceFile
	design *sema.Design
	diags  diag.List
	prog   *sim.Program // nil when design is nil or the engine fell back
}

// SimCache is a concurrency-safe, sharded, content-addressed cache of
// elaborated designs and their compiled simulation programs.
type SimCache struct {
	cache[simKey, simEntry]
}

// NewSimCache builds a cache holding at least capacity entries across all
// shards; capacity <= 0 selects the default.
func NewSimCache(capacity int) *SimCache {
	sc := &SimCache{}
	sc.init(capacity, &globalSim)
	return sc
}

// Frontend is compiler.Frontend through the cache: same results,
// amortized parse+sema.
func (sc *SimCache) Frontend(src string) (*verilog.SourceFile, *sema.Design, diag.List) {
	e := sc.lookup(src)
	return e.file, e.design, e.diags
}

// Program returns the compiled simulation program for src alongside the
// elaborated design and diagnostics. The program is nil when the source
// does not elaborate or uses a construct the compiled engine rejects; in
// the latter case the design is still usable with the walker.
func (sc *SimCache) Program(src string) (*sim.Program, *sema.Design, diag.List) {
	e := sc.lookup(src)
	return e.prog, e.design, e.diags
}

func (sc *SimCache) lookup(src string) simEntry {
	e, _ := sc.getOrCompute(simKey(HashSource(src)), src, func() simEntry {
		return compileSimEntry(src)
	})
	return e
}

// compileSimEntry runs the full oracle compile pipeline for one source.
func compileSimEntry(src string) simEntry {
	var e simEntry
	e.file, e.design, e.diags = compiler.Frontend(src)
	if e.design != nil {
		if prog, err := sim.Compile(e.design); err == nil {
			e.prog = prog
		}
	}
	return e
}
