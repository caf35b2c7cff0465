package wave

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// EngineProfile is a compiled-engine execution profile: which opcodes
// ran and how often, how hard the fixpoint scheduler worked, and which
// design processes were hottest. The sim package fills it from its
// nil-guarded counters; wave only defines the shape so every consumer
// (diag output, /v1/stats, CLIs) shares one rendering.
type EngineProfile struct {
	// Instructions is the total executed instruction count.
	Instructions uint64 `json:"instructions"`
	// Ops is the opcode histogram, nonzero entries only, descending.
	Ops []OpCount `json:"ops,omitempty"`
	// Settles counts Settle calls; FixpointGroups is how many scheduler
	// groups needed iteration (cyclic SCCs); FixpointIters the total
	// iterations those groups ran; MaxGroupIters the worst single group.
	Settles        uint64 `json:"settles"`
	FixpointGroups int    `json:"fixpoint_groups"`
	FixpointIters  uint64 `json:"fixpoint_iters"`
	MaxGroupIters  uint64 `json:"max_group_iters"`
	// Processes lists design processes by activation count, descending.
	Processes []ProcessStat `json:"processes,omitempty"`
}

// OpCount is one opcode-histogram entry.
type OpCount struct {
	Op    string `json:"op"`
	Count uint64 `json:"count"`
}

// ProcessStat attributes activity to one design process.
type ProcessStat struct {
	// Kind is "assign", "comb" (always @*), or "seq" (edge-triggered).
	Kind string `json:"kind"`
	// Line is the source line the process starts on (0 if unknown).
	Line int `json:"line,omitempty"`
	// Activations counts how often the process body executed.
	Activations uint64 `json:"activations"`
}

// Sort orders Ops and Processes descending by count (stable on ties so
// output is deterministic).
func (p *EngineProfile) Sort() {
	slices.SortStableFunc(p.Ops, func(a, b OpCount) int { return cmp.Compare(b.Count, a.Count) })
	slices.SortStableFunc(p.Processes, func(a, b ProcessStat) int {
		return cmp.Compare(b.Activations, a.Activations)
	})
}

// Hottest returns the most-activated process, or a zero ProcessStat
// when the profile is empty.
func (p *EngineProfile) Hottest() ProcessStat {
	var best ProcessStat
	for _, ps := range p.Processes {
		if ps.Activations > best.Activations {
			best = ps
		}
	}
	return best
}

// String renders a compact multi-line summary for diag output.
func (p *EngineProfile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine profile: %d instructions over %d settles", p.Instructions, p.Settles)
	if p.FixpointGroups > 0 {
		fmt.Fprintf(&b, "; %d fixpoint groups, %d iters (max %d)",
			p.FixpointGroups, p.FixpointIters, p.MaxGroupIters)
	}
	b.WriteByte('\n')
	if len(p.Ops) > 0 {
		b.WriteString("  top ops:")
		for i, oc := range p.Ops {
			if i == 5 {
				break
			}
			fmt.Fprintf(&b, " %s=%d", oc.Op, oc.Count)
		}
		b.WriteByte('\n')
	}
	if h := p.Hottest(); h.Activations > 0 {
		fmt.Fprintf(&b, "  hottest process: %s", h.Kind)
		if h.Line > 0 {
			fmt.Fprintf(&b, " (line %d)", h.Line)
		}
		fmt.Fprintf(&b, ", %d activations\n", h.Activations)
	}
	return b.String()
}
