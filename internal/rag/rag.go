// Package rag implements the retrieval-augmented-generation database of
// RTLFixer: a curated, persistent, non-parametric memory of compiler-log
// patterns paired with human expert guidance and demonstrations (§3.3).
//
// The database is keyed by error category, mirroring the paper's curation
// ("we categorize various syntax errors into groups using error number
// tags provided by compilers"). Retrieval happens over raw compiler-log
// text: the exact-tag retriever — the paper's choice — matches Quartus
// error numbers and iverilog message stems; pattern and fuzzy retrievers
// are provided as the alternatives the paper mentions (pattern matching,
// fuzzy search, similarity search).
package rag

import (
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/diag"
)

// Entry is one guidance record in the retrieval database.
type Entry struct {
	// ID is a stable identifier, unique within a database.
	ID string
	// Category is the error class this guidance addresses.
	Category diag.Category
	// Compiler is the persona whose logs the patterns target
	// ("iverilog", "quartus").
	Compiler string
	// Patterns are the log substrings (error-number tags or message
	// stems) that the exact-tag retriever matches against.
	Patterns []string
	// LogExample is a demonstration compiler log for this error class,
	// used by the fuzzy retriever and shown in transcripts.
	LogExample string
	// Guidance is the human expert instruction (paper Fig. 3).
	Guidance string
	// Demonstration optionally shows a before/after code fragment.
	Demonstration string
}

// Database is an ordered collection of entries.
type Database struct {
	entries []Entry
}

// NewDatabase builds a database from entries.
func NewDatabase(entries []Entry) *Database {
	return &Database{entries: entries}
}

// Entries returns all entries.
func (db *Database) Entries() []Entry { return db.entries }

// Len returns the number of entries.
func (db *Database) Len() int { return len(db.entries) }

// Retriever selects guidance entries for a compiler log.
type Retriever interface {
	// Name identifies the retrieval strategy.
	Name() string
	// Retrieve returns up to k entries relevant to the log, best first.
	Retrieve(db *Database, log string, k int) []Entry
}

// ---------- exact-tag retrieval (the paper's choice) ----------

// ExactTag matches entry patterns as substrings of the log, ranking by
// pattern length (longer, more specific tags first). "In our experiments,
// we opted for an exact match to error tags for simplicity."
type ExactTag struct{}

// Name implements Retriever.
func (ExactTag) Name() string { return "exact-tag" }

// Retrieve implements Retriever.
func (ExactTag) Retrieve(db *Database, log string, k int) []Entry {
	var hits []scoredEntry
	for _, e := range db.entries {
		best := 0
		for _, p := range e.Patterns {
			if p != "" && strings.Contains(log, p) && len(p) > best {
				best = len(p)
			}
		}
		if best > 0 {
			hits = append(hits, scoredEntry{e, best})
		}
	}
	return selectByScore(hits, k)
}

// scoredEntry pairs an entry with its integer retrieval score.
type scoredEntry struct {
	entry Entry
	score int
}

// selectByScore ranks hits by score (stable sort, descending — entries tie
// in database order) and keeps at most k, capping two per category so
// multi-error logs still get coverage for every error class present. It is
// the shared tail of ExactTag and Keyword retrieval.
func selectByScore(hits []scoredEntry, k int) []Entry {
	sort.SliceStable(hits, func(i, j int) bool { return hits[i].score > hits[j].score })
	var out []Entry
	seen := map[diag.Category]int{}
	for _, h := range hits {
		if len(out) >= k {
			break
		}
		if seen[h.entry.Category] >= 2 {
			continue
		}
		seen[h.entry.Category]++
		out = append(out, h.entry)
	}
	return out
}

// ---------- fuzzy retrieval ----------

// Fuzzy ranks entries by Jaccard similarity between the log and each
// entry's LogExample, over token shingles.
type Fuzzy struct {
	// ShingleK is the shingle size; 0 means 3.
	ShingleK int
	// MinSimilarity filters out weak matches; 0 means 0.05.
	MinSimilarity float64
}

// Name implements Retriever.
func (Fuzzy) Name() string { return "fuzzy-jaccard" }

// params resolves the effective shingle size and similarity floor,
// applying the zero-value defaults.
func (f Fuzzy) params() (shingleK int, minSim float64) {
	shingleK = f.ShingleK
	if shingleK == 0 {
		shingleK = 3
	}
	minSim = f.MinSimilarity
	if minSim == 0 {
		minSim = 0.05
	}
	return shingleK, minSim
}

// Retrieve implements Retriever.
func (f Fuzzy) Retrieve(db *Database, log string, k int) []Entry {
	shingleK, minSim := f.params()
	logSet := cluster.Shingles(log, shingleK)
	type scored struct {
		e   Entry
		sim float64
	}
	var hits []scored
	for _, e := range db.entries {
		sim := cluster.Jaccard(logSet, cluster.Shingles(e.LogExample, shingleK))
		if sim >= minSim {
			hits = append(hits, scored{e, sim})
		}
	}
	sort.SliceStable(hits, func(i, j int) bool { return hits[i].sim > hits[j].sim })
	var out []Entry
	for _, h := range hits {
		if len(out) >= k {
			break
		}
		out = append(out, h.e)
	}
	return out
}

// ---------- pattern retrieval ----------

// Keyword matches case-insensitively on whole guidance keywords extracted
// from the log — the "pattern-matching" alternative the paper mentions.
type Keyword struct{}

// Name implements Retriever.
func (Keyword) Name() string { return "keyword" }

// Retrieve implements Retriever.
func (Keyword) Retrieve(db *Database, log string, k int) []Entry {
	lower := strings.ToLower(log)
	var hits []scoredEntry
	for _, e := range db.entries {
		score := 0
		for _, p := range e.Patterns {
			for _, word := range strings.Fields(strings.ToLower(p)) {
				if len(word) >= 4 && strings.Contains(lower, word) {
					score++
				}
			}
		}
		if score > 0 {
			hits = append(hits, scoredEntry{e, score})
		}
	}
	return selectByScore(hits, k)
}

// Render formats retrieved entries the way the agent's observation shows
// them: guidance first, then the demonstration if present.
func Render(entries []Entry) string {
	if len(entries) == 0 {
		return "No relevant guidance found in the database."
	}
	var b strings.Builder
	for i, e := range entries {
		if i > 0 {
			b.WriteString("\n---\n")
		}
		b.WriteString("Expert guidance [")
		b.WriteString(e.ID)
		b.WriteString("]: ")
		b.WriteString(e.Guidance)
		if e.Demonstration != "" {
			b.WriteString("\nDemonstration:\n")
			b.WriteString(e.Demonstration)
		}
	}
	return b.String()
}
