package rag

import (
	"strings"
	"testing"

	"repro/internal/diag"
)

// groupCount counts the curated error groups — the paper's "common
// error categories" counted by compiler error-number family. Groups are
// encoded as the entry-ID prefix before the trailing index
// ("q-undecl-3" → "q-undecl").
func groupCount(db *Database) int {
	seen := map[string]bool{}
	for _, e := range db.Entries() {
		id := e.ID
		if i := strings.LastIndex(id, "-"); i > 0 {
			id = id[:i]
		}
		seen[id] = true
	}
	return len(seen)
}

func TestCuratedDatabaseSizesMatchPaper(t *testing.T) {
	q := QuartusDB()
	if q.Len() != 45 {
		t.Errorf("Quartus DB has %d entries, paper reports 45", q.Len())
	}
	if got := groupCount(q); got != 11 {
		t.Errorf("Quartus DB has %d error groups, paper reports 11", got)
	}
	iv := IVerilogDB()
	if iv.Len() != 30 {
		t.Errorf("iverilog DB has %d entries, paper reports 30", iv.Len())
	}
	if got := groupCount(iv); got != 7 {
		t.Errorf("iverilog DB has %d error groups, paper reports 7", got)
	}
}

func TestEntriesWellFormed(t *testing.T) {
	for _, db := range []*Database{QuartusDB(), IVerilogDB()} {
		seen := map[string]bool{}
		for _, e := range db.Entries() {
			if e.ID == "" || seen[e.ID] {
				t.Errorf("bad/duplicate ID %q", e.ID)
			}
			seen[e.ID] = true
			if e.Guidance == "" {
				t.Errorf("%s: empty guidance", e.ID)
			}
			if len(e.Patterns) == 0 {
				t.Errorf("%s: no patterns", e.ID)
			}
			if e.LogExample == "" {
				t.Errorf("%s: no log example", e.ID)
			}
			if e.Category == diag.CatNone {
				t.Errorf("%s: no category", e.ID)
			}
		}
	}
}

func TestForCompiler(t *testing.T) {
	if ForCompiler("Quartus").Len() != 45 {
		t.Error("Quartus lookup failed")
	}
	if ForCompiler("iverilog").Len() != 30 {
		t.Error("iverilog lookup failed")
	}
	if ForCompiler("Simple").Len() != 0 {
		t.Error("Simple has no log dialect, DB must be empty")
	}
}

const quartusClkLog = `Error (10161): Verilog HDL error at top.sv(5): object "clk" is not declared. Verify the object name is correct. If the name is correct, declare the object. File: /tmp/top.sv Line: 5
Error: Quartus Prime Analysis & Synthesis was unsuccessful. 1 error(s), 0 warning(s)`

func TestExactTagRetrievesByErrorCode(t *testing.T) {
	got := ExactTag{}.Retrieve(QuartusDB(), quartusClkLog, 3)
	if len(got) == 0 {
		t.Fatal("nothing retrieved")
	}
	for _, e := range got {
		if e.Category != diag.CatUndeclaredIdent {
			t.Errorf("retrieved off-category entry %s (%s)", e.ID, e.Category)
		}
	}
}

func TestExactTagMultiErrorLogCoversCategories(t *testing.T) {
	log := quartusClkLog + "\nError (10232): Verilog HDL error at top.sv(9): index 8 cannot fall outside the declared range [7:0] for vector \"out\". File: x Line: 9"
	got := ExactTag{}.Retrieve(QuartusDB(), log, 4)
	cats := map[diag.Category]bool{}
	for _, e := range got {
		cats[e.Category] = true
	}
	if !cats[diag.CatUndeclaredIdent] || !cats[diag.CatIndexOutOfRange] {
		t.Fatalf("multi-error log should retrieve both categories, got %v", cats)
	}
}

func TestExactTagNoMatchReturnsEmpty(t *testing.T) {
	if got := (ExactTag{}).Retrieve(QuartusDB(), "nothing relevant here", 3); len(got) != 0 {
		t.Fatalf("spurious retrieval: %v", got)
	}
}

func TestExactTagIVerilogPatterns(t *testing.T) {
	log := "top.sv:15: error: out is not a valid l-value in top_module.\n1 error(s) during elaboration."
	got := ExactTag{}.Retrieve(IVerilogDB(), log, 3)
	if len(got) == 0 {
		t.Fatal("nothing retrieved for l-value log")
	}
	if got[0].Category != diag.CatInvalidLValue {
		t.Fatalf("top entry category = %s", got[0].Category)
	}
}

func TestFuzzyRetrieval(t *testing.T) {
	got := Fuzzy{}.Retrieve(QuartusDB(), quartusClkLog, 3)
	if len(got) == 0 {
		t.Fatal("fuzzy retrieval found nothing")
	}
	if got[0].Category != diag.CatUndeclaredIdent {
		t.Errorf("fuzzy top hit = %s (%s)", got[0].ID, got[0].Category)
	}
}

func TestKeywordRetrieval(t *testing.T) {
	got := Keyword{}.Retrieve(QuartusDB(), "something about declared objects and names", 3)
	if len(got) == 0 {
		t.Fatal("keyword retrieval found nothing")
	}
}

func TestRetrieverNames(t *testing.T) {
	for _, r := range []Retriever{ExactTag{}, Fuzzy{}, Keyword{}} {
		if r.Name() == "" {
			t.Error("empty retriever name")
		}
	}
}

func TestRenderGuidance(t *testing.T) {
	entries := ExactTag{}.Retrieve(QuartusDB(), quartusClkLog, 2)
	out := Render(entries)
	if !strings.Contains(out, "Expert guidance") {
		t.Fatalf("render missing header: %q", out)
	}
	if Render(nil) != "No relevant guidance found in the database." {
		t.Fatal("empty render wrong")
	}
}

func TestPaperFig3GuidanceExamplesPresent(t *testing.T) {
	// The two guidance texts the paper quotes in Fig. 3 must exist.
	var hasClk, hasIndex bool
	for _, e := range QuartusDB().Entries() {
		if strings.Contains(e.Guidance, "replace 'posedge clk' with '*'") {
			hasClk = true
		}
		if strings.Contains(e.Guidance, "binary strings for performing the indexing") {
			hasIndex = true
		}
	}
	if !hasClk || !hasIndex {
		t.Fatalf("paper Fig. 3 guidance missing: clk=%v index=%v", hasClk, hasIndex)
	}
}
