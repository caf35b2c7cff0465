package diag

import (
	"sort"
	"testing"
)

func TestCategoryStringsUniqueAndStable(t *testing.T) {
	seen := map[string]Category{}
	for _, c := range Categories() {
		s := c.String()
		if s == "" || s == "none" {
			t.Errorf("category %d has bad name %q", c, s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("categories %d and %d share the name %q", prev, c, s)
		}
		seen[s] = c
	}
}

func TestPosOrdering(t *testing.T) {
	a := Pos{Line: 3, Col: 1}
	b := Pos{Line: 3, Col: 9}
	c := Pos{Line: 5, Col: 1}
	if !a.Before(b) || !b.Before(c) || c.Before(a) {
		t.Error("Pos.Before ordering wrong")
	}
}

func TestListQueries(t *testing.T) {
	var l List
	l.Add(Warningf(CatWidthMismatch, Pos{Line: 2}, "w"))
	l.Add(Errorf(CatUndeclaredIdent, Pos{Line: 5}, "e1"))
	l.Add(Errorf(CatIndexOutOfRange, Pos{Line: 3}, "e2"))

	if !l.HasErrors() {
		t.Fatal("HasErrors")
	}
	if len(l.Errors()) != 2 || len(l.Warnings()) != 1 {
		t.Fatalf("errors=%d warnings=%d", len(l.Errors()), len(l.Warnings()))
	}
	first, ok := l.First()
	if !ok || first.Message != "e1" {
		t.Fatalf("First = %+v", first)
	}
	l.SortByPos()
	if l[0].Pos.Line != 2 || l[2].Pos.Line != 5 {
		t.Fatalf("SortByPos wrong: %s", l.Summary())
	}
	cats := l.Categories()
	if !sort.SliceIsSorted(cats, func(i, j int) bool { return cats[i] < cats[j] }) {
		t.Error("Categories must be sorted")
	}
	if len(cats) != 3 {
		t.Errorf("got %d categories, want 3", len(cats))
	}
}

func TestDiagnosticError(t *testing.T) {
	d := Errorf(CatUndeclaredIdent, Pos{Line: 5, Col: 2}, "object %q is not declared", "clk")
	if got := d.Error(); got != `5:2: error: object "clk" is not declared` {
		t.Fatalf("Error() = %q", got)
	}
}

func TestEmptyListSummary(t *testing.T) {
	var l List
	if l.Summary() != "no diagnostics" {
		t.Fatal(l.Summary())
	}
	if _, ok := l.First(); ok {
		t.Fatal("First on empty list")
	}
}
