package inject

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"repro/internal/compiler"
)

// hazardFixture has a site for every hazard mutator: a whole-reg
// blocking store, a non-blocking store, a for loop over a module-level
// integer, a posedge clock, and constant part-selects.
const hazardFixture = `module m(input clk, input [7:0] d, output reg [7:0] q, output reg [7:0] r);
	integer i;
	always @(posedge clk) begin
		q = d;
		q[3:0] = d[7:4];
	end
	always @(posedge clk) begin
		for (i = 0; i < 4; i = i + 1)
			r[i] <= d[i];
	end
endmodule
`

// combFixture exercises the mutators on an @(*) block.
const combFixture = `module m(input [7:0] a, input [7:0] b, output reg [7:0] y);
	always @(*) begin
		y = a;
		y[6:2] = b[4:0];
	end
endmodule
`

func TestHazardNamesAndLookup(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Hazards() {
		if !strings.HasPrefix(m.Name, "hazard-") {
			t.Errorf("%s: hazard mutators must carry the hazard- prefix", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("duplicate hazard name %s", m.Name)
		}
		seen[m.Name] = true
		if m.Difficulty <= 0 || m.Difficulty > 1 {
			t.Errorf("%s: difficulty %.2f out of (0,1]", m.Name, m.Difficulty)
		}
	}
	// The error injectors and the hazard mutators are separate registries.
	if _, ok := ByName("hazard-alias-slice-store"); ok {
		t.Error("hazard mutator leaked into All()")
	}
}

// TestHazardsPreserveValidity is the hazard contract, the dual of
// TestMutatorsBreakCompilation: applying a hazard mutator to valid
// Verilog must yield Verilog that still parses and elaborates cleanly.
func TestHazardsPreserveValidity(t *testing.T) {
	for _, fixture := range []string{hazardFixture, combFixture} {
		if _, design, diags := compiler.Frontend(fixture); design == nil || diags.HasErrors() {
			t.Fatalf("fixture broken: %s", diags.Summary())
		}
		for _, m := range Hazards() {
			applied := 0
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				out, line, ok := m.Apply(fixture, rng)
				if !ok {
					if out != fixture {
						t.Fatalf("%s: inapplicable but modified source", m.Name)
					}
					continue
				}
				applied++
				if line <= 0 {
					t.Errorf("%s: applied without a site line", m.Name)
				}
				if _, design, diags := compiler.Frontend(out); design == nil || diags.HasErrors() {
					t.Errorf("%s (seed %d): output no longer compiles: %s\n%s",
						m.Name, seed, diags.Summary(), out)
				}
			}
			if fixture == hazardFixture && applied == 0 {
				t.Errorf("%s: never applicable on the rich fixture", m.Name)
			}
		}
	}
}

// TestHazardDeterminism pins the replay contract the fuzz campaigns
// depend on: the same (source, seed) always yields the same mutation.
func TestHazardDeterminism(t *testing.T) {
	for _, m := range Hazards() {
		var first []string
		for run := 0; run < 2; run++ {
			var outs []string
			for seed := int64(0); seed < 10; seed++ {
				out, _, _ := m.Apply(hazardFixture, rand.New(rand.NewSource(seed)))
				outs = append(outs, out)
			}
			if run == 0 {
				first = outs
				continue
			}
			for i := range outs {
				if outs[i] != first[i] {
					t.Fatalf("%s: seed %d not deterministic", m.Name, i)
				}
			}
		}
		// Distinct seeds should explore distinct sites at least once.
		distinct := map[string]bool{}
		for _, o := range first {
			distinct[o] = true
		}
		if len(distinct) < 2 && m.Name != "hazard-duplicate-always" {
			t.Logf("%s: all 10 seeds chose the same site (fixture may have one)", m.Name)
		}
	}
}

// TestAliasSliceStoreShape checks the inserted statement is the exact
// copy-on-alias construct: a sub-range store reading the target itself.
func TestAliasSliceStoreShape(t *testing.T) {
	out, _, ok := aliasSliceStore(hazardFixture, rand.New(rand.NewSource(3)))
	if !ok {
		t.Fatal("inapplicable on fixture")
	}
	re := regexp.MustCompile(`(\w+)\[(\d+):(\d+)\] = (\w+);`)
	for _, match := range re.FindAllStringSubmatch(out, -1) {
		if match[1] == match[4] {
			return // found name[h:l] = name;
		}
	}
	t.Fatalf("no self-aliasing slice store inserted:\n%s", out)
}

// TestSharedLoopVarShape checks the appended block reuses the existing
// loop variable on a fresh target.
func TestSharedLoopVarShape(t *testing.T) {
	out, _, ok := sharedLoopVar(hazardFixture, rand.New(rand.NewSource(1)))
	if !ok {
		t.Fatal("inapplicable on fixture")
	}
	if !strings.Contains(out, "zz_dup") || strings.Count(out, "for (i = 0;") != 2 {
		t.Fatalf("appended block must reuse loop var i on zz_dup:\n%s", out)
	}
	if strings.Count(out, "always @(posedge clk)") != 3 {
		t.Fatalf("expected a third same-edge block:\n%s", out)
	}
}
