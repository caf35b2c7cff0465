package wave

import (
	"strings"
	"testing"

	"repro/internal/bitvec"
)

func vecs(vals ...uint64) []bitvec.Vec {
	out := make([]bitvec.Vec, len(vals))
	for i, v := range vals {
		out[i] = bitvec.FromUint64(4, v)
	}
	return out
}

func bit(b uint64) bitvec.Vec { return bitvec.FromUint64(1, b) }

// TestVCDGolden pins the exact VCD text for a tiny two-signal trace:
// a full $dumpvars at the first sample, then change-only dumps.
func TestVCDGolden(t *testing.T) {
	r := NewRecorder(0)
	r.Init("top", []Signal{{Name: "clk", Width: 1}, {Name: "q", Width: 4}})
	r.Sample(0, []bitvec.Vec{bit(0), bitvec.FromUint64(4, 0)})
	r.Sample(1, []bitvec.Vec{bit(1), bitvec.FromUint64(4, 5)})
	r.Sample(2, []bitvec.Vec{bit(0), bitvec.FromUint64(4, 5)})

	want := strings.Join([]string{
		"$timescale 1ns $end",
		"$scope module top $end",
		"$var wire 1 ! clk $end",
		"$var wire 4 \" q [3:0] $end",
		"$upscope $end",
		"$enddefinitions $end",
		"#0",
		"$dumpvars",
		"0!",
		"b0 \"",
		"$end",
		"#1",
		"1!",
		"b101 \"",
		"#2",
		"0!",
		"",
	}, "\n")
	if got := r.VCD(); got != want {
		t.Errorf("VCD mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRecorderWindow checks the bounded mode: last W pre-mark samples
// plus W post-mark samples, then the recorder goes quiet.
func TestRecorderWindow(t *testing.T) {
	r := NewRecorder(3)
	r.Init("m", []Signal{{Name: "x", Width: 4}})
	for i := uint64(0); i < 10; i++ {
		r.Sample(i, vecs(i))
	}
	r.Mark()
	for i := uint64(10); i < 20; i++ {
		r.Sample(i, vecs(i%16))
	}
	if got := r.Samples(); got != 6 {
		t.Fatalf("Samples() = %d, want 6 (3 pre + 3 post)", got)
	}
	vcd := r.VCD()
	if !strings.Contains(vcd, "$comment window around observation #9") {
		t.Errorf("missing mark comment in:\n%s", vcd)
	}
	// Oldest retained sample is #7, newest is #12.
	if !strings.Contains(vcd, "#7\n") || strings.Contains(vcd, "#6\n") {
		t.Errorf("window start wrong:\n%s", vcd)
	}
	if !strings.Contains(vcd, "#12\n") || strings.Contains(vcd, "#13\n") {
		t.Errorf("window end wrong:\n%s", vcd)
	}
}

func TestIDCode(t *testing.T) {
	if idCode(0) != "!" || idCode(93) != "~" {
		t.Errorf("single-char codes wrong: %q %q", idCode(0), idCode(93))
	}
	if idCode(94) != "!!" {
		t.Errorf("idCode(94) = %q, want \"!!\"", idCode(94))
	}
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		c := idCode(i)
		if seen[c] {
			t.Fatalf("idCode collision at %d: %q", i, c)
		}
		seen[c] = true
	}
}

func TestCoverageToggles(t *testing.T) {
	c := NewCoverage()
	c.Init("m", []Signal{{Name: "a", Width: 4}})
	// First sample only seeds prev; then 0 -> 0b0011 (two rises),
	// 0b0011 -> 0b0001 (one fall).
	c.Sample(0, vecs(0))
	c.Sample(1, vecs(3))
	c.Sample(2, vecs(1))
	c.AddActivations([]uint64{5, 0})

	st := c.Stats()
	if st.Bits != 4 || st.PointsTotal != 8 {
		t.Fatalf("bits=%d total=%d, want 4/8", st.Bits, st.PointsTotal)
	}
	// rose: bits 0,1; fell: bit 1 => 3 points, 2 distinct bits.
	if st.PointsCovered != 3 || st.BitsToggled != 2 {
		t.Errorf("covered=%d toggled=%d, want 3/2", st.PointsCovered, st.BitsToggled)
	}
	if st.Toggles != 3 {
		t.Errorf("toggles=%d, want 3", st.Toggles)
	}
	if st.Processes != 2 || st.ProcessesActive != 1 {
		t.Errorf("procs=%d active=%d, want 2/1", st.Processes, st.ProcessesActive)
	}
	if f := st.Fraction(); f <= 0 || f >= 1 {
		t.Errorf("fraction=%v out of (0,1)", f)
	}
	if !strings.Contains(st.String(), "toggle points") {
		t.Errorf("Stats.String() = %q", st.String())
	}
}

func TestSignatureUnion(t *testing.T) {
	c := NewCoverage()
	c.Init("m", []Signal{{Name: "a", Width: 4}})
	c.Sample(0, vecs(0))
	c.Sample(1, vecs(3))
	sig := c.Signature()
	if sig.Empty() || sig.Count() != 2 {
		t.Fatalf("signature count=%d, want 2 rise points", sig.Count())
	}

	var corpus Signature
	if !corpus.Union(sig) {
		t.Error("first union should grow")
	}
	if corpus.Union(sig) {
		t.Error("repeat union should not grow")
	}

	// A fall on the same bit is a distinct point.
	c.Sample(2, vecs(1))
	sig2 := c.Signature()
	if !corpus.Union(sig2) {
		t.Error("union with new direction should grow")
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of nothing should be nil")
	}
	c := NewCoverage()
	if Multi(nil, c) != Observer(c) {
		t.Error("Multi of one should return it unwrapped")
	}
	r := NewRecorder(0)
	m := Multi(c, r)
	m.Init("m", []Signal{{Name: "a", Width: 4}})
	m.Sample(0, vecs(0))
	m.Sample(1, vecs(3))
	if r.Samples() != 2 {
		t.Errorf("recorder samples=%d, want 2", r.Samples())
	}
	if st := c.Stats(); st.Toggles != 2 {
		t.Errorf("coverage toggles=%d, want 2", st.Toggles)
	}
}

func TestEngineProfileRender(t *testing.T) {
	p := &EngineProfile{
		Instructions:   100,
		Settles:        10,
		FixpointGroups: 1,
		FixpointIters:  4,
		MaxGroupIters:  2,
		Ops:            []OpCount{{Op: "copy", Count: 60}, {Op: "add", Count: 40}},
		Processes: []ProcessStat{
			{Kind: "assign", Line: 3, Activations: 7},
			{Kind: "seq", Line: 9, Activations: 12},
		},
	}
	p.Sort()
	if p.Processes[0].Kind != "seq" {
		t.Errorf("Sort should order by activations, got %+v", p.Processes)
	}
	if h := p.Hottest(); h.Kind != "seq" || h.Activations != 12 {
		t.Errorf("Hottest() = %+v", h)
	}
	s := p.String()
	for _, want := range []string{"100 instructions", "fixpoint", "copy=60", "hottest process: seq (line 9)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}
