package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// oracleDigest is the SHA-256 of every verdict TestOracleDigest records.
// It pins what the functional oracle says about real candidates, so a
// change to how a problem's correct output is specified or compared must
// leave it unchanged. Regenerate it only for a change that deliberately
// alters verdicts, and say so.
const oracleDigest = "dbf2758552105b2e7d07d3b8a66b9e6f66a2bb71c1e13122e73e0c3ea2e21550"

// TestOracleDigest scores the generated candidates (the ones
// TestDifferentialGeneratedCandidates builds) and every reference of the
// three suites through Problem.Check, and hashes each verdict: suite, ID,
// vector seed, sample, cycles, mismatches, first mismatch and error.
func TestOracleDigest(t *testing.T) {
	h := sha256.New()
	record := func(p *Problem, seed int64, sample int, code string) {
		res, err := p.Check(code, rand.New(rand.NewSource(seed)))
		fmt.Fprintf(h, "%s|%s|%d|%d|%d|%d|%q|%v\n",
			p.Suite, p.ID, seed, sample, res.Cycles, res.Mismatches, res.FirstMismatch, err)
	}
	cands := generatedCandidates()
	for _, c := range cands {
		record(c.p, c.vecSeed(), c.sample, c.code)
	}
	refs := 0
	for _, suite := range []Suite{SuiteHuman, SuiteMachine, SuiteRTLLM} {
		for _, p := range Problems(suite) {
			record(p, 1234, -1, p.RefSource)
			refs++
		}
	}
	if len(cands) < 80 || refs != 314 {
		t.Fatalf("scored %d candidates and %d references, want at least 80 and 314", len(cands), refs)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != oracleDigest {
		t.Fatalf("oracle digest changed:\n got %s\nwant %s", got, oracleDigest)
	}
}
