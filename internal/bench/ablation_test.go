package bench

import "testing"

// Ablations use the shared curated dataset with few repeats: enough for
// ordering assertions.

func TestAblationRetrievers(t *testing.T) {
	res := RunRetrieverAblation(7, 2, testEntries(t), 0)
	byName := map[string]float64{}
	for _, r := range res {
		byName[r.Name] = r.FixRate
	}
	// Every retriever must beat the no-RAG baseline.
	for _, name := range []string{"exact-tag", "fuzzy-jaccard", "keyword"} {
		if byName[name] <= byName["no-rag"] {
			t.Errorf("%s (%.3f) does not beat no-rag (%.3f)", name, byName[name], byName["no-rag"])
		}
	}
	t.Log("\n" + RenderAblation("retriever ablation", res))
}

func TestAblationIterationBudget(t *testing.T) {
	res := RunIterationBudgetAblation(7, 2, 6, testEntries(t), 0)
	// Fix rate must be monotone non-decreasing in the budget (small noise
	// tolerance) and the knee must be early: budget 2 captures most of
	// budget 6's value, per Figure 7.
	for i := 1; i < len(res); i++ {
		if res[i].FixRate < res[i-1].FixRate-0.02 {
			t.Errorf("fix rate decreased with budget: %s=%.3f after %s=%.3f",
				res[i].Name, res[i].FixRate, res[i-1].Name, res[i-1].FixRate)
		}
	}
	if res[1].FixRate < 0.85*res[len(res)-1].FixRate {
		t.Errorf("budget=2 (%.3f) should capture most of budget=%d (%.3f)",
			res[1].FixRate, len(res), res[len(res)-1].FixRate)
	}
	t.Log("\n" + RenderAblation("iteration-budget ablation", res))
}

func TestAblationGuidanceSize(t *testing.T) {
	res := RunGuidanceSizeAblation(7, 2, testEntries(t), 0)
	if len(res) < 3 {
		t.Fatal("expected at least 3 sizes")
	}
	first, last := res[0], res[len(res)-1]
	if last.FixRate <= first.FixRate {
		t.Errorf("full DB (%.3f) should beat no guidance (%.3f)", last.FixRate, first.FixRate)
	}
	t.Log("\n" + RenderAblation("guidance-size ablation", res))
}
