package bench

import "testing"

func TestAnalyzerAB(t *testing.T) {
	res := RunAnalyzerAB(7, 2, testEntries(t), 0)
	if !res.RatesEqual {
		t.Errorf("analyzer changed the fix rate: on=%.3f off=%.3f — the lint dialect leaked into log analysis",
			res.On.FixRate, res.Off.FixRate)
	}
	if res.Off.LintFindings != 0 {
		t.Errorf("off arm surfaced %d findings", res.Off.LintFindings)
	}
	if res.On.Jobs != res.Off.Jobs || res.On.Jobs == 0 {
		t.Errorf("arm job counts differ: on=%d off=%d", res.On.Jobs, res.Off.Jobs)
	}
	t.Log("\n" + res.Render())
}
