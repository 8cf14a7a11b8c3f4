package repro

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// TestPaperShape is the reproduction guard: it runs both applications
// (plus the 1 MB shared-L2 MPEG-2 variant) on the scenario runner at
// paper scale and asserts the qualitative results of section 5 — the
// partitioned system wins by a multiple, the miss rates drop accordingly,
// CPI improves more for application 1 than for application 2, and the
// model's expectations match simulation within the paper's 2% bound.
// It takes ~30 s; skipped under -short.
func TestPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale shape test skipped in -short mode")
	}
	cfg := experiments.Default()
	cfg.ProfileRuns = 1
	var specs []scenario.Scenario
	for _, name := range []string{experiments.ScenarioApp1, experiments.ScenarioApp2, experiments.ScenarioMpeg2Big} {
		spec, ok := experiments.BuiltinScenario(cfg, name)
		if !ok {
			t.Fatalf("no built-in scenario %q", name)
		}
		specs = append(specs, spec)
	}
	results := scenario.NewRunner(cfg.Workers).RunBatch(specs)
	for i, r := range results {
		if r.Error != "" {
			t.Fatalf("%s: %s", specs[i].Name, r.Error)
		}
	}
	s1, s2, big := results[0], results[1], results[2].Shared

	// Paper: "5 times less misses" for app 1. Require at least 3x.
	if r := s1.MissRatio(); r < 3.0 {
		t.Errorf("app1 miss ratio = %.2f, want >= 3 (paper: 5)", r)
	}
	// Paper: "6.5 times less misses" for app 2. Require at least 2x.
	if r := s2.MissRatio(); r < 2.0 {
		t.Errorf("app2 miss ratio = %.2f, want >= 2 (paper: 6.5)", r)
	}
	// Miss rates must drop by a multiple in both apps.
	if s1.Partitioned.L2MissRate*2 > s1.Shared.L2MissRate {
		t.Errorf("app1 miss rate %.4f -> %.4f: no multiple improvement",
			s1.Shared.L2MissRate, s1.Partitioned.L2MissRate)
	}
	if s2.Partitioned.L2MissRate*1.5 > s2.Shared.L2MissRate {
		t.Errorf("app2 miss rate %.4f -> %.4f: insufficient improvement",
			s2.Shared.L2MissRate, s2.Partitioned.L2MissRate)
	}
	// CPI: both improve; app1's relative gain exceeds app2's (the paper:
	// 20% vs 4%, "the used mpeg2 implementation was ... more L1 and
	// processor bounded").
	gain1 := 1 - s1.Partitioned.CPIMean/s1.Shared.CPIMean
	gain2 := 1 - s2.Partitioned.CPIMean/s2.Shared.CPIMean
	if gain1 <= 0 || gain2 <= 0 {
		t.Errorf("CPI did not improve: app1 %.3f, app2 %.3f", gain1, gain2)
	}
	if gain1 <= gain2 {
		t.Errorf("app1 CPI gain %.3f not larger than app2's %.3f (paper: 20%% vs 4%%)",
			gain1, gain2)
	}
	// Figure 3: compositional within the paper's 2% bound.
	if !s1.Compose.Compositional(0.02) {
		t.Errorf("app1 not compositional: max rel diff %.4f", s1.Compose.MaxRelDiff)
	}
	if !s2.Compose.Compositional(0.02) {
		t.Errorf("app2 not compositional: max rel diff %.4f", s2.Compose.MaxRelDiff)
	}

	// The 1 MB shared L2 approaches the partitioned 512 KB system for
	// MPEG-2 (paper: 0.6% vs 0.8% miss rate).
	if big.TotalMisses > s2.Shared.TotalMisses {
		t.Error("1MB shared worse than 512KB shared")
	}
	lo, hi := s2.Partitioned.TotalMisses, big.TotalMisses
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(hi) > 1.5*float64(lo) {
		t.Errorf("1MB shared (%d) and partitioned 512KB (%d) should be close", big.TotalMisses, s2.Partitioned.TotalMisses)
	}
}
