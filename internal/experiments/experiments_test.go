package experiments

import (
	"strings"
	"testing"

	"repro/internal/scenario"
)

// The experiment tests run at Small scale on one shared runner, so a
// built-in study simulates once however many tests read it; the
// paper-scale shape assertions live in the root-level TestPaperShape.
var smallRunner = scenario.NewRunner(0)

// runBuiltins runs the named Small-scale built-ins on the shared runner
// and fails the test on any scenario error.
func runBuiltins(t *testing.T, names ...string) []*scenario.Result {
	t.Helper()
	specs := make([]scenario.Scenario, len(names))
	for i, n := range names {
		spec, ok := BuiltinScenario(Small(), n)
		if !ok {
			t.Fatalf("no built-in scenario %q", n)
		}
		specs[i] = spec
	}
	results := smallRunner.RunBatch(specs)
	for i, r := range results {
		if r.Error != "" {
			t.Fatalf("%s: %s", names[i], r.Error)
		}
	}
	return results
}

func TestApp1StudySmall(t *testing.T) {
	r := runBuiltins(t, ScenarioApp1)[0]
	if r.Shared.TotalMisses == 0 || r.Partitioned.TotalMisses == 0 {
		t.Fatal("no misses measured")
	}
	if r.MissRatio() <= 0 {
		t.Error("no ratio")
	}
	// Even the small workload must be compositional.
	if r.Compose.MaxRelDiff > 0.10 {
		t.Errorf("max rel diff %.3f too large", r.Compose.MaxRelDiff)
	}
	// Tables and figures render.
	tab := AllocationTableFromResult(r, "Table 1")
	if !strings.Contains(tab.String(), "FrontEnd1") {
		t.Error("allocation table missing task row")
	}
	if !strings.Contains(tab.String(), "TOTAL") {
		t.Error("allocation table missing total")
	}
	f2 := Figure2FromResult(r)
	if len(f2.Pairs) == 0 {
		t.Error("figure 2 empty")
	}
	f3, rep := Figure3FromResult(r)
	if len(f3.Pairs) == 0 || rep == nil {
		t.Error("figure 3 empty")
	}
	// X3 renders for 4 CPUs.
	x3 := AssignmentFromResult(r, 4)
	if !strings.Contains(x3.String(), "LPT") {
		t.Error("assignment table missing LPT row")
	}
}

func TestApp2StudySmall(t *testing.T) {
	r := runBuiltins(t, ScenarioApp2)[0]
	if r.Shared.TotalMisses == 0 {
		t.Fatal("no misses measured")
	}
	tab := AllocationTableFromResult(r, "Table 2")
	for _, name := range []string{"vld", "memMan", "predictRD"} {
		if !strings.Contains(tab.String(), name) {
			t.Errorf("table 2 missing %q", name)
		}
	}
	if r.Compose.MaxRelDiff > 0.10 {
		t.Errorf("max rel diff %.3f too large", r.Compose.MaxRelDiff)
	}
}

func TestHeadlineSmall(t *testing.T) {
	res := runBuiltins(t, ScenarioApp1, ScenarioApp2, ScenarioMpeg2Big)
	tab, rows := HeadlineFromResults(res[0], res[1], res[2])
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 2 apps + 1MB variant", len(rows))
	}
	out := tab.String()
	for _, want := range []string{"2jpeg+canny", "mpeg2", "1MB"} {
		if !strings.Contains(out, want) {
			t.Errorf("headline missing %q", want)
		}
	}
	// The 1 MB shared cache must not be worse than the 512 KB shared.
	if rows[2].SharedMiss > rows[1].SharedMiss {
		t.Errorf("1MB shared misses %d > 512KB shared %d", rows[2].SharedMiss, rows[1].SharedMiss)
	}
}

func TestCompositionSmall(t *testing.T) {
	res := runBuiltins(t, ScenarioJPEG1Solo, ScenarioApp1)
	cr, tab := CompositionFromResults(res[0], res[1])
	if cr.SharedSolo == 0 || cr.PartSolo == 0 {
		t.Fatal("no solo misses measured")
	}
	// The partitioned system must be far more compositional than the
	// shared one: adding co-runners barely changes jpeg1's misses.
	if cr.PartShift() > 0.05 {
		t.Errorf("partitioned shift %.3f, want < 0.05", cr.PartShift())
	}
	if cr.SharedShift() < 2*cr.PartShift() {
		t.Errorf("shared shift %.3f not clearly larger than partitioned %.3f",
			cr.SharedShift(), cr.PartShift())
	}
	if !strings.Contains(tab.String(), "co-scheduled") {
		t.Error("table malformed")
	}
}

func TestGranularitySmall(t *testing.T) {
	fine := runBuiltins(t, ScenarioApp1Optimize)[0]
	// The column-caching leg is expected to fail (more entities than
	// ways); the table reports that infeasibility.
	spec, _ := BuiltinScenario(Small(), ScenarioApp1Column)
	coarse := smallRunner.RunBatch([]scenario.Scenario{spec})[0]
	out := GranularityFromResults(Small(), fine, coarse).String()
	if !strings.Contains(out, "column caching") || !strings.Contains(out, "set partitioning") {
		t.Errorf("granularity table malformed:\n%s", out)
	}
}

func TestStudyMissRatioZeroSafe(t *testing.T) {
	for name, r := range map[string]*scenario.Result{
		"nil partitioned": {Shared: &scenario.RunSummary{TotalMisses: 10}},
		"zero misses":     {Shared: &scenario.RunSummary{}, Partitioned: &scenario.RunSummary{}},
	} {
		if r.MissRatio() != 0 {
			t.Errorf("%s: MissRatio = %v, want 0", name, r.MissRatio())
		}
	}
}
