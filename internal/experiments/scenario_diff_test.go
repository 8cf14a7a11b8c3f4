package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestScenarioLayerMatchesLegacyCommands runs every CLI command on one
// shared runner: each must emit machine-readable documents, `all` must be
// the concatenation of its commands in allOrder, and the shared runner
// must serve repeated studies from its memo. The text of each command is
// pinned to the frozen pre-scenario output by TestDefaultTopologyGolden.
func TestScenarioLayerMatchesLegacyCommands(t *testing.T) {
	cfg := Small()
	rn := scenario.NewRunner(cfg.Workers)

	texts := make(map[string]string, len(goldenCommands))
	for _, cmd := range goldenCommands {
		out, err := RunCommand(cmd, cfg, rn)
		if err != nil {
			t.Fatalf("RunCommand(%s): %v", cmd, err)
		}
		texts[cmd] = out.Text
		if len(out.Documents) == 0 {
			t.Errorf("command %s: no machine-readable documents", cmd)
		}
	}

	var want strings.Builder
	for _, c := range allOrder {
		want.WriteString(texts[c])
	}
	out, err := RunCommand("all", cfg, rn)
	if err != nil {
		t.Fatalf("RunCommand(all): %v", err)
	}
	if out.Text != want.String() {
		t.Errorf("command all: output differs from the concatenation of its commands")
	}

	// The shared runner must have deduplicated the studies: far fewer
	// stage executions than stage requests.
	st := rn.Stats()
	if st.MemoHits == 0 {
		t.Errorf("runner memoization never hit (stats %+v)", st)
	}
	t.Logf("runner stats: %+v", st)
}

// TestScenarioRoundTripIdenticalResults is the serialization half of
// the acceptance criteria: a Scenario survives spec → JSON → spec with
// identical simulation results.
func TestScenarioRoundTripIdenticalResults(t *testing.T) {
	cfg := Small()
	cfg.ProfileRuns = 1
	spec, ok := BuiltinScenario(cfg, ScenarioApp1)
	if !ok {
		t.Fatal("missing builtin app1")
	}

	rn := scenario.NewRunner(1)
	direct, err := rn.Run(spec)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}

	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	parsed, err := scenario.Resolve(raw, nil)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	// A fresh runner so nothing is served from the first run's memo.
	rn2 := scenario.NewRunner(1)
	reran, err := rn2.Run(parsed)
	if err != nil {
		t.Fatalf("round-tripped run: %v", err)
	}

	if direct.Key != reran.Key {
		t.Fatalf("content keys differ: %s vs %s", direct.Key, reran.Key)
	}
	a, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(reran)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("round-tripped scenario produced different results\n--- direct ---\n%s\n--- round-tripped ---\n%s", a, b)
	}
}

// TestProfileEngineScenarioEquivalence drives the two profiling engines
// through the scenario layer and expects identical allocations — the
// same guarantee TestEngineEquivalenceSmall gives the curves.
func TestProfileEngineScenarioEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short: skip second engine study")
	}
	cfg := Small()
	cfg.ProfileRuns = 1
	rn := scenario.NewRunner(cfg.Workers)
	spec, _ := BuiltinScenario(cfg, ScenarioApp1)

	spec.ProfileEngine = "stackdist"
	fast, err := rn.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.ProfileEngine = "bank"
	slow, err := rn.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Key == slow.Key {
		t.Fatal("engine choice must be part of the content address")
	}
	af, _ := json.Marshal(fast.Optimize)
	as, _ := json.Marshal(slow.Optimize)
	if string(af) != string(as) {
		t.Errorf("profiling engines disagree through the scenario layer:\n%s\nvs\n%s", af, as)
	}
}
