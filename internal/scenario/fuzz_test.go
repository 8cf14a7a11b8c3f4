package scenario_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

// FuzzScenarioSpec feeds arbitrary bytes through the spec surface every
// client reaches — strict decoding, normalization and stage-key
// derivation. Each step must either fail with an error or succeed, never
// panic; a spec that makes it through is within the runner's bounds, and
// its baseline-reuse decision matches its stage keys.
// The corpus starts from every built-in scenario (small and paper scale)
// and every example spec.
func FuzzScenarioSpec(f *testing.F) {
	for _, cfg := range []experiments.Config{experiments.Small(), experiments.Default()} {
		for _, s := range experiments.BuiltinScenarios(cfg) {
			b, err := json.Marshal(s)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no example specs (%v)", err)
	}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"workload":"mpeg2","runs":1000000000}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var s scenario.Scenario
		if err := scenario.DecodeStrict(raw, &s); err != nil {
			return
		}
		n, err := s.Normalize()
		if err != nil {
			return
		}
		if n.Runs < 1 || n.Runs > core.MaxProfileRuns {
			t.Fatalf("normalized runs %d outside 1..%d", n.Runs, core.MaxProfileRuns)
		}
		keys, err := s.StageKeys()
		if err != nil {
			t.Fatalf("a spec that normalizes must have stage keys: %v", err)
		}
		if keys["trace"] == "" {
			t.Fatalf("stage keys without a trace key: %v", keys)
		}
		// The runner's field test for baseline reuse must agree with the
		// key comparison it stands for.
		if _, err := scenario.SharedFromProfile(s); err != nil {
			t.Fatal(err)
		}
	})
}
