package scenario_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// TestProfiledBaselineMatchesSharedRun is the differential proof behind
// baseline publication: for every optimized scenario, the shared section
// a fresh runner reports (served from the profile's repetition 0 when
// sharedFromProfile says so) is byte-identical to a "shared"-policy run
// on another fresh runner, which simulates the baseline on its own. The
// runner's counters show the baseline was simulated again exactly when
// it could not come from the profile.
func TestProfiledBaselineMatchesSharedRun(t *testing.T) {
	cfg := experiments.Small()
	specs := map[string]scenario.Scenario{}
	for name, s := range experiments.BuiltinScenarios(cfg) {
		if s.Partition == "" || s.Partition == scenario.PartitionOptimized {
			specs["builtin "+name] = s
		}
	}
	for _, file := range []string{"l3-shared.json", "clustered-l2.json"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", file))
		if err != nil {
			t.Fatal(err)
		}
		s, err := scenario.Resolve(raw, nil)
		if err != nil {
			t.Fatal(err)
		}
		specs["example "+file] = s
	}
	app1, _ := experiments.BuiltinScenario(cfg, experiments.ScenarioApp1)
	word := app1
	word.ExecEngine = "word"
	specs["exec_engine word"] = word
	bank := app1
	bank.ProfileEngine = "bank"
	specs["profile_engine bank"] = bank
	self := app1
	self.AllocWorkload = app1.Workload // a stand-in naming the workload itself
	specs["alloc_workload itself"] = self
	// Two runs: the baseline is repetition 0 among jittered siblings.
	level, err := scenario.Resolve([]byte(`{
		"workload": "2jpeg+canny", "scale": "small", "runs": 2, "profile_level": "l2",
		"platform": {"hierarchy": {"levels": [
			{"name": "l1"},
			{"name": "l2", "scope": "shared", "sets": 512, "hit_latency": 8},
			{"name": "l3", "sets": 4096, "hit_latency": 24, "partition": true}
		]}}
	}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	specs["profile_level l2"] = level

	// The migration and alloc_workload built-ins keep their own
	// baseline; every other case reuses the profile's.
	reused := 0
	fromProfile := map[string]bool{}
	for name, spec := range specs {
		ok, err := scenario.SharedFromProfile(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fromProfile[name] = ok
		if ok {
			reused++
		}
	}
	if reused != len(specs)-2 {
		t.Errorf("%d of %d scenarios reuse the profiled baseline, want %d", reused, len(specs), len(specs)-2)
	}

	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opt := scenario.NewRunner(0)
			res, err := opt.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			alone := spec
			alone.Partition = scenario.PartitionShared
			alone.AllocWorkload = ""
			ref, err := scenario.NewRunner(0).Run(alone)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := json.Marshal(res.Shared)
			want, _ := json.Marshal(ref.Shared)
			if string(got) != string(want) {
				t.Errorf("shared section differs from a shared-policy run\n got %s\nwant %s", got, want)
			}
			// One partitioned run always; the shared run only when the
			// profile could not provide it.
			wantRuns := uint64(2)
			if fromProfile[name] {
				wantRuns = 1
			}
			if st := opt.Stats(); st.RunRuns != wantRuns || st.ProfileRuns != 1 {
				t.Errorf("sharedFromProfile=%v: want %d run stages and 1 profile, got %+v", fromProfile[name], wantRuns, st)
			}
		})
	}
}
