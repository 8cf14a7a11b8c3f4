package experiments

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/tracefile"
	"repro/internal/workloads"
)

// liveAndReplay builds a Small-scale workload twice: live, re-running
// the functional applications on every build, and as the replay of its
// recorded trace — the scenario runner's only workload source.
func liveAndReplay(t *testing.T, name string) (live, replay core.Workload) {
	t.Helper()
	bc := workloads.BuildConfig{Scale: workloads.Small}
	live, err := workloads.Build(name, bc)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.Build(name, bc)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracefile.Capture(w, tracefile.Meta{Workload: name, Scale: workloads.Small.String()})
	if err != nil {
		t.Fatal(err)
	}
	return live, tr.Workload(name)
}

// sameJSON fails the test unless a and b marshal identically.
func sameJSON(t *testing.T, label string, a, b any) {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("%s: replay diverged from live\n--- live ---\n%s\n--- replay ---\n%s", label, ja, jb)
	}
}

// TestTraceReplayMatchesLive is the end-to-end differential proof of the
// trace subsystem: for both paper applications and both execution
// engines, the full study driven by trace replay is bit-identical — the
// complete core results of the shared and partitioned runs (per-entity
// stats, makespans, bus traffic, per-core CPIs) and the optimize result
// (curves, allocation, expected misses) — to the same study re-running
// the live functional applications. This is what lets the scenario
// runner drive every stage from replay alone.
func TestTraceReplayMatchesLive(t *testing.T) {
	engines := []platform.Engine{platform.EngineLineMerged, platform.EngineWordExact}
	if testing.Short() {
		engines = engines[:1]
	}
	for _, name := range []string{"2jpeg+canny", "mpeg2"} {
		for _, engine := range engines {
			t.Run(name+"/"+engine.String(), func(t *testing.T) {
				cfg := Small()
				cfg.Platform.Engine = engine
				live, replay := liveAndReplay(t, name)
				a, err := runCoreStudy(live, cfg)
				if err != nil {
					t.Fatalf("live study: %v", err)
				}
				b, err := runCoreStudy(replay, cfg)
				if err != nil {
					t.Fatalf("replay study: %v", err)
				}
				sameJSON(t, "shared run", a.shared, b.shared)
				sameJSON(t, "optimize", a.opt, b.opt)
				sameJSON(t, "partitioned run", a.part, b.part)
			})
		}
	}
}

// TestTraceReplayMatchesLiveCurves extends the differential proof to the
// raw profiling output at the runner's default repetition count (two
// jittered schedules): the per-entity miss curves, the quantity every
// allocation is solved from, must match between live and replayed
// workloads under both execution engines.
func TestTraceReplayMatchesLiveCurves(t *testing.T) {
	for _, name := range []string{"2jpeg+canny", "mpeg2"} {
		live, replay := liveAndReplay(t, name)
		for _, engine := range []platform.Engine{platform.EngineLineMerged, platform.EngineWordExact} {
			oc := core.OptimizeConfig{Platform: Small().Platform, Runs: 2}
			oc.Platform.Engine = engine
			a, err := core.Profile(live, oc)
			if err != nil {
				t.Fatalf("%s live profile: %v", name, err)
			}
			b, err := core.Profile(replay, oc)
			if err != nil {
				t.Fatalf("%s replay profile: %v", name, err)
			}
			if len(a) == 0 {
				t.Fatalf("%s: no curves", name)
			}
			sameJSON(t, name+"/"+engine.String()+" curves", a, b)
		}
	}
}
