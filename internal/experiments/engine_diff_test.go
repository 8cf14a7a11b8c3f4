package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/workloads"
)

// diffResults fails the test if two Results differ in any observable:
// aggregate L2 statistics, per-entity accesses and misses, makespan,
// instruction count, CPI, switches, bus traffic, energy and per-task
// cycles.
func diffResults(t *testing.T, label string, merged, word *core.Result) {
	t.Helper()
	if merged.Platform.Makespan != word.Platform.Makespan {
		t.Errorf("%s: makespan %d (merged) vs %d (word)", label, merged.Platform.Makespan, word.Platform.Makespan)
	}
	if merged.Platform.TotalInstrs != word.Platform.TotalInstrs {
		t.Errorf("%s: instrs %d vs %d", label, merged.Platform.TotalInstrs, word.Platform.TotalInstrs)
	}
	if merged.Platform.L2 != word.Platform.L2 {
		t.Errorf("%s: L2 stats %+v vs %+v", label, merged.Platform.L2, word.Platform.L2)
	}
	if merged.Platform.BusStats != word.Platform.BusStats {
		t.Errorf("%s: bus stats %+v vs %+v", label, merged.Platform.BusStats, word.Platform.BusStats)
	}
	if merged.Platform.Switches != word.Platform.Switches {
		t.Errorf("%s: switches %d vs %d", label, merged.Platform.Switches, word.Platform.Switches)
	}
	if !reflect.DeepEqual(merged.Platform.CPIs, word.Platform.CPIs) {
		t.Errorf("%s: CPIs %v vs %v", label, merged.Platform.CPIs, word.Platform.CPIs)
	}
	if !reflect.DeepEqual(merged.Entities, word.Entities) {
		t.Errorf("%s: entity results differ:\nmerged: %+v\nword:   %+v", label, merged.Entities, word.Entities)
	}
	if merged.L2MissRate != word.L2MissRate || merged.CPIMean != word.CPIMean {
		t.Errorf("%s: rate/CPI %v/%v vs %v/%v", label, merged.L2MissRate, merged.CPIMean, word.L2MissRate, word.CPIMean)
	}
	if merged.Energy != word.Energy {
		t.Errorf("%s: energy %v vs %v", label, merged.Energy, word.Energy)
	}
	if !reflect.DeepEqual(merged.TaskCycles, word.TaskCycles) {
		t.Errorf("%s: task cycles %v vs %v", label, merged.TaskCycles, word.TaskCycles)
	}
}

// coreStudy is one workload's full study kept as complete core results:
// the shared baseline, the optimized allocation and the partitioned run.
// scenario.RunSummary drops bus statistics, switches and per-core CPIs,
// which the engine differential compares.
type coreStudy struct {
	shared, part *core.Result
	opt          *core.OptimizeResult
}

// runCoreStudy runs the study pipeline on the core API: shared run,
// profile + optimize, partitioned run under the optimized allocation.
func runCoreStudy(w core.Workload, cfg Config) (*coreStudy, error) {
	shared, err := core.Run(w, core.RunConfig{Platform: cfg.Platform})
	if err != nil {
		return nil, err
	}
	opt, err := core.Optimize(w, core.OptimizeConfig{
		Platform: cfg.Platform,
		Runs:     cfg.ProfileRuns,
		Solver:   cfg.Solver,
		Engine:   cfg.Engine,
		Workers:  cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	part, err := core.Run(w, core.RunConfig{Platform: cfg.Platform, Strategy: core.Partitioned, Alloc: opt.Allocation})
	if err != nil {
		return nil, err
	}
	return &coreStudy{shared: shared, part: part, opt: opt}, nil
}

// TestEngineDifferentialStudies is the acceptance oracle of the
// line-merged fast path on the real workloads: for Small-scale JPEGCanny
// and MPEG-2, the full study — shared baseline, profiled miss curves,
// optimized allocation, partitioned run, compositionality comparison —
// must be bit-identical under both execution engines, at the default
// worker fan-out (run under -race in CI).
func TestEngineDifferentialStudies(t *testing.T) {
	for _, w := range []core.Workload{
		workloads.JPEGCanny(workloads.Small, nil),
		workloads.MPEG2(workloads.Small, nil),
	} {
		t.Run(w.Name, func(t *testing.T) {
			cfg := Small()
			cfg.Platform.Engine = platform.EngineLineMerged
			merged, err := runCoreStudy(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Platform.Engine = platform.EngineWordExact
			word, err := runCoreStudy(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			diffResults(t, "shared", merged.shared, word.shared)
			diffResults(t, "partitioned", merged.part, word.part)
			if !reflect.DeepEqual(merged.opt.Allocation, word.opt.Allocation) {
				t.Errorf("allocations differ: %v vs %v", merged.opt.Allocation, word.opt.Allocation)
			}
			if !reflect.DeepEqual(merged.opt.Expected, word.opt.Expected) {
				t.Errorf("expected misses differ: %v vs %v", merged.opt.Expected, word.opt.Expected)
			}
			mc := core.CompareExpectedSimulated(merged.opt.Expected, merged.part)
			wc := core.CompareExpectedSimulated(word.opt.Expected, word.part)
			if mc.MaxRelDiff != wc.MaxRelDiff {
				t.Errorf("compositionality %v vs %v", mc.MaxRelDiff, wc.MaxRelDiff)
			}
		})
	}
}
