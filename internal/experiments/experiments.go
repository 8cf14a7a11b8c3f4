// Package experiments regenerates every table and figure of the paper's
// evaluation (section 5), plus the extension studies listed in DESIGN.md:
//
//	T1/T2  Tables 1-2: optimized L2 allocation per entity
//	F2     Figure 2: shared vs best-partitioned misses per entity
//	F3     Figure 3: expected vs simulated misses (compositionality)
//	H1     headline metrics: miss ratio, miss rate, CPI, mpeg2@1MB
//	X1     compositionality ablation: jpeg1 alone vs co-scheduled
//	X2     granularity ablation: set-partitioning vs way (column) caching
//	X3     task-to-processor assignment search on the section 3.1 model
//	X4     split instruction/data partitions (the section 4.2 variant)
//	X5     schedule sensitivity under task migration
//
// Every command resolves to built-in scenarios (scenario_defs.go) run on
// a scenario.Runner, and the adapters in adapters.go render the tables
// and figures from the resulting scenario.Result documents.
package experiments

import (
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/profile"
	"repro/internal/workloads"
)

// Config parameterizes the harness.
type Config struct {
	Scale       workloads.Scale
	Platform    platform.Config
	ProfileRuns int
	Solver      core.Solver
	// Engine selects the profiling engine (default: the single-pass
	// stack-distance simulator; profile.EngineBank is the reference
	// bank-of-caches oracle).
	Engine profile.Engine
	// Workers sizes the scenario runner's worker pools
	// (scenario.NewRunner): the scenarios of a batch, the shared and
	// optimize legs of a study, and the profiling repetitions each fan
	// out over a pool of this bound. 0 = GOMAXPROCS, 1 = fully
	// sequential. Every simulation owns its platform instance, so the
	// results are identical at any worker count.
	Workers int
}

// Default returns the paper-scale configuration: the 4-CPU, 512 KB L2
// CAKE instance of section 5.
func Default() Config {
	return Config{Scale: workloads.Paper, Platform: platform.Default(), ProfileRuns: 2}
}

// Small returns a fast configuration for tests.
func Small() Config {
	return Config{Scale: workloads.Small, Platform: platform.Default(), ProfileRuns: 1}
}

// HeadlineRow summarizes one study for the headline table. It is part
// of the machine-readable surface (`compmem headline -json` emits the
// rows in a versioned report envelope).
type HeadlineRow struct {
	App        string  `json:"app"`
	SharedMiss uint64  `json:"shared_misses"`
	PartMiss   uint64  `json:"partitioned_misses"`
	Ratio      float64 `json:"ratio"`
	SharedRate float64 `json:"shared_miss_rate"`
	PartRate   float64 `json:"partitioned_miss_rate"`
	SharedCPI  float64 `json:"shared_cpi"`
	PartCPI    float64 `json:"partitioned_cpi"`
	MaxRelDiff float64 `json:"max_rel_diff"`
	// Energy in the arbitrary units of core.PowerModel: the paper's
	// power criterion ("optimizing the overall execution time
	// (respectively the number of misses) gives the most power
	// consumptions reduction").
	SharedEnergy float64 `json:"shared_energy"`
	PartEnergy   float64 `json:"partitioned_energy"`
}
