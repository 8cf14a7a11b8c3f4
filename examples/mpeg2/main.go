// Example mpeg2 reproduces the paper's second application: the 13-task
// parallel MPEG-2 decoder with closed-loop motion compensation, verified
// bit-exactly, studied under the shared and partitioned L2 and under the
// paper's extra 1 MB shared-cache data point.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/apps/mpeg2"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

func main() {
	small := flag.Bool("small", true, "run the fast small-scale variant")
	flag.Parse()

	scale := workloads.Small
	cfg := experiments.Small()
	if !*small {
		scale = workloads.Paper
		cfg = experiments.Default()
	}

	// Functional verification.
	var pipe *mpeg2.Pipeline
	w := workloads.MPEG2(scale, &pipe)
	app, err := w.Factory()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := core.RunApp(app, core.RunConfig{Platform: cfg.Platform}); err != nil {
		log.Fatal(err)
	}
	if err := pipe.Verify(); err != nil {
		log.Fatalf("decoded video wrong: %v", err)
	}
	fmt.Printf("mpeg2: %d pictures (%dx%d) decoded and verified bit-exactly\n",
		pipe.Pictures, pipe.Width, pipe.Height)

	// The study, on the scenario runner: Table 2, Figure 2, and the 1 MB
	// shared variant.
	var specs []scenario.Scenario
	for _, name := range []string{experiments.ScenarioApp2, experiments.ScenarioMpeg2Big} {
		spec, _ := experiments.BuiltinScenario(cfg, name)
		specs = append(specs, spec)
	}
	results := scenario.NewRunner(cfg.Workers).RunBatch(specs)
	for _, r := range results {
		if r.Error != "" {
			log.Fatal(r.Error)
		}
	}
	study, big := results[0], results[1].Shared
	fmt.Println()
	fmt.Println(experiments.AllocationTableFromResult(study, "Table 2: allocated L2 units"))
	fmt.Println(experiments.Figure2FromResult(study))
	fmt.Printf("misses: shared %d -> partitioned %d (%.2fx fewer; paper: 6.5x)\n",
		study.Shared.TotalMisses, study.Partitioned.TotalMisses, study.MissRatio())
	fmt.Printf("1MB shared L2: %d misses (%.2f%%), CPI %.2f — the paper's extra data point\n",
		big.TotalMisses, big.L2MissRate*100, big.CPIMean)
}
