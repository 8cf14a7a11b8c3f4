// Example jpegcanny reproduces the paper's first application end to end:
// two JPEG decoders and a Canny edge detector (15 tasks) on the 4-CPU
// CAKE tile, decoding real synthetic bitstreams whose outputs are
// verified bit-exactly, under the shared and the partitioned L2.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

func main() {
	small := flag.Bool("small", true, "run the fast small-scale variant")
	flag.Parse()

	scale := workloads.Small
	if !*small {
		scale = workloads.Paper
	}

	// Functional check first: the decoders must produce bit-exact output.
	var handles workloads.JPEGCannyHandles
	w := workloads.JPEGCanny(scale, &handles)
	app, err := w.Factory()
	if err != nil {
		log.Fatal(err)
	}
	cfg := experiments.Default()
	if *small {
		cfg = experiments.Small()
	}
	if _, err := core.RunApp(app, core.RunConfig{Platform: cfg.Platform}); err != nil {
		log.Fatal(err)
	}
	for name, verify := range map[string]func() error{
		"jpeg1": handles.JPEG1.Verify,
		"jpeg2": handles.JPEG2.Verify,
		"canny": handles.Canny.Verify,
	} {
		if err := verify(); err != nil {
			log.Fatalf("%s output wrong: %v", name, err)
		}
		fmt.Printf("%s: decoded output verified bit-exactly\n", name)
	}

	// Then the paper's study, on the scenario runner: Table 1, Figure 2,
	// Figure 3.
	spec, _ := experiments.BuiltinScenario(cfg, experiments.ScenarioApp1)
	study, err := scenario.NewRunner(cfg.Workers).Run(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(experiments.AllocationTableFromResult(study, "Table 1: allocated L2 units"))
	fmt.Println(experiments.Figure2FromResult(study))
	chart, rep := experiments.Figure3FromResult(study)
	fmt.Println(chart)
	fmt.Printf("misses: shared %d -> partitioned %d (%.2fx fewer; paper: 5x)\n",
		study.Shared.TotalMisses, study.Partitioned.TotalMisses, study.MissRatio())
	fmt.Printf("CPI: %.2f -> %.2f; compositional: %v\n",
		study.Shared.CPIMean, study.Partitioned.CPIMean, rep.Compositional(0.02))
}
