package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// runExplore runs a budgeted Pareto-guided exploration of a sweep-defined
// space from a JSON spec file or a built-in sweep name. With -checkpoint
// the spec and the visited-point log persist after every round; -resume
// picks the search up exactly where the log ends, and a -store-dir shared
// with the earlier run turns every already simulated point into memo
// hits, so a killed exploration resumes with zero re-executed stages.
func runExplore(cfg experiments.Config, args []string, asJSON bool) error {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	path := fs.String("spec", "", "exploration spec: a JSON file, or a built-in sweep name explored under the default strategy")
	budget := fs.Int("budget", 0, "override the spec's point budget for this run (0 = the spec's own; the checkpoint fingerprint ignores it)")
	checkpointDir := fs.String("checkpoint", "", "checkpoint directory: receives the spec and an atomically updated visited-point log after every round")
	resume := fs.Bool("resume", false, "resume from the checkpoint in -checkpoint (with -spec omitted, the directory's own spec is used)")
	storeDir := fs.String("store-dir", "", "durable result store directory: completed pipeline stages persist here and warm-serve a resumed exploration")
	subJSON := fs.Bool("json", false, "stream per-point envelopes plus the final aggregate as NDJSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := expectNoArgs("explore", fs.Args()); err != nil {
		return err
	}

	var ex explore.Explore
	switch {
	case *path != "":
		lookupBase := func(name string) (scenario.Scenario, bool) { return experiments.BuiltinScenario(cfg, name) }
		lookupSweep := func(name string) (sweep.Sweep, bool) { return experiments.BuiltinSweep(cfg, name) }
		if raw, err := os.ReadFile(*path); err == nil {
			if ex, err = explore.Parse(raw, lookupBase, lookupSweep); err != nil {
				return err // already "explore:"-prefixed
			}
		} else if sw, ok := experiments.BuiltinSweep(cfg, *path); ok {
			ex = explore.Explore{Name: sw.Name, Sweep: sw}
		} else {
			return fmt.Errorf("explore: %w (and %q is not a built-in sweep; built-ins: %v)", err, *path, experiments.BuiltinSweepNames())
		}
	case *resume && *checkpointDir != "":
		var err error
		if ex, err = explore.LoadSpec(*checkpointDir); err != nil {
			return err
		}
	default:
		return fmt.Errorf("explore: -spec file.json (or a built-in sweep name, e.g. %q) is required unless -resume -checkpoint carries one", experiments.SweepPaperGrid)
	}

	rn, err := newRunner(cfg, *storeDir)
	if err != nil {
		return err
	}
	defer rn.Close()

	var observe func(explore.PointResult)
	var encErr error
	enc := json.NewEncoder(os.Stdout)
	if asJSON || *subJSON {
		observe = func(p explore.PointResult) {
			if err := enc.Encode(p.Envelope()); err != nil && encErr == nil {
				encErr = err
			}
		}
	}
	res, err := explore.Run(context.Background(), rn, ex, explore.Options{
		Budget:        *budget,
		CheckpointDir: *checkpointDir,
		Resume:        *resume,
	}, observe)
	if err != nil {
		return err // search errors are already "explore:"-prefixed
	}
	if encErr != nil {
		return fmt.Errorf("explore: writing point envelopes: %w", encErr)
	}
	if asJSON || *subJSON {
		if err := enc.Encode(res.Envelope()); err != nil {
			return err
		}
	} else {
		fmt.Print(explore.Render(res))
	}
	// As with sweeps, individual point failures are data, but an
	// exploration where nothing succeeded must not exit 0.
	if res.Visited > 0 && res.Failed == res.Visited {
		return fmt.Errorf("explore: every visited point failed")
	}
	return nil
}
