package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestSubcommandsRejectStrayArgs checks that every flag-parsing
// subcommand fails on a positional argument it would otherwise drop,
// before doing any work, and names the argument in its error.
func TestSubcommandsRejectStrayArgs(t *testing.T) {
	cfg := experiments.Small()
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"run", func() error { return runScenarios(cfg, []string{"-scenario", "jpeg1-solo", "stray"}, false) }},
		{"sweep", func() error {
			return runSweep(cfg, []string{"-spec", "paper-grid", "-max-points", "1", "stray"}, false)
		}},
		{"explore", func() error { return runExplore(cfg, []string{"-spec", "paper-grid", "stray"}, false) }},
		{"serve", func() error { return runServe(cfg, []string{"-addr", "127.0.0.1:0", "stray"}) }},
		{"trace record", func() error { return runTrace(cfg, []string{"record", "-workload", "mpeg2", "stray"}, false) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("stray positional argument accepted")
			}
			if !strings.Contains(err.Error(), "stray") || !strings.HasPrefix(err.Error(), tc.name) {
				t.Errorf("error %q does not name the command and the stray argument", err)
			}
		})
	}
}
