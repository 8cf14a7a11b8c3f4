package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/tracefile"
	"repro/internal/workloads"
)

// runTrace dispatches the trace subcommands: `record` captures a
// workload's access stream into a .ctr file, `info` prints a trace
// file's header and totals, `replay` drives a measured execution from a
// trace file (optionally re-capturing it first to verify the file is
// byte-exact under replay).
func runTrace(cfg experiments.Config, args []string, asJSON bool) error {
	if len(args) < 1 {
		return fmt.Errorf("trace: want a subcommand: record | info | replay")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "record":
		return traceRecord(rest)
	case "info":
		return traceInfo(rest, asJSON)
	case "replay":
		return traceReplay(cfg, rest)
	}
	return fmt.Errorf("trace: unknown subcommand %q (want record, info or replay)", sub)
}

// traceRecord captures one live functional run of a registered workload
// into a trace file.
func traceRecord(args []string) error {
	fs := flag.NewFlagSet("trace record", flag.ContinueOnError)
	workload := fs.String("workload", "", "registered workload to record (see `compmem scenarios`)")
	scale := fs.String("scale", "paper", "workload scale: small or paper")
	seed := fs.Uint64("seed", 0, "synthetic-input seed (0 = the canonical paper workload)")
	out := fs.String("o", "", "output trace file (default <workload>.ctr)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := expectNoArgs("trace record", fs.Args()); err != nil {
		return err
	}
	if *workload == "" {
		return fmt.Errorf("trace record: -workload is required (registered: %v)", workloads.Names())
	}
	sc, err := workloads.ParseScale(*scale)
	if err != nil {
		return err
	}
	w, err := workloads.Build(*workload, workloads.BuildConfig{Scale: sc, Seed: *seed})
	if err != nil {
		return err
	}
	t, err := tracefile.Capture(w, tracefile.Meta{Workload: *workload, Scale: sc.String(), Seed: *seed})
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = *workload + ".ctr"
	}
	if err := t.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("recorded %s (%s scale, seed %d): %d tasks, %d events, %d instrs, %d bytes -> %s\n",
		*workload, sc.String(), *seed, len(t.Header.Tasks), t.Header.Events, t.Header.Instrs, t.Size(), path)
	return nil
}

// traceInfo prints a trace file's identity, topology and totals.
func traceInfo(args []string, asJSON bool) error {
	fs := flag.NewFlagSet("trace info", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("trace info: want exactly one trace file")
	}
	t, err := tracefile.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]interface{}{
			"header": t.Header,
			"totals": t.Totals,
			"bytes":  t.Size(),
		})
	}
	h := t.Header
	fmt.Printf("%s: app %q (workload %q, %s scale, seed %d), format v%d, %d bytes\n",
		fs.Arg(0), h.App, h.Meta.Workload, h.Meta.Scale, h.Meta.Seed, tracefile.Version, t.Size())
	fmt.Printf("  totals: %d events, %d instrs, %d accesses, %d bulk ops (%d bytes), %d fifo ops\n",
		t.Totals.Events, t.Totals.Instrs, t.Totals.Accesses, t.Totals.BulkOps, t.Totals.BulkBytes, t.Totals.FIFOOps)
	fmt.Printf("  topology: %d regions, %d fifos, %d frames\n", len(h.Regions), len(h.FIFOs), len(h.Frames))
	for i, task := range h.Tasks {
		fmt.Printf("  task %-14s cpu %d  %8d events  %10d stream bytes\n",
			task.Name, task.CPU, h.Streams[i].Events, len(t.Stream(i)))
	}
	return nil
}

// traceReplay rebuilds the recorded application from a trace file and
// drives one measured shared-cache execution with the configured
// platform and engine. With -verify it first re-captures the replayed
// application and proves the bytes identical to the file — the replay ≡
// live exactness check, applied to this concrete trace.
func traceReplay(cfg experiments.Config, args []string) error {
	fs := flag.NewFlagSet("trace replay", flag.ContinueOnError)
	verify := fs.Bool("verify", true, "re-capture the replayed app and require byte-identity with the file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("trace replay: want exactly one trace file")
	}
	t, err := tracefile.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if *verify {
		re, err := tracefile.Capture(t.Workload(""), t.Header.Meta)
		if err != nil {
			return fmt.Errorf("trace replay: re-capture: %w", err)
		}
		if !bytes.Equal(re.Bytes(), t.Bytes()) {
			return fmt.Errorf("trace replay: re-captured stream differs from the file (%d vs %d bytes)", re.Size(), t.Size())
		}
		fmt.Printf("verified: capture(replay(%s)) is byte-identical (%d bytes)\n", fs.Arg(0), t.Size())
	}
	res, err := core.Run(t.Workload(""), core.RunConfig{Platform: cfg.Platform})
	if err != nil {
		return err
	}
	fmt.Printf("replayed %q on engine %s: makespan %d cycles, %d instrs, %d misses, CPI %.3f\n",
		res.App, cfg.Platform.Engine, res.Platform.Makespan, res.Platform.TotalInstrs, res.TotalMisses(), res.CPIMean)
	return nil
}
