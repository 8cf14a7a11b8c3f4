package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/profile"
	"repro/internal/rtos"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/tracefile"
	"repro/internal/workloads"
)

// walkInput is the representative operation the layer walk re-executes
// call by call on the same inputs.
type walkInput struct {
	spec    scenario.Scenario // normalized, optimized policy
	want    *scenario.Result  // the runner's result for spec
	workers int               // the worker bound of the runner that produced want
	store   string            // disk store holding spec's records; "" makes a fresh one
}

// l2line is one access of the L2-bound stream.
type l2line struct {
	addr   uint64
	region mem.RegionID
	write  bool
}

// walk runs tracefile.Capture → Decode → core.Profile →
// OptimizeFromCurves (per solver) → core.Run ×2 → L2 stream replays →
// envelope encode → a runner over a disk store → Disk.Get/Put → a
// server over that runner, one span per call under one root, and checks
// that the walk reproduces the runner's result. The root's span tree
// gives each layer's self time for one representative operation. Calls
// too short to time once are then repeated on roots of their own and
// reported as medians. Every workload's walk takes every step, so every
// traced run reports every per-layer metric.
func (b *bench) walk(in walkInput) error {
	op, root := b.rec.op(layerWalk, "layer walk: "+in.spec.Workload)
	repeats, err := b.walkPipeline(op, root, in)
	if err != nil {
		return err
	}
	encode := func() error {
		body, err := json.Marshal(in.want.Envelope())
		b.put("report.body_kb", "KiB", float64(len(body))/1024)
		return err
	}
	if _, err := b.rec.call(op, root, "report", "Envelope encode", encode); err != nil {
		return err
	}
	repeats = append(repeats, func() error {
		d, err := b.repeat("report", "Envelope encode", encode)
		b.put("report.encode_us", "us", us(d))
		return err
	})
	r, cleanup, err := b.walkServe(op, root, in)
	if err != nil {
		return err
	}
	defer cleanup()
	repeats = append(repeats, r...)
	b.rec.finish(root)
	for _, r := range repeats {
		if err := r(); err != nil {
			return err
		}
	}
	return nil
}

// walkServe opens a store → runner → server stack over the walk's disk
// store (a fresh one when the workload has none), runs the spec through
// the runner, walks the store's records and sends the spec to the server
// over loopback. It returns the calls too short to time once, to be
// repeated after the walk's root closes, and a cleanup that closes the
// stack once they have run.
func (b *bench) walkServe(op, root int64, in walkInput) (repeats []func() error, cleanup func(), err error) {
	var undo []func()
	cleanup = func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}
	defer func() {
		if err != nil {
			cleanup()
		}
	}()
	dir := in.store
	if dir == "" {
		if dir, err = os.MkdirTemp(b.dir, "walk-"); err != nil {
			return nil, nil, err
		}
		undo = append(undo, func() { os.RemoveAll(dir) })
	}
	st, err := b.openStack(op, root, dir, in.workers)
	if err != nil {
		return nil, nil, err
	}
	undo = append(undo, func() { st.rn.Close() })
	ref := digestJSON(in.want)
	var got *scenario.Result
	if _, err := b.rec.call(op, root, "scenario", "Runner.RunContext over a disk store", func() (err error) {
		got, err = st.rn.RunContext(context.Background(), in.spec)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if digestJSON(got) != ref {
		return nil, nil, fmt.Errorf("walk: the disk-backed runner's result differs from the workload's")
	}
	open, err := b.walkStore(op, root, in.spec, dir)
	if err != nil {
		return nil, nil, err
	}

	l := newLoopback()
	undo = append(undo, l.close)
	l.h.cur.Store(st.srv)
	var payload []byte
	if _, err := b.rec.call(op, root, "serve", "POST /v1/batch", func() (err error) {
		payload, _, err = l.post(batchBody(in.spec))
		return err
	}); err != nil {
		return nil, nil, err
	}
	if digestBytes(payload) != ref {
		return nil, nil, fmt.Errorf("walk: the served result differs from the workload's")
	}
	return []func() error{
		open,
		func() error { return b.warmRun(st.rn, in.spec) },
		func() error { return b.serveCalls(l, st, in.spec, ref) },
		func() error {
			shed, err := l.shed()
			b.put("serve.shed", "count", float64(shed))
			return err
		},
	}, cleanup, nil
}

// walkPipeline re-executes the scenario pipeline call by call.
func (b *bench) walkPipeline(op, root int64, in walkInput) (repeats []func() error, err error) {
	n := in.spec
	call := func(layer, name string, f func() error) (time.Duration, error) {
		return b.rec.call(op, root, layer, name, f)
	}
	scale, err := workloads.ParseScale(n.Scale)
	if err != nil {
		return nil, err
	}
	w, err := workloads.Build(n.Workload, workloads.BuildConfig{Scale: scale, Seed: n.Seed})
	if err != nil {
		return nil, err
	}

	var tr, dec *tracefile.Trace
	d, err := call("tracefile", "tracefile.Capture", func() (err error) {
		tr, err = tracefile.Capture(w, tracefile.Meta{Workload: n.Workload, Scale: n.Scale, Seed: n.Seed})
		return err
	})
	if err != nil {
		return nil, err
	}
	b.put("tracefile.capture_ms", "ms", ms(d))
	b.put("tracefile.trace_mb", "MB", float64(tr.Size())/1e6)
	d, err = call("tracefile", "tracefile.Decode", func() (err error) {
		dec, err = tracefile.Decode(tr.Bytes())
		return err
	})
	if err != nil {
		return nil, err
	}
	b.put("tracefile.decode_ms", "ms", ms(d))
	rw := dec.Workload(n.Workload)

	pc, err := n.Platform.Config()
	if err != nil {
		return nil, err
	}
	if pc.Engine, err = platform.ParseEngine(n.ExecEngine); err != nil {
		return nil, err
	}
	pe, err := profile.ParseEngine(n.ProfileEngine)
	if err != nil {
		return nil, err
	}
	solver, err := core.ParseSolver(n.Solver)
	if err != nil {
		return nil, err
	}
	oc := core.OptimizeConfig{Platform: pc, Sizes: n.Sizes, Runs: n.Runs, Solver: solver, Engine: pe, Workers: in.workers}

	var curves []profile.Curve
	d, err = call("core", "core.Profile", func() (err error) {
		curves, err = core.Profile(rw, oc)
		return err
	})
	if err != nil {
		return nil, err
	}
	b.put("core.profile_ms", "ms", ms(d))

	app, err := rw.Factory()
	if err != nil {
		return nil, err
	}
	opts := map[core.Solver]*core.OptimizeResult{}
	for _, s := range []core.Solver{core.SolverMCKP, core.SolverILP} {
		soc := oc
		soc.Solver = s
		solve := func() (err error) {
			opts[s], err = core.OptimizeFromCurves(app, curves, soc)
			return err
		}
		if _, err := call(s.String(), "core.OptimizeFromCurves", solve); err != nil {
			return nil, err
		}
		repeats = append(repeats, func() error {
			d, err := b.repeat(s.String(), "core.OptimizeFromCurves", solve)
			b.put(s.String()+".solve_us", "us", us(d))
			if s == solver {
				b.put("core.optimize_us", "us", us(d))
			}
			return err
		})
	}
	opt := opts[solver]
	if got, want := digestJSON(opt.Allocation), digestJSON(in.want.Optimize.Allocation); got != want {
		return nil, fmt.Errorf("walk: allocation %v differs from the runner's %v", opt.Allocation, in.want.Optimize.Allocation)
	}
	if a, c := sumExpected(opts[core.SolverMCKP]), sumExpected(opts[core.SolverILP]); math.Abs(a-c) > 1e-9*math.Max(1, a) {
		return nil, fmt.Errorf("walk: mckp and ilp optima differ: %g vs %g expected misses", a, c)
	}

	run := pc
	run.Sched.AllowMigration = n.Migration
	for _, st := range []core.Strategy{core.Shared, core.Partitioned} {
		rc := core.RunConfig{Platform: run, Strategy: st}
		want := in.want.Shared
		if st == core.Partitioned {
			rc.Alloc, want = opt.Allocation, in.want.Partitioned
		}
		var res *core.Result
		d, err := call("core", "core.Run("+st.String()+")", func() (err error) {
			res, err = core.Run(rw, rc)
			return err
		})
		if err != nil {
			return nil, err
		}
		b.put("core.run_"+st.String()+"_ms", "ms", ms(d))
		if res.TotalMisses() != want.TotalMisses || res.Platform.Makespan != want.Makespan {
			return nil, fmt.Errorf("walk: %s run gives %d misses, makespan %d; the runner gave %d, %d",
				st, res.TotalMisses(), res.Platform.Makespan, want.TotalMisses, want.Makespan)
		}
	}

	r, err := b.walkStreams(op, root, rw, n, pc, pe)
	return append(repeats, r...), err
}

func sumExpected(o *core.OptimizeResult) float64 {
	var s float64
	for _, v := range o.Expected {
		s += v
	}
	return s
}

// walkStreams captures the L2-bound stream of one shared run through
// core.RunConfig.L2Observer, then replays it through the stack-distance
// profiler and through a cache of the L2 geometry. The observed run uses
// static scheduling and the spec's quantum, like the profiler's first
// repetition.
func (b *bench) walkStreams(op, root int64, rw core.Workload, n scenario.Scenario, pc platform.Config, pe profile.Engine) ([]func() error, error) {
	var lines []l2line
	var observed *core.Result
	_, err := b.rec.call(op, root, "core", "core.Run(shared, L2Observer)", func() (err error) {
		observed, err = core.Run(rw, core.RunConfig{Platform: pc, Strategy: core.Shared,
			L2Observer: func(addr uint64, write bool, region mem.RegionID) {
				lines = append(lines, l2line{addr, region, write})
			}})
		return err
	})
	if err != nil {
		return nil, err
	}
	b.put("profile.lines", "count", float64(len(lines)))

	app, err := rw.Factory()
	if err != nil {
		return nil, err
	}
	entities := app.Entities()
	names := make([]string, len(entities))
	regionOf := make(map[mem.RegionID]int)
	for i, e := range entities {
		names[i] = e.Name
		for _, r := range e.Regions {
			regionOf[r] = i
		}
	}
	geom := pc.PartitionGeom()
	pcfg := profile.Config{Sizes: n.Sizes, UnitSets: rtos.AllocUnit, Ways: geom.Ways, LineSize: geom.LineSize, Engine: pe}

	observe := func() error {
		prof, err := profile.New(pcfg, names, regionOf)
		if err != nil {
			return err
		}
		for _, l := range lines {
			prof.Observe(l.addr, l.write, l.region)
		}
		return nil
	}
	var misses uint64
	access := func() error {
		c := cache.New(geom)
		for _, l := range lines {
			c.AccessLine(l.addr, l.write, l.region)
		}
		misses = c.Stats().Misses
		return nil
	}
	if _, err := b.rec.call(op, root, "profile", "Profiler.Observe replay", observe); err != nil {
		return nil, err
	}
	if _, err := b.rec.call(op, root, "cache", "Cache.AccessLine replay", access); err != nil {
		return nil, err
	}
	b.put("cache.l2_misses", "count", float64(misses))
	if misses != observed.Platform.L2.Misses {
		return nil, fmt.Errorf("walk: replaying the L2 stream gives %d misses, the run's L2 had %d", misses, observed.Platform.L2.Misses)
	}
	perLine := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(len(lines)) }
	return []func() error{
		func() error {
			d, err := b.repeat("profile", "Profiler.Observe replay", observe)
			b.put("profile.observe_ns_per_line", "ns", perLine(d))
			return err
		},
		func() error {
			d, err := b.repeat("cache", "Cache.AccessLine replay", access)
			b.put("cache.l2_ns_per_line", "ns", perLine(d))
			return err
		},
	}, nil
}

// walkStore opens the store at dir, reads every stage record of spec
// from it and writes each into a fresh store, one span per call. The
// open is then repeated for its median.
func (b *bench) walkStore(op, root int64, n scenario.Scenario, dir string) (repeat func() error, err error) {
	keys, err := n.StageKeys()
	if err != nil {
		return nil, err
	}
	var names []string
	for _, k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)

	var src *store.Disk
	open := func() (err error) {
		src, err = store.OpenDisk(dir)
		return err
	}
	if _, err := b.rec.call(op, root, "store", "store.OpenDisk", open); err != nil {
		return nil, err
	}
	scratch := filepath.Join(b.dir, "walk-store")
	dst, err := store.OpenDisk(scratch)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var gets, puts []float64
	var bytes int
	for _, k := range names {
		var rec []byte
		d, err := b.rec.call(op, root, "store", "Disk.Get", func() (err error) {
			rec, err = src.Get(k)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("walk: reading record %s: %w", k, err)
		}
		gets = append(gets, ms(d))
		bytes += len(rec)
		d, err = b.rec.call(op, root, "store", "Disk.Put", func() error { return dst.Put(k, rec) })
		if err != nil {
			return nil, fmt.Errorf("walk: writing record %s: %w", k, err)
		}
		puts = append(puts, ms(d))
		if back, err := dst.Get(k); err != nil || string(back) != string(rec) {
			return nil, fmt.Errorf("walk: record %s did not read back intact (%v)", k, err)
		}
	}
	b.put("store.get_ms", "ms", median(gets))
	b.put("store.put_ms", "ms", median(puts))
	b.put("store.record_kb", "KiB", float64(bytes)/1024/float64(len(names)))
	return func() error {
		d, err := b.repeat("store", "store.OpenDisk", open)
		b.put("store.open_ms", "ms", ms(d))
		return err
	}, nil
}
