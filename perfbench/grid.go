package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/explore"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// gridSpec is the grid-small sweep: 2jpeg+canny at small scale over
// L2 size × migration × seed, 16 points. It has no exec_engine or solver
// axis, so collapsing those axes elsewhere cannot change its work.
const gridSpec = `{"name": "grid-small",
 "base": {"workload": "2jpeg+canny", "scale": "small"},
 "axes": [
  {"name": "l2_kb", "field": "platform.l2.kb", "values": [128, 256, 512, 1024]},
  {"name": "migration", "field": "migration", "values": [false, true]},
  {"name": "seed", "field": "seed", "values": [%d, %d]}
 ]}`

// gridSweep builds the sweep for a benchmark seed S: its seed axis is
// {S, S+1}.
func gridSweep(seed uint64) (sweep.Sweep, error) {
	return sweep.Parse(fmt.Appendf(nil, gridSpec, seed, seed+1), nil)
}

// gridInputs is what one grid-small set-up produces.
type gridInputs struct {
	sw     sweep.Sweep
	ex     explore.Explore
	points []sweep.Point
}

// gridSetup parses and expands the sweep, normalizes every point, and
// builds each distinct workload input once.
func gridSetup(seed uint64) (gridInputs, error) {
	sw, err := gridSweep(seed)
	if err != nil {
		return gridInputs{}, err
	}
	points, _, err := sw.Expand()
	if err != nil {
		return gridInputs{}, err
	}
	built := map[string]bool{}
	for _, p := range points {
		n, err := p.Scenario.Normalize()
		if err != nil {
			return gridInputs{}, err
		}
		id := fmt.Sprint(n.Workload, n.Scale, n.Seed)
		if built[id] {
			continue
		}
		built[id] = true
		scale, _ := workloads.ParseScale(n.Scale) // normalized above
		w, err := workloads.Build(n.Workload, workloads.BuildConfig{Scale: scale, Seed: n.Seed})
		if err != nil {
			return gridInputs{}, err
		}
		if _, err := w.Factory(); err != nil {
			return gridInputs{}, err
		}
	}
	return gridInputs{sw: sw, ex: explore.Explore{Name: sw.Name, Sweep: sw}, points: points}, nil
}

// gridOp is the outcome of one grid-small operation.
type gridOp struct {
	sweepDur, exploreDur time.Duration
	allocBytes           uint64 // allocated during the sweep
	gcs                  uint32 // GC cycles during the sweep and the exploration
	allocOp              uint64 // allocated during the sweep and the exploration
	stats                scenario.Stats
	sweepDigest          string
	exploreDigest        string
	points, visits       int
	failed               int
	sweepRes             *sweep.Result
}

// gridRun runs one operation: a cold sweep on a fresh runner, then an
// exploration to convergence over the same space on another fresh
// runner. It checks both and cross-checks every fully simulated
// exploration point against the sweep's point of the same index.
func (b *bench) gridRun(in gridInputs) (gridOp, error) {
	ctx := context.Background()
	op, root := b.rec.op(layerOp, "grid-small")
	defer b.rec.finish(root)
	freshHeap()
	var m0, m1, m2, m3 runtime.MemStats
	runtime.ReadMemStats(&m0)

	var o gridOp
	rn := scenario.NewRunner(runtime.GOMAXPROCS(0))
	var res *sweep.Result
	d, err := b.rec.call(op, root, "sweep", "sweep.Execute", func() (err error) {
		res, err = sweep.Execute(ctx, rn, in.sw, nil)
		return err
	})
	if err != nil {
		return o, err
	}
	runtime.ReadMemStats(&m1)
	o.sweepDur, o.allocBytes, o.sweepRes = d, m1.TotalAlloc-m0.TotalAlloc, res

	freshHeap()
	runtime.ReadMemStats(&m2)
	rn2 := scenario.NewRunner(runtime.GOMAXPROCS(0))
	var er *explore.Result
	d, err = b.rec.call(op, root, "explore", "explore.Run", func() (err error) {
		er, err = explore.Run(ctx, rn2, in.ex, explore.Options{}, nil)
		return err
	})
	if err != nil {
		return o, err
	}
	runtime.ReadMemStats(&m3)
	o.exploreDur = d
	o.allocOp = o.allocBytes + m3.TotalAlloc - m2.TotalAlloc
	o.gcs = m1.NumGC - m0.NumGC + m3.NumGC - m2.NumGC
	o.stats = sumStats(rn.Stats(), rn2.Stats())

	o.points, o.visits = len(res.Points), len(er.Points)
	o.failed = res.Failed + res.Canceled + er.Failed
	for _, p := range res.Points {
		if p.Metrics == nil && p.Error == "" {
			b.problem("grid point %d has no metrics", p.Index)
			o.failed++
		}
	}
	for _, v := range er.Points {
		if v.Rung != 0 || v.Metrics == nil {
			continue
		}
		if got, want := digestJSON(v.Metrics), digestJSON(res.Points[v.Index].Metrics); got != want {
			b.problem("explore point %d: metrics differ from the sweep's point", v.Index)
			o.failed++
		}
	}
	o.sweepDigest = digestJSON(res.Points)
	o.exploreDigest = digestJSON(struct {
		Points any
		Pareto any
	}{er.Points, er.Pareto})
	return o, nil
}

// check compares an operation's digests with the pinned ones at the
// default seed, else with the first operation's, and counts its results.
func (b *bench) gridCheck(o gridOp, first *gridOp) {
	b.attempted += o.points + o.visits
	failed := o.failed
	pin := b.seed == defaultSeed
	if !b.checkDigest("grid-small.sweep", o.sweepDigest, first.sweepDigest, pin) {
		failed += o.points
	}
	if !b.checkDigest("grid-small.explore", o.exploreDigest, first.exploreDigest, pin) {
		failed += o.visits
	}
	b.failed += min(failed, o.points+o.visits)
}

func runGrid(b *bench) error {
	var in gridInputs
	if _, err := b.setup(func() (func(), error) {
		var err error
		in, err = gridSetup(b.seed)
		return func() {}, err
	}); err != nil {
		return err
	}
	if b.rec != nil {
		delete(b.metrics, "setup_s")
		return b.gridTraced(in)
	}

	// An operation is the cold sweep and the exploration. The sweep's
	// throughput (points over sweep time summed across operations) and the
	// exploration's median time are reported on the meta line.
	var points int
	var sweepTime time.Duration
	var opMs, explores, allocs, allocsPoint []float64
	var first *gridOp
	for start := time.Now(); time.Since(start) < b.seconds; {
		o, err := b.gridRun(in)
		if err != nil {
			return err
		}
		if first == nil {
			first = &o
		}
		b.gridCheck(o, first)
		points += o.points
		sweepTime += o.sweepDur
		opMs = append(opMs, ms(o.sweepDur+o.exploreDur))
		explores = append(explores, o.exploreDur.Seconds())
		allocs = append(allocs, float64(o.allocOp)/1e6)
		allocsPoint = append(allocsPoint, float64(o.allocBytes)/1e6/float64(o.points))
	}
	b.put("op_p50_ms", "ms", median(opMs))
	b.put("alloc_mb_per_op", "MB", median(allocs))
	b.detail("grid_points_per_s", "points/s", float64(points)/sweepTime.Seconds())
	b.detail("explore_front_s", "s", median(explores))
	b.detail("alloc_mb_per_point", "MB", median(allocsPoint))
	b.samples["grid-small.ops"] = [2]int{len(opMs), 0}
	return nil
}

// gridOpsTraced is the fixed number of traced operations, so that two
// traced runs make identical counts.
const gridOpsTraced = 2

func (b *bench) gridTraced(in gridInputs) error {
	rec := b.rec
	// Untraced reference for the tracing overhead.
	b.rec = nil
	var plain []float64
	var first *gridOp
	for start := time.Now(); time.Since(start) < b.seconds/2; {
		o, err := b.gridRun(in)
		if err != nil {
			return err
		}
		if first == nil {
			first = &o
		}
		b.gridCheck(o, first)
		plain = append(plain, (o.sweepDur + o.exploreDur).Seconds())
	}
	b.rec = rec

	var traced []float64
	var total scenario.Stats
	var alloc, gcs, stageRunsSweep float64
	var visits int
	for i := 0; i < gridOpsTraced; i++ {
		o, err := b.gridRun(in)
		if err != nil {
			return err
		}
		b.gridCheck(o, first)
		traced = append(traced, (o.sweepDur + o.exploreDur).Seconds())
		total = sumStats(total, o.stats)
		alloc += float64(o.allocOp) / 1e6
		gcs += float64(o.gcs)
		stageRunsSweep += float64(o.sweepRes.Stats.StageRuns) / float64(o.points)
		visits = o.visits
	}
	b.putStats(total, gridOpsTraced)
	b.detail("sweep.points", "count", float64(len(in.points)))
	b.detail("sweep.stage_runs_per_point", "count", stageRunsSweep/gridOpsTraced)
	b.detail("explore.visits", "count", float64(visits))
	b.put("runtime.alloc_mb", "MB", alloc/gridOpsTraced)
	b.put("runtime.gc_cycles", "count", gcs/gridOpsTraced)
	b.put("trace.overhead_ms", "ms", (median(traced)-median(plain))*1e3)

	// A runner warm with every point: the exploration's own search cost,
	// and a memo-resident scenario.
	ctx := context.Background()
	warm := scenario.NewRunner(runtime.GOMAXPROCS(0))
	res, err := sweep.Execute(ctx, warm, in.sw, nil)
	if err != nil {
		return err
	}
	d, err := b.repeat("explore", "explore.Run on a warm runner", func() error {
		_, err := explore.Run(ctx, warm, in.ex, explore.Options{}, nil)
		return err
	})
	if err != nil {
		return err
	}
	b.detail("explore.search_ms", "ms", ms(d))

	spec := in.points[0].Scenario
	want, err := warm.Run(spec)
	if err != nil {
		return err
	}
	if got := digestJSON(res.Points[0].Metrics); got != digestJSON(sweep.MetricsOf(want)) {
		return fmt.Errorf("grid point 0: warm result differs from the sweep's")
	}
	n, err := spec.Normalize()
	if err != nil {
		return err
	}
	if err := b.walk(walkInput{spec: n, want: want, workers: runtime.GOMAXPROCS(0)}); err != nil {
		return err
	}
	b.putSpans()
	return nil
}
