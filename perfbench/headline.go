package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/scenario"
	"repro/internal/workloads"
)

// headlineSpec is a headline scenario: the canonical paper-scale inputs
// (seed 0) under the default optimized policy. The benchmark seed does
// not change it, so its results are pinned at every seed.
func headlineSpec(h headline) scenario.Scenario {
	return scenario.Scenario{Workload: h.workload}
}

// headlineOp is one headline-paper operation: both scenarios, each on a
// fresh runner.
type headlineOp struct {
	durs   []time.Duration // per headline
	alloc  uint64          // bytes allocated over both scenarios
	gcs    uint32
	stats  scenario.Stats
	result []*scenario.Result
}

func (b *bench) headlineRun() (headlineOp, error) {
	op, root := b.rec.op(layerOp, "headline-paper")
	defer b.rec.finish(root)
	var o headlineOp
	var alloc uint64
	var gcs uint32
	for _, h := range headlines {
		freshHeap()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rn := scenario.NewRunner(0)
		var res *scenario.Result
		d, err := b.rec.call(op, root, "scenario", "Runner.RunContext("+h.workload+")", func() (err error) {
			res, err = rn.RunContext(context.Background(), headlineSpec(h))
			return err
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			return o, err
		}
		alloc += m1.TotalAlloc - m0.TotalAlloc
		gcs += m1.NumGC - m0.NumGC
		o.durs = append(o.durs, d)
		o.stats = sumStats(o.stats, rn.Stats())
		o.result = append(o.result, res)
	}
	o.alloc, o.gcs = alloc, gcs
	return o, nil
}

// headlineCheck verifies both results' miss counts and digests.
func (b *bench) headlineCheck(o headlineOp) {
	for i, h := range headlines {
		b.attempted++
		r := o.result[i]
		ok := true
		if err := checkHeadline(h, r); err != nil {
			b.problem("%v", err)
			ok = false
		}
		if !b.checkDigest("headline-paper."+h.workload, digestJSON(r), "", true) {
			ok = false
		}
		if !ok {
			b.failed++
		}
	}
}

// headlineReport prints the reproduced ratios beside the paper's.
func (b *bench) headlineReport(o headlineOp) {
	for i, h := range headlines {
		r := o.result[i]
		fmt.Fprintf(b.log, "perfbench: %s: %d/%d misses, %.3f× fewer with partitioning (paper: %.1f×)\n",
			h.workload, r.Shared.TotalMisses, r.Partitioned.TotalMisses, r.MissRatio(), h.paperRatio)
	}
	fmt.Fprintln(b.log, "perfbench: the model is otherwise unvalidated against hardware; these are simulated counts")
}

func runHeadline(b *bench) error {
	if _, err := b.setup(func() (func(), error) {
		for _, h := range headlines {
			if _, err := headlineSpec(h).Normalize(); err != nil {
				return nil, err
			}
			w, err := workloads.Build(h.workload, workloads.BuildConfig{Scale: workloads.Paper})
			if err != nil {
				return nil, err
			}
			if _, err := w.Factory(); err != nil {
				return nil, err
			}
		}
		return func() {}, nil
	}); err != nil {
		return err
	}
	if b.rec != nil {
		delete(b.metrics, "setup_s")
		return b.headlineTraced()
	}

	var opMs, jc, mp, allocs []float64
	for start := time.Now(); time.Since(start) < b.seconds; {
		o, err := b.headlineRun()
		if err != nil {
			return err
		}
		b.headlineCheck(o)
		if len(jc) == 0 {
			b.headlineReport(o)
		}
		opMs = append(opMs, ms(o.durs[0]+o.durs[1]))
		jc = append(jc, o.durs[0].Seconds())
		mp = append(mp, o.durs[1].Seconds())
		allocs = append(allocs, float64(o.alloc)/1e6)
	}
	b.put("op_p50_ms", "ms", median(opMs))
	b.put("alloc_mb_per_op", "MB", median(allocs))
	b.detail("paper_2jpeg_canny_s", "s", median(jc))
	b.detail("paper_mpeg2_s", "s", median(mp))
	b.samples["headline-paper.ops"] = [2]int{len(opMs), 0}
	return nil
}

func (b *bench) headlineTraced() error {
	rec := b.rec
	b.rec = nil
	var plain []float64
	for start := time.Now(); time.Since(start) < b.seconds/2; {
		o, err := b.headlineRun()
		if err != nil {
			return err
		}
		b.headlineCheck(o)
		plain = append(plain, (o.durs[0] + o.durs[1]).Seconds())
	}
	b.rec = rec

	o, err := b.headlineRun()
	if err != nil {
		return err
	}
	b.headlineCheck(o)
	b.headlineReport(o)
	b.putStats(o.stats, 1)
	b.put("runtime.alloc_mb", "MB", float64(o.alloc)/1e6)
	b.put("runtime.gc_cycles", "count", float64(o.gcs))
	b.put("trace.overhead_ms", "ms", ((o.durs[0]+o.durs[1]).Seconds()-median(plain))*1e3)

	spec, want := headlineSpec(headlines[0]), o.result[0]
	n, err := spec.Normalize()
	if err != nil {
		return err
	}
	if err := b.walk(walkInput{spec: n, want: want, workers: 0}); err != nil {
		return err
	}
	b.putSpans()
	return nil
}
