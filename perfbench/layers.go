package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/scenario"
)

// freshHeap collects garbage twice: the second collection also empties
// the sync.Pool victim caches, so an operation starts from the state of a
// fresh process (the platform's arena pool empty) and its allocation
// figure does not depend on when the previous operation's collections
// happened to run.
func freshHeap() {
	runtime.GC()
	runtime.GC()
}

// sumStats adds the runner counters the benchmark reports.
func sumStats(a, b scenario.Stats) scenario.Stats {
	a.StageRuns += b.StageRuns
	a.MemoHits += b.MemoHits
	a.TraceRuns += b.TraceRuns
	a.DiskHits += b.DiskHits
	a.DiskMisses += b.DiskMisses
	a.StoreErrors += b.StoreErrors
	return a
}

// putStats reports runner counters summed over ops operations as
// per-operation figures.
func (b *bench) putStats(s scenario.Stats, ops int) {
	per := func(v uint64) float64 { return float64(v) / float64(ops) }
	b.put("scenario.stage_runs", "count", per(s.StageRuns))
	b.put("scenario.memo_hits", "count", per(s.MemoHits))
	b.put("scenario.trace_runs", "count", per(s.TraceRuns))
	b.put("scenario.disk_hits", "count", per(s.DiskHits))
	b.put("scenario.disk_misses", "count", per(s.DiskMisses))
	b.put("scenario.store_errors", "count", per(s.StoreErrors))
	share := 0.0
	if lookups := s.StageRuns + s.MemoHits + s.DiskHits; lookups > 0 {
		share = float64(s.MemoHits) / float64(lookups)
	}
	b.put("scenario.memo_hit_share", "ratio", share)
}

// warmRun reports scenario.warm_run_us: Runner.RunContext on a spec
// whose every stage is already in rn's memo.
func (b *bench) warmRun(rn *scenario.Runner, spec scenario.Scenario) error {
	if _, err := rn.Run(spec); err != nil {
		return err
	}
	before := rn.Stats()
	d, err := b.repeat("scenario", "Runner.RunContext on a memo-resident spec", func() error {
		_, err := rn.RunContext(context.Background(), spec)
		return err
	})
	if err != nil {
		return err
	}
	if runs := rn.Stats().Delta(before).StageRuns; runs != 0 {
		return fmt.Errorf("memo-resident spec ran %d stages", runs)
	}
	b.put("scenario.warm_run_us", "us", us(d))
	return nil
}

// Repetition bounds for calls too short to time once.
const (
	minReps      = 5
	maxReps      = 200
	repeatBudget = 300 * time.Millisecond
)

// repeat times f on a span root of its own, at least minReps times and
// then until maxReps or repeatBudget, and returns the median.
func (b *bench) repeat(layer, name string, f func() error) (time.Duration, error) {
	op, root := b.rec.op(layerRepeat, name)
	defer b.rec.finish(root)
	var ds []float64
	for start := time.Now(); len(ds) < minReps || len(ds) < maxReps && time.Since(start) < repeatBudget; {
		d, err := b.rec.call(op, root, layer, name, f)
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// putSpans reports each layer's self time and the unattributed share
// over the traced operations and the layer walk. Repeated
// micro-measurements are kept out: their medians are reported on their
// own.
func (b *bench) putSpans() {
	spans := b.rec.snapshot()
	self := selfTimes(spans, layerOp, layerWalk)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		b.put(l+".self_ms", "ms", ms(self[l]))
	}
	b.put("trace.unattributed_share", "ratio", unattributed(spans, layerOp, layerWalk))
}
