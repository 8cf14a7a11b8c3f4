package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct{ p, ok int }{{99, 1000}, {90, 100}, {50, 20}} {
		if got := samplesFor(tc.p); got != tc.ok {
			t.Errorf("samplesFor(%d) = %d, want %d", tc.p, got, tc.ok)
		}
		xs := make([]float64, tc.ok)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		if _, err := percentile(xs[:tc.ok-1], tc.p); err == nil {
			t.Errorf("p%d of %d samples accepted with fewer than %d beyond it", tc.p, tc.ok-1, minBeyond)
		}
		v, err := percentile(xs, tc.p)
		if err != nil {
			t.Fatalf("p%d of %d samples: %v", tc.p, tc.ok, err)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != minBeyond {
			t.Errorf("p%d of %d samples = %g with %d beyond, want %d", tc.p, tc.ok, v, beyond, minBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

func draw(seed uint64, client, n int) []request {
	pool := servePool(seed)
	seq := newSequence(seed, client)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = seq.next(pool)
	}
	return reqs
}

func coldSeeds(reqs []request) map[uint64]bool {
	seeds := map[uint64]bool{}
	for _, r := range reqs {
		if r.pool < 0 {
			seeds[r.spec.Seed] = true
		}
	}
	return seeds
}

func TestSequenceDeterministicPerSeed(t *testing.T) {
	a, b := draw(7, 0, 2000), draw(7, 0, 2000)
	for i := range a {
		if a[i].pool != b[i].pool || a[i].spec.Seed != b[i].spec.Seed || a[i].spec.Workload != b[i].spec.Workload {
			t.Fatalf("request %d differs between two sequences of one seed: %+v vs %+v", i, a[i], b[i])
		}
	}
	cold := coldSeeds(a)
	if n := len(cold); n < 2000/coldOneIn/2 || n > 2000/coldOneIn*2 {
		t.Errorf("%d cold requests in 2000, want about %d", n, 2000/coldOneIn)
	}
	pool := servePool(7)
	for s := range cold {
		for _, p := range pool {
			if s == p.Seed {
				t.Errorf("cold seed %d collides with a pool seed", s)
			}
		}
	}
	for s := range coldSeeds(draw(8, 0, 2000)) {
		if cold[s] {
			t.Errorf("seed 8 reuses cold seed %d of seed 7", s)
		}
	}
	for s := range coldSeeds(draw(7, 1, 2000)) {
		if cold[s] {
			t.Errorf("client 1 reuses cold seed %d of client 0", s)
		}
	}
}

// smallResult is a hand-built optimized-policy result.
func smallResult() *scenario.Result {
	run := func(strategy string, a, b uint64) *scenario.RunSummary {
		return &scenario.RunSummary{Strategy: strategy, TotalMisses: a + b,
			Entities: []scenario.EntitySummary{{Name: "t.data", Misses: a}, {Name: "fifo", Misses: b}}}
	}
	return &scenario.Result{
		Key:         "k",
		Shared:      run("shared", 900, 100),
		Partitioned: run("partitioned", 150, 50),
		Optimize:    &scenario.OptimizeSummary{Allocation: map[string]int{"t.data": 8, "fifo": 2}},
		Compose:     &scenario.ComposeSummary{TotalSimulated: 200},
	}
}

func TestPerturbedResultFailsDigest(t *testing.T) {
	r := smallResult()
	want := digestJSON(r)
	if err := checkStudy(r); err != nil {
		t.Fatalf("consistent result rejected: %v", err)
	}
	r.Partitioned.Entities[0].Misses++
	got := digestJSON(r)
	b := &bench{digests: map[string]string{}}
	if b.checkDigest("x", got, want, false) {
		t.Errorf("perturbed result passed the digest check (%s)", got)
	}
	if len(b.problems) != 1 {
		t.Errorf("mismatch recorded %d problems, want 1", len(b.problems))
	}
	if err := checkStudy(r); err == nil {
		t.Error("entity misses no longer summing to the total went unnoticed")
	}
	r.Partitioned.TotalMisses++
	if err := checkHeadline(headline{"x", 1000, 200, 5}, r); err == nil {
		t.Error("perturbed headline misses passed")
	}
}

func TestPinnedSeedUsesPinnedDigest(t *testing.T) {
	b := &bench{digests: map[string]string{}}
	p := pinned["headline-paper.mpeg2"]
	if !b.checkDigest("headline-paper.mpeg2", p, "", true) {
		t.Error("pinned digest rejected")
	}
	if b.checkDigest("headline-paper.mpeg2", "0000000000000000", p, true) {
		t.Error("a digest other than the pinned one passed")
	}
}

func TestParseBatchNeedsStreamEnd(t *testing.T) {
	res := `{"schema_version":1,"kind":"scenario.result","payload":{"key":"k"}}`
	end := `{"schema_version":1,"kind":"stream.end","payload":{"delivered":1,"expected":1,"reason":"complete"}}`
	if p, err := parseBatch([]byte(res + "\n" + end + "\n")); err != nil || string(p) != `{"key":"k"}` {
		t.Fatalf("complete stream: payload %s, err %v", p, err)
	}
	for name, body := range map[string]string{
		"missing end": res + "\n",
		"canceled":    res + "\n" + strings.Replace(end, "complete", "canceled", 1),
		"wrong kind":  strings.Replace(res, "scenario.result", "error", 1) + "\n" + end,
	} {
		if _, err := parseBatch([]byte(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Op: 1, Layer: layerOp, Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Op: 1, Layer: "sweep", Start: ms(10), End: ms(50)},
		{ID: 3, Parent: 2, Op: 1, Layer: "core", Start: ms(20), End: ms(30)},
		{ID: 4, Parent: 1, Op: 1, Layer: "core", Start: ms(40), End: ms(80)}, // overlaps span 2
		{ID: 5, Op: 2, Layer: layerRepeat, Start: ms(100), End: ms(200)},
		{ID: 6, Parent: 5, Op: 2, Layer: "core", Start: ms(100), End: ms(200)},
	}
	self := selfTimes(spans, layerOp)
	want := map[string]time.Duration{"sweep": 30 * time.Millisecond, "core": 50 * time.Millisecond}
	if len(self) != len(want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	for l, w := range want {
		if self[l] != w {
			t.Errorf("%s self time %v, want %v", l, self[l], w)
		}
	}
	if got := unattributed(spans, layerOp); got != 0.3 {
		t.Errorf("unattributed share %g, want 0.3 (root 100 ms, children cover [10,80])", got)
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *recorder
	op, root := r.op(layerOp, "x")
	d, err := r.call(op, root, "core", "f", func() error { time.Sleep(time.Millisecond); return nil })
	r.finish(root)
	if err != nil || d < time.Millisecond {
		t.Errorf("nil recorder call: %v, %v", d, err)
	}
}

func TestMatchManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	manifest := `{"end_to_end": [{"name": "setup_s", "unit": "s"}, {"name": "op_p50_ms", "unit": "ms"}],
	 "per_layer": [{"name": "core.self_ms", "unit": "ms"}]}`
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	newBench := func() *bench {
		b := &bench{metrics: map[string]metric{}, details: map[string]metric{}}
		b.put("setup_s", "s", 0.5)
		b.put("op_p50_ms", "ms", 2)
		b.put("explore_front_s", "s", 1)
		return b
	}

	b := newBench()
	if err := b.matchManifest(path, false); err != nil {
		t.Fatal(err)
	}
	if len(b.metrics) != 2 || b.details["explore_front_s"].Value != 1 {
		t.Errorf("metrics %v, details %v: want the unlisted figure moved to the details", b.metrics, b.details)
	}
	if err := newBench().matchManifest(path, true); err == nil || !strings.Contains(err.Error(), "core.self_ms") {
		t.Errorf("a traced run without core.self_ms: error %v, want it named", err)
	}
	b = newBench()
	b.put("op_p50_ms", "s", 0.002)
	if err := b.matchManifest(path, false); err == nil {
		t.Error("a metric in the wrong unit was accepted")
	}
	b = newBench()
	if err := b.matchManifest(filepath.Join(t.TempDir(), "none.json"), false); err != nil || len(b.metrics) != 3 {
		t.Errorf("without a manifest: error %v, %d metrics; want the metrics left as they are", err, len(b.metrics))
	}
}
