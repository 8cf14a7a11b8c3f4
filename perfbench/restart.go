package main

import (
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/store"
)

// restartCycle is the outcome of one reopen-and-replay cycle.
type restartCycle struct {
	lat   []float64 // per request, ms; +Inf when the request failed
	stats scenario.Stats
}

// restartRun reopens the populated store, points the loopback listener
// at a new server over it, and replays the whole pool with the clients
// in a seeded order. Every request must be a disk hit: a cycle that runs
// any stage fails all its requests.
func (b *bench) restartRun(l *loopback, dir string, pool []scenario.Scenario, refs []string, cycle int) (restartCycle, error) {
	op, root := b.rec.op(layerOp, "restart cycle")
	defer b.rec.finish(root)
	var c restartCycle
	st, err := b.openStack(op, root, dir, 1)
	if err != nil {
		return c, err
	}
	defer st.rn.Close()
	l.h.cur.Store(st.srv)

	order := newSequence(b.seed, 1000+cycle)
	idx := make([]int, len(pool))
	for i := range idx {
		j := int(order.rand() % uint64(i+1))
		idx[i], idx[j] = idx[j], i
	}
	var next atomic.Int64
	var mu sync.Mutex
	c.lat = make([]float64, len(pool))
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(idx) {
					return
				}
				i := idx[n]
				var payload []byte
				d, err := b.rec.call(op, root, "serve", "POST /v1/batch", func() (err error) {
					payload, _, err = l.post(batchBody(pool[i]))
					return err
				})
				if err == nil && digestBytes(payload) != refs[i] {
					err = fmt.Errorf("pool spec %d: digest %s, want %s", i, digestBytes(payload), refs[i])
				}
				c.lat[n] = ms(d)
				if err != nil {
					c.lat[n] = math.Inf(1)
					mu.Lock()
					b.problem("restart: %v", err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	c.stats = st.rn.Stats()
	if c.stats.StageRuns != 0 {
		b.problem("restart cycle %d ran %d stages; every request must be served from disk", cycle, c.stats.StageRuns)
		for i := range c.lat {
			c.lat[i] = math.Inf(1)
		}
	}
	b.attempted += len(c.lat)
	for _, v := range c.lat {
		if math.IsInf(v, 1) {
			b.failed++
		}
	}
	return c, nil
}

// populate runs every pool spec on a runner over a fresh disk store at
// dir and checks each result against its reference digest.
func populate(dir string, pool []scenario.Scenario, refs []string) error {
	ds, err := store.OpenDisk(dir)
	if err != nil {
		return err
	}
	rn := scenario.NewRunnerWithStore(0, store.NewResilient(ds, store.ResilientOptions{}))
	defer rn.Close()
	for i, s := range pool {
		r, err := rn.Run(s)
		if err != nil {
			return err
		}
		if got := digestJSON(r); got != refs[i] {
			return fmt.Errorf("populating pool spec %d: digest %s, want %s", i, got, refs[i])
		}
	}
	return nil
}

func runRestart(b *bench) error {
	pool := restartPool(b.seed)
	refs, err := references(pool)
	if err != nil {
		return err
	}
	b.checkDigest("restart-warm.pool", digestJSON(refs), "", b.seed == defaultSeed)
	var dir string
	teardown, err := b.setup(func() (func(), error) {
		d, err := os.MkdirTemp(b.dir, "restart-")
		if err != nil {
			return nil, err
		}
		dir = d
		return func() { os.RemoveAll(d) }, populate(d, pool, refs)
	})
	if err != nil {
		return err
	}
	defer teardown()
	l := newLoopback()
	defer l.close()

	if b.rec != nil {
		delete(b.metrics, "setup_s")
		return b.restartTraced(l, dir, pool, refs)
	}
	// An operation is one request, served from disk by a server reopened
	// over the store; its allocation figure includes the reopen.
	var lat []float64
	need := samplesFor(99)
	mark := readMem()
	for start, cycle := time.Now(), 0; ; cycle++ {
		if el := time.Since(start); el >= 3*b.seconds || el >= b.seconds && len(lat) >= need {
			break
		}
		c, err := b.restartRun(l, dir, pool, refs, cycle)
		if err != nil {
			return err
		}
		lat = append(lat, c.lat...)
	}
	b.put("alloc_mb_per_op", "MB", float64(readMem().alloc-mark.alloc)/1e6/float64(len(lat)))
	if err := b.pct("op_p50_ms", lat, 50); err != nil {
		return err
	}
	// The tail sits on stalls of ~10 ms whose share of requests varies
	// from run to run with the host's load; it is recorded on the meta
	// line, ungated.
	if err := b.pctDetail("restart_p90_ms", lat, 90); err != nil {
		return err
	}
	return b.pctDetail("restart_p99_ms", lat, 99)
}

// restartCyclesTraced is the fixed number of traced cycles.
const restartCyclesTraced = 3

func (b *bench) restartTraced(l *loopback, dir string, pool []scenario.Scenario, refs []string) error {
	rec := b.rec
	b.rec = nil
	var plain []float64
	cycle := 0
	for start := time.Now(); time.Since(start) < b.seconds/2; cycle++ {
		c, err := b.restartRun(l, dir, pool, refs, cycle)
		if err != nil {
			return err
		}
		plain = append(plain, c.lat...)
	}
	b.rec = rec

	var traced []float64
	var total scenario.Stats
	mark := readMem()
	for i := 0; i < restartCyclesTraced; i++ {
		c, err := b.restartRun(l, dir, pool, refs, 1_000_000+i)
		if err != nil {
			return err
		}
		traced = append(traced, c.lat...)
		total = sumStats(total, c.stats)
	}
	b.putStats(total, restartCyclesTraced)
	b.putMem(mark, restartCyclesTraced)
	b.put("trace.overhead_ms", "ms", median(traced)-median(plain))

	// The walk repeats pool spec 0 over the populated store.
	want, err := scenario.NewRunner(1).Run(pool[0])
	if err != nil {
		return err
	}
	if digestJSON(want) != refs[0] {
		return fmt.Errorf("pool spec 0: a fresh run differs from the reference")
	}
	n, err := pool[0].Normalize()
	if err != nil {
		return err
	}
	if err := b.walk(walkInput{spec: n, want: want, workers: 1, store: dir}); err != nil {
		return err
	}
	b.putSpans()
	return nil
}
