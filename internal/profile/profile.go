// Package profile measures per-entity miss curves m_i(z_p): the number of
// L2 misses entity i would suffer with z_p allocation units of exclusive
// cache. The curves are the input of the paper's optimization method
// (section 3.2: "The number of misses of task i with z_p cache sets can
// be obtained by simulation ... we use an average over the m obtained out
// of different simulations").
//
// Instead of storing address traces, the profiler taps the L2-bound
// access stream (through cache.Cache.Observer) during one functional run
// and measures every candidate size online. Because partitioning isolates
// entities completely, an entity's miss count inside a partition of z
// sets equals its miss count in a standalone cache of z sets fed the same
// stream — the property verified by TestPartitionEqualsIsolatedCacheProperty
// in internal/cache and exploited here.
//
// Two engines implement the measurement:
//
//   - EngineStackDist (default) runs internal/stackdist's single-pass
//     Mattson simulator: one recency-stack walk per access yields the
//     exact hit/miss verdict at every candidate size at once. This is
//     not an approximation — LRU with bit-selection indexing satisfies
//     the inclusion property across the power-of-two candidate sizes,
//     so the walk reproduces every candidate cache's state exactly.
//   - EngineBank replays the stream into a bank of real cache.Cache
//     instances, one per candidate size. It is kept as the reference
//     oracle: TestEnginesEquivalent* assert bit-identical curves.
package profile

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/stackdist"
)

// Engine selects the miss-curve measurement implementation.
type Engine uint8

// Available engines: the single-pass stack-distance simulator (default)
// and the bank-of-caches reference oracle.
const (
	EngineStackDist Engine = iota
	EngineBank
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	if e == EngineBank {
		return "bank"
	}
	return "stackdist"
}

// ParseEngine resolves the CLI/spec spelling of a profiling engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "stackdist", "":
		return EngineStackDist, nil
	case "bank":
		return EngineBank, nil
	}
	return 0, fmt.Errorf("profile: unknown profiling engine %q (want stackdist or bank)", s)
}

// Config describes the candidate sizes and geometry.
type Config struct {
	Sizes    []int // candidate sizes in allocation units, ascending
	UnitSets int   // sets per unit (rtos.AllocUnit)
	Ways     int   // L2 associativity
	LineSize int
	Engine   Engine // measurement engine; zero value = EngineStackDist
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Sizes) == 0 {
		return fmt.Errorf("profile: no candidate sizes")
	}
	for _, s := range c.Sizes {
		if s <= 0 || s&(s-1) != 0 {
			return fmt.Errorf("profile: candidate size %d not a positive power of two", s)
		}
	}
	if c.UnitSets <= 0 || c.Ways <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("profile: bad geometry %d/%d/%d", c.UnitSets, c.Ways, c.LineSize)
	}
	return nil
}

// Curve is the measured miss curve of one entity.
type Curve struct {
	Entity   string
	Sizes    []int     // units
	Misses   []float64 // misses at Sizes[k], averaged over runs
	Accesses float64   // L2-bound accesses, averaged over runs
}

// At returns the miss count at the given size. The size must be one of
// the candidate sizes; otherwise the nearest not-larger candidate is used
// (curves are step functions of the admissible sizes). Sizes is sorted
// ascending, so a binary search suffices; At sits inside the MCKP
// item-building loop and is called for every entity × candidate size.
func (c *Curve) At(units int) float64 {
	// First index with Sizes[i] > units; the candidate before it is the
	// largest not-larger one.
	i := sort.SearchInts(c.Sizes, units+1)
	if i == 0 {
		return c.Misses[0]
	}
	return c.Misses[i-1]
}

// Profiler feeds one run's L2-bound stream into the selected engine.
// Attach Observe to the L2 via cache.Cache.Observer.
type Profiler struct {
	cfg   Config
	names []string
	// entityOf maps region id -> entity index, -1 for untracked regions.
	// Region ids are dense and small (mem.AddressSpace allocates them
	// sequentially), so a slice beats a map lookup on the hot path.
	entityOf []int32
	banks    [][]*cache.Cache // [entity][size], EngineBank only
	sims     []*stackdist.Sim // [entity], EngineStackDist only
	accesses []uint64
	// buf backs every sim's recency stacks, taken from slotPool; nil
	// once Released.
	buf *[]uint64
}

// slotPool recycles the stack-distance engine's slot buffers. A profiler
// lives for one simulation and its stacks are a fixed, exactly sized
// block, so reusing the block saves a large zeroed allocation per
// repetition.
var slotPool sync.Pool // of *[]uint64

// slots returns a zeroed buffer of n slots: a pooled one when large
// enough (cleared here), else a fresh one.
func slots(n int) *[]uint64 {
	if b, ok := slotPool.Get().(*[]uint64); ok && cap(*b) >= n {
		*b = (*b)[:n]
		clear(*b)
		return b
	}
	b := make([]uint64, n)
	return &b
}

// New creates a profiler for the given entities. regionOf maps every
// region id to the index of its owning entity in names.
func New(cfg Config, names []string, regionOf map[mem.RegionID]int) (*Profiler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sizes := append([]int(nil), cfg.Sizes...)
	sort.Ints(sizes)
	cfg.Sizes = sizes
	maxID := mem.RegionID(-1)
	for r := range regionOf {
		if r > maxID {
			maxID = r
		}
	}
	entityOf := make([]int32, maxID+1)
	for i := range entityOf {
		entityOf[i] = -1
	}
	for r, e := range regionOf {
		if r >= 0 {
			entityOf[r] = int32(e)
		}
	}
	p := &Profiler{
		cfg:      cfg,
		names:    names,
		entityOf: entityOf,
		accesses: make([]uint64, len(names)),
	}
	switch cfg.Engine {
	case EngineStackDist:
		sdCfg := stackdist.Config{Sizes: sizes, UnitSets: cfg.UnitSets, Ways: cfg.Ways}
		w := stackdist.Words(sdCfg)
		p.buf = slots(w * len(names))
		p.sims = make([]*stackdist.Sim, len(names))
		for e := range names {
			sim, err := stackdist.NewIn(sdCfg, (*p.buf)[e*w:(e+1)*w])
			if err != nil {
				return nil, fmt.Errorf("profile: %w", err)
			}
			p.sims[e] = sim
		}
	case EngineBank:
		p.banks = make([][]*cache.Cache, len(names))
		for e := range names {
			for _, s := range sizes {
				p.banks[e] = append(p.banks[e], cache.New(cache.Config{
					Name:     fmt.Sprintf("prof.%s.%d", names[e], s),
					Sets:     s * cfg.UnitSets,
					Ways:     cfg.Ways,
					LineSize: cfg.LineSize,
				}))
			}
		}
	default:
		return nil, fmt.Errorf("profile: unknown engine %d", cfg.Engine)
	}
	return p, nil
}

// Engine returns the measurement engine in use.
func (p *Profiler) Engine() Engine { return p.cfg.Engine }

// Observe implements the cache observer hook.
func (p *Profiler) Observe(lineAddr uint64, write bool, region mem.RegionID) {
	if region < 0 || int(region) >= len(p.entityOf) {
		return
	}
	e := p.entityOf[region]
	if e < 0 {
		return
	}
	if p.sims != nil {
		// The sim keeps its own access counter; skip the redundant one.
		p.sims[e].Access(lineAddr)
		return
	}
	p.accesses[e]++
	for _, c := range p.banks[e] {
		c.AccessLine(lineAddr, write, region)
	}
}

// Curves extracts the miss curves of this single run.
func (p *Profiler) Curves() []Curve {
	out := make([]Curve, len(p.names))
	for e, name := range p.names {
		c := Curve{Entity: name, Sizes: append([]int(nil), p.cfg.Sizes...), Accesses: float64(p.accesses[e])}
		if p.sims != nil {
			c.Accesses = float64(p.sims[e].Accesses())
			for _, m := range p.sims[e].Misses() {
				c.Misses = append(c.Misses, float64(m))
			}
		} else {
			for _, bank := range p.banks[e] {
				c.Misses = append(c.Misses, float64(bank.Stats().Misses))
			}
		}
		out[e] = c
	}
	return out
}

// Release hands the profiler's stack-distance state back to a pool the
// next profiler draws from. Curves copies everything it returns, so
// Release may follow it directly; after Release the profiler must not
// be used. Releasing twice, or a bank-engine profiler, is a no-op.
func (p *Profiler) Release() {
	if p.buf == nil {
		return
	}
	slotPool.Put(p.buf)
	p.buf, p.sims = nil, nil
}

// Average combines curves from repeated runs into the paper's m̄ values.
// All runs must cover the same entities and sizes, in the same order.
func Average(runs [][]Curve) ([]Curve, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("profile: no runs to average")
	}
	base := runs[0]
	out := make([]Curve, len(base))
	for e := range base {
		out[e] = Curve{
			Entity: base[e].Entity,
			Sizes:  append([]int(nil), base[e].Sizes...),
			Misses: make([]float64, len(base[e].Misses)),
		}
	}
	for _, run := range runs {
		if len(run) != len(base) {
			return nil, fmt.Errorf("profile: run has %d entities, want %d", len(run), len(base))
		}
		for e := range run {
			if run[e].Entity != base[e].Entity || len(run[e].Misses) != len(base[e].Misses) {
				return nil, fmt.Errorf("profile: mismatched curve for %q", run[e].Entity)
			}
			out[e].Accesses += run[e].Accesses
			for k := range run[e].Misses {
				out[e].Misses[k] += run[e].Misses[k]
			}
		}
	}
	n := float64(len(runs))
	for e := range out {
		out[e].Accesses /= n
		for k := range out[e].Misses {
			out[e].Misses[k] /= n
		}
	}
	return out, nil
}

// CurveByEntity finds a curve by name, or nil.
func CurveByEntity(curves []Curve, name string) *Curve {
	for i := range curves {
		if curves[i].Entity == name {
			return &curves[i]
		}
	}
	return nil
}
