package stackdist

import (
	"testing"

	"repro/internal/cache"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Sizes: []int{1, 2, 4}, UnitSets: 8, Ways: 4}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{Sizes: nil, UnitSets: 8, Ways: 4},
		{Sizes: []int{3}, UnitSets: 8, Ways: 4},
		{Sizes: []int{0}, UnitSets: 8, Ways: 4},
		{Sizes: []int{1}, UnitSets: 0, Ways: 4},
		{Sizes: []int{1}, UnitSets: 3, Ways: 4},
		{Sizes: []int{1}, UnitSets: 8, Ways: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

func TestNewSortsAndDeduplicates(t *testing.T) {
	s, err := New(Config{Sizes: []int{4, 1, 2, 4, 1}, UnitSets: 8, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4}
	got := s.Sizes()
	if len(got) != len(want) {
		t.Fatalf("sizes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", got, want)
		}
	}
}

func TestColdMissesOnly(t *testing.T) {
	// A working set that fits the smallest candidate leaves only cold
	// misses everywhere.
	s, _ := New(Config{Sizes: []int{1, 2, 4}, UnitSets: 8, Ways: 4})
	for iter := 0; iter < 20; iter++ {
		for i := uint64(0); i < 8; i++ {
			s.Access(i)
		}
	}
	if s.Accesses() != 160 {
		t.Fatalf("accesses = %d", s.Accesses())
	}
	for k, m := range s.Misses() {
		if m != 8 {
			t.Errorf("misses at size %d = %d, want 8 cold", s.Sizes()[k], m)
		}
	}
}

func TestStreamMissesEverywhere(t *testing.T) {
	s, _ := New(Config{Sizes: []int{1, 2, 4}, UnitSets: 8, Ways: 4})
	for i := uint64(0); i < 2000; i++ {
		s.Access(1000 + i)
	}
	for k, m := range s.Misses() {
		if m != 2000 {
			t.Errorf("misses at size %d = %d, want 2000", s.Sizes()[k], m)
		}
	}
}

func TestCurveMonotoneForLoops(t *testing.T) {
	s, _ := New(Config{Sizes: []int{1, 2, 4, 8}, UnitSets: 8, Ways: 4})
	// Loop over 100 lines: fits 4 units (128 lines) but not 1 unit (32).
	for iter := 0; iter < 30; iter++ {
		for i := uint64(0); i < 100; i++ {
			s.Access(i)
		}
	}
	m := s.Misses()
	for k := 1; k < len(m); k++ {
		if m[k] > m[k-1] {
			t.Errorf("curve not non-increasing at %d: %v", k, m)
		}
	}
	if m[len(m)-1] != 100 {
		t.Errorf("largest size should leave only cold misses, got %v", m)
	}
	if m[0] <= 100 {
		t.Errorf("smallest size should thrash, got %v", m[0])
	}
}

// xorshift64* — deterministic PRNG so the differential test is stable.
type rng uint64

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545F4914F6CDD1D
}

// oracle is the bank-of-caches reference: one real cache.Cache per
// candidate size, fed the same line stream.
type oracle struct {
	sizes []int
	banks []*cache.Cache
}

func newOracle(cfg Config) *oracle {
	o := &oracle{sizes: append([]int(nil), cfg.Sizes...)}
	for _, s := range cfg.Sizes {
		o.banks = append(o.banks, cache.New(cache.Config{
			Name:     "oracle",
			Sets:     s * cfg.UnitSets,
			Ways:     cfg.Ways,
			LineSize: 64,
		}))
	}
	return o
}

func (o *oracle) access(line uint64) {
	for _, c := range o.banks {
		c.AccessLine(line, false, 0)
	}
}

func (o *oracle) misses() []uint64 {
	out := make([]uint64, len(o.banks))
	for k, c := range o.banks {
		out[k] = c.Stats().Misses
	}
	return out
}

func diffTest(t *testing.T, cfg Config, stream []uint64) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(cfg)
	for _, line := range stream {
		s.Access(line)
		o.access(line)
	}
	want := o.misses()
	got := s.Misses()
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("size %d: stackdist %d misses, bank-of-caches %d",
				s.Sizes()[k], got[k], want[k])
		}
	}
}

// TestMatchesBankOfCachesRandom is the core exactness claim: on random
// streams with assorted locality profiles, the single-pass simulator
// returns bit-identical miss counts to real LRU caches of every
// candidate geometry.
func TestMatchesBankOfCachesRandom(t *testing.T) {
	cfgs := []Config{
		{Sizes: []int{1, 2, 4, 8, 16, 32, 64, 128}, UnitSets: 8, Ways: 4},
		{Sizes: []int{1, 2, 4}, UnitSets: 8, Ways: 1},
		{Sizes: []int{1, 4, 16}, UnitSets: 16, Ways: 8},
		{Sizes: []int{2}, UnitSets: 4, Ways: 2},
	}
	for ci, cfg := range cfgs {
		r := rng(0x9E3779B97F4A7C15 + uint64(ci))
		var stream []uint64
		for i := 0; i < 50000; i++ {
			x := r.next()
			var line uint64
			switch x % 4 {
			case 0: // tight working set: mostly hits
				line = x % 64
			case 1: // medium working set around the candidate capacities
				line = x % 4096
			case 2: // streaming, no reuse
				line = 1 << 20 << (x % 8) // spread across high tags
				line += x % (1 << 18)
			default: // sequential bursts
				line = uint64(i/7) % 8192
			}
			stream = append(stream, line)
		}
		diffTest(t, cfg, stream)
	}
}

// TestMatchesBankOfCachesTruncation stresses stack truncation: a
// footprint far beyond the largest candidate's capacity, with
// re-references after gaps of every length, so lines are constantly
// dropped from the stacks and later re-accessed.
func TestMatchesBankOfCachesTruncation(t *testing.T) {
	cfg := Config{Sizes: []int{1, 2, 4}, UnitSets: 4, Ways: 2}
	// Largest candidate: 16 sets x 2 ways = 32 lines. Touch thousands.
	r := rng(42)
	var stream []uint64
	for i := 0; i < 60000; i++ {
		x := r.next()
		switch x % 3 {
		case 0: // huge streaming footprint
			stream = append(stream, x%8192)
		case 1: // medium set, revisited across truncations
			stream = append(stream, x%128)
		default: // small hot set
			stream = append(stream, x%16)
		}
	}
	diffTest(t, cfg, stream)
}

// TestMatchesBankOfCachesAdversarial exercises the early-exit path: long
// reuse distances where the largest candidate accumulates a full set of
// conflicts before the walk finds the line.
func TestMatchesBankOfCachesAdversarial(t *testing.T) {
	cfg := Config{Sizes: []int{1, 2, 4, 8}, UnitSets: 8, Ways: 2}
	var stream []uint64
	// Repeatedly touch a victim line, then a sweep mapping to its set in
	// every candidate (same low bits), then the victim again.
	const victim = 0x40
	sets := uint64(8 * 8)
	for round := 0; round < 50; round++ {
		stream = append(stream, victim)
		for j := uint64(1); j <= uint64(round%7)+1; j++ {
			stream = append(stream, victim+j*sets)
		}
	}
	// And a pure conflict storm on one set.
	for i := uint64(0); i < 3000; i++ {
		stream = append(stream, (i%97)*sets)
	}
	diffTest(t, cfg, stream)
}

// TestWordsMatchesNew checks that Words, computed from the layout math
// alone, equals the slots New allocates — across candidate sets (with
// duplicates and out of order), unit sizes and associativities — and
// that NewIn carves exactly that many.
func TestWordsMatchesNew(t *testing.T) {
	sizeSets := [][]int{
		{1}, {4}, {1, 2}, {2, 1, 2}, {1, 2, 4}, {1, 2, 4, 8},
		{8, 1, 4, 2, 8}, {1, 2, 4, 8, 16, 32, 64, 128}, {16, 64, 1}, {32},
	}
	for _, sizes := range sizeSets {
		for _, unitSets := range []int{1, 8, 16} {
			for _, ways := range []int{1, 2, 4, 8, 16} {
				cfg := Config{Sizes: sizes, UnitSets: unitSets, Ways: ways}
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := 0
				for _, tr := range s.tiers {
					got += len(tr.slots)
				}
				if w := Words(cfg); w != got {
					t.Errorf("%+v: Words %d, New allocates %d", cfg, w, got)
				}
				in, err := NewIn(cfg, make([]uint64, got))
				if err != nil {
					t.Fatalf("%+v: NewIn on exactly Words slots: %v", cfg, err)
				}
				carved := 0
				for _, tr := range in.tiers {
					carved += len(tr.slots)
				}
				if carved != got {
					t.Errorf("%+v: NewIn carves %d slots, want %d", cfg, carved, got)
				}
				if got > 0 {
					if _, err := NewIn(cfg, make([]uint64, got-1)); err == nil {
						t.Errorf("%+v: NewIn accepted a buffer one slot short", cfg)
					}
				}
			}
		}
	}
	if w := Words(Config{Sizes: []int{3}, UnitSets: 8, Ways: 4}); w != 0 {
		t.Errorf("invalid config needs no slots, Words = %d", w)
	}
	cfg := Config{Sizes: []int{1, 2, 4, 8, 16, 32, 64, 128}, UnitSets: 16, Ways: 4}
	if n := testing.AllocsPerRun(10, func() { Words(cfg) }); n != 0 {
		t.Errorf("Words allocates %v times", n)
	}
}
