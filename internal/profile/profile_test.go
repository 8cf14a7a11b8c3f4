package profile

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
)

func cfg() Config {
	return Config{Sizes: []int{1, 2, 4}, UnitSets: 8, Ways: 4, LineSize: 64}
}

func TestConfigValidate(t *testing.T) {
	if err := cfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg()
	bad.Sizes = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty sizes accepted")
	}
	bad = cfg()
	bad.Sizes = []int{3}
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two size accepted")
	}
	bad = cfg()
	bad.Ways = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ways accepted")
	}
}

func TestCurveAt(t *testing.T) {
	c := Curve{Sizes: []int{1, 2, 4}, Misses: []float64{100, 50, 10}}
	cases := map[int]float64{1: 100, 2: 50, 3: 50, 4: 10, 8: 10, 0: 100}
	for units, want := range cases {
		if got := c.At(units); got != want {
			t.Errorf("At(%d) = %v, want %v", units, got, want)
		}
	}
	long := Curve{Sizes: []int{1, 2, 4, 8, 16, 32, 64, 128}}
	for k := range long.Sizes {
		long.Misses = append(long.Misses, float64(int(1000)>>k))
	}
	// The binary search must agree with a linear scan at every point.
	for units := 0; units <= 256; units++ {
		best := 0
		for k, s := range long.Sizes {
			if s <= units {
				best = k
			}
		}
		if got := long.At(units); got != long.Misses[best] {
			t.Errorf("At(%d) = %v, want %v", units, got, long.Misses[best])
		}
	}
}

func TestEngineString(t *testing.T) {
	if EngineStackDist.String() != "stackdist" || EngineBank.String() != "bank" {
		t.Error("engine names wrong")
	}
}

// TestEnginesEquivalent feeds identical streams with assorted locality
// profiles to both engines and requires bit-identical curves: the
// stack-distance walk is exact, not an approximation.
func TestEnginesEquivalent(t *testing.T) {
	pcfg := Config{Sizes: []int{1, 2, 4, 8}, UnitSets: 8, Ways: 4, LineSize: 64}
	regionOf := map[mem.RegionID]int{0: 0, 1: 0, 2: 1}
	names := []string{"taskA", "taskB"}

	sd, err := New(pcfg, names, regionOf)
	if err != nil {
		t.Fatal(err)
	}
	bankCfg := pcfg
	bankCfg.Engine = EngineBank
	bank, err := New(bankCfg, names, regionOf)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Engine() != EngineStackDist || bank.Engine() != EngineBank {
		t.Fatal("engine selection broken")
	}

	feed := func(line uint64, write bool, region mem.RegionID) {
		sd.Observe(line, write, region)
		bank.Observe(line, write, region)
	}
	// Deterministic xorshift64* stream mixing loops, streams and bursts
	// across both entities, including writes (which must not matter).
	x := uint64(0x1234_5678_9ABC_DEF1)
	for i := 0; i < 80000; i++ {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		v := x * 0x2545F4914F6CDD1D
		region := mem.RegionID(v % 3)
		write := v&8 == 0
		var line uint64
		switch v % 5 {
		case 0:
			line = v % 48 // tight loop
		case 1:
			line = v % 1024 // medium working set
		case 2:
			line = (1 << 22) + v%(1<<16) // far stream
		case 3:
			line = uint64(i/11) % 4096 // slow sequential sweep
		default:
			line = (v % 64) * 64 // set-conflict pattern
		}
		feed(line, write, region)
	}
	a, b := sd.Curves(), bank.Curves()
	if len(a) != len(b) {
		t.Fatalf("curve counts differ: %d vs %d", len(a), len(b))
	}
	for e := range a {
		if a[e].Accesses != b[e].Accesses {
			t.Errorf("%s: accesses %v vs %v", a[e].Entity, a[e].Accesses, b[e].Accesses)
		}
		for k := range a[e].Misses {
			if a[e].Misses[k] != b[e].Misses[k] {
				t.Errorf("%s at %d units: stackdist %v, bank %v",
					a[e].Entity, a[e].Sizes[k], a[e].Misses[k], b[e].Misses[k])
			}
		}
	}
}

func TestProfilerSeparatesEntities(t *testing.T) {
	regionOf := map[mem.RegionID]int{0: 0, 1: 0, 2: 1}
	p, err := New(cfg(), []string{"taskA", "taskB"}, regionOf)
	if err != nil {
		t.Fatal(err)
	}
	// Feed taskA a loop over a tiny working set; taskB a long stream.
	for iter := 0; iter < 20; iter++ {
		for i := uint64(0); i < 8; i++ {
			p.Observe(i, false, 0)
		}
	}
	for i := uint64(0); i < 2000; i++ {
		p.Observe(1000+i, false, 2)
	}
	p.Observe(0, false, 99) // unknown region: ignored

	curves := p.Curves()
	if len(curves) != 2 {
		t.Fatalf("curves = %d", len(curves))
	}
	a, b := curves[0], curves[1]
	if a.Accesses != 160 || b.Accesses != 2000 {
		t.Errorf("accesses = %v/%v", a.Accesses, b.Accesses)
	}
	// Task A's working set (8 lines) fits even the smallest candidate
	// (1 unit = 8 sets * 4 ways = 32 lines): only cold misses.
	for k := range a.Sizes {
		if a.Misses[k] != 8 {
			t.Errorf("taskA misses at %d units = %v, want 8 cold", a.Sizes[k], a.Misses[k])
		}
	}
	// Task B streams: every access misses at every size.
	for k := range b.Sizes {
		if b.Misses[k] != 2000 {
			t.Errorf("taskB misses at %d units = %v, want 2000", b.Sizes[k], b.Misses[k])
		}
	}
}

func TestProfilerCurveMonotoneForLoops(t *testing.T) {
	regionOf := map[mem.RegionID]int{0: 0}
	p, _ := New(Config{Sizes: []int{1, 2, 4, 8}, UnitSets: 8, Ways: 4, LineSize: 64},
		[]string{"loop"}, regionOf)
	// Loop over 100 lines: fits 4 units (128 lines) but not 1 unit (32).
	for iter := 0; iter < 30; iter++ {
		for i := uint64(0); i < 100; i++ {
			p.Observe(i, false, 0)
		}
	}
	c := p.Curves()[0]
	for k := 1; k < len(c.Misses); k++ {
		if c.Misses[k] > c.Misses[k-1] {
			t.Errorf("curve not non-increasing at %d: %v", k, c.Misses)
		}
	}
	if c.Misses[len(c.Misses)-1] != 100 {
		t.Errorf("largest size should leave only cold misses, got %v", c.Misses)
	}
	if c.Misses[0] <= 100 {
		t.Errorf("smallest size should thrash, got %v", c.Misses[0])
	}
}

func TestObserverIntegrationWithCache(t *testing.T) {
	// Wire a profiler to a real L2 like the experiment harness does.
	l2 := cache.New(cache.Config{Name: "l2", Sets: 64, Ways: 4, LineSize: 64})
	regionOf := map[mem.RegionID]int{5: 0}
	p, _ := New(cfg(), []string{"only"}, regionOf)
	l2.Observer = p.Observe
	for i := 0; i < 50; i++ {
		l2.Access(trace.Access{Addr: uint64(i * 64), Size: 4, Region: 5})
	}
	if got := p.Curves()[0].Accesses; got != 50 {
		t.Errorf("observed %v accesses, want 50", got)
	}
}

func TestNewValidatesRegions(t *testing.T) {
	if _, err := New(Config{Sizes: []int{2}}, nil, nil); err == nil {
		t.Error("bad geometry accepted")
	}
}

func TestAverage(t *testing.T) {
	run1 := []Curve{{Entity: "a", Sizes: []int{1, 2}, Misses: []float64{10, 4}, Accesses: 100}}
	run2 := []Curve{{Entity: "a", Sizes: []int{1, 2}, Misses: []float64{20, 8}, Accesses: 200}}
	avg, err := Average([][]Curve{run1, run2})
	if err != nil {
		t.Fatal(err)
	}
	if avg[0].Misses[0] != 15 || avg[0].Misses[1] != 6 || avg[0].Accesses != 150 {
		t.Errorf("avg = %+v", avg[0])
	}
}

func TestAverageErrors(t *testing.T) {
	if _, err := Average(nil); err == nil {
		t.Error("empty average accepted")
	}
	run1 := []Curve{{Entity: "a", Sizes: []int{1}, Misses: []float64{1}}}
	run2 := []Curve{{Entity: "b", Sizes: []int{1}, Misses: []float64{1}}}
	if _, err := Average([][]Curve{run1, run2}); err == nil {
		t.Error("mismatched entities accepted")
	}
	run3 := []Curve{}
	if _, err := Average([][]Curve{run1, run3}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestCurveByEntity(t *testing.T) {
	cs := []Curve{{Entity: "x"}, {Entity: "y"}}
	if CurveByEntity(cs, "y") != &cs[1] {
		t.Error("lookup failed")
	}
	if CurveByEntity(cs, "z") != nil {
		t.Error("missing entity should be nil")
	}
}

// TestReleasedSlotsAreCleared is the pool contract: a profiler built on
// the slot buffer an earlier profiler released returns curves identical
// to a fresh measurement. The earlier profiler's buffer is scribbled
// over with 1s before Release — to the stack-distance engine, every
// group then holds line 0 as its most recent line — and the stream
// opens with line 0 in every region, so a reuse that skipped the clear
// would score those cold misses as hits.
func TestReleasedSlotsAreCleared(t *testing.T) {
	pcfg := Config{Sizes: []int{1, 2, 4, 8}, UnitSets: 8, Ways: 4, LineSize: 64}
	regionOf := map[mem.RegionID]int{0: 0, 1: 0, 2: 1}
	names := []string{"taskA", "taskB"}
	measure := func(p *Profiler) []Curve {
		for r := range regionOf {
			p.Observe(0, false, r)
		}
		x := uint64(0x9E37_79B9_7F4A_7C15)
		for i := 0; i < 20000; i++ {
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			v := x * 0x2545F4914F6CDD1D
			p.Observe(v%1536, v&8 == 0, mem.RegionID(v%3))
		}
		return p.Curves()
	}
	// The bank engine never touches the pool: an independent reference.
	bankCfg := pcfg
	bankCfg.Engine = EngineBank
	bank, err := New(bankCfg, names, regionOf)
	if err != nil {
		t.Fatal(err)
	}
	want := measure(bank)

	// sync.Pool may drop a Put (always possible, and deliberately
	// frequent under the race detector), so retry until a released
	// buffer comes back.
	reused := false
	for attempt := 0; attempt < 100 && !reused; attempt++ {
		old, err := New(pcfg, names, regionOf)
		if err != nil {
			t.Fatal(err)
		}
		measure(old)
		dirty := *old.buf
		for i := range dirty {
			dirty[i] = 1
		}
		old.Release()

		p, err := New(pcfg, names, regionOf)
		if err != nil {
			t.Fatal(err)
		}
		reused = &(*p.buf)[0] == &dirty[0]
		got := measure(p)
		p.Release()
		for e := range want {
			if got[e].Accesses != want[e].Accesses {
				t.Fatalf("%s: accesses %v, want %v", want[e].Entity, got[e].Accesses, want[e].Accesses)
			}
			for k := range want[e].Misses {
				if got[e].Misses[k] != want[e].Misses[k] {
					t.Fatalf("%s at %d units: %v misses on a reused buffer, want %v",
						want[e].Entity, want[e].Sizes[k], got[e].Misses[k], want[e].Misses[k])
				}
			}
		}
	}
	if !reused {
		t.Fatal("the pool never handed a released buffer back")
	}
}
