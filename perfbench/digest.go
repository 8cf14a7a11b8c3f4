package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/scenario"
)

// digestBytes is the short content digest the benchmark compares.
func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// digestJSON digests v's JSON encoding. Every value digested here is a
// result document of plain structs, slices and maps, whose encoding is
// deterministic (map keys sorted, floats in shortest form). A scenario
// result digests exactly as the server encodes it, so a served payload
// (digestBytes) and an in-process result compare byte for byte.
func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: digesting %T: %v", v, err)) // a bug: result documents always encode
	}
	return digestBytes(b)
}

// pinned holds the digests of every simulated result at the default
// seed (and for headline-paper, which always runs the canonical paper
// inputs, at every seed). A run whose result differs counts the
// operation as failed.
var pinned = map[string]string{
	"grid-small.sweep":           "0d29f1da9d3d1ffc",
	"grid-small.explore":         "dca47179c98abc20",
	"headline-paper.2jpeg+canny": "fdad2adaa07d72bf",
	"headline-paper.mpeg2":       "f003185741df4d90",
	"serve-mix.pool":             "220031b3776e4abc",
	"restart-warm.pool":          "df78477b55fa965c",
}

// checkDigest compares got with the pinned digest of name when the run
// is at a pinned seed, else with want (a digest from this run's own
// oracle). It records the digest for printing and reports whether it
// matched.
func (b *bench) checkDigest(name, got, want string, pinnedSeed bool) bool {
	b.digests[name] = got
	if pinnedSeed {
		b.pinned = true
		if p, ok := pinned[name]; ok {
			want = p
		} else {
			b.problem("no pinned digest for %s (got %s)", name, got)
			return false
		}
	}
	if want != "" && got != want {
		b.problem("%s: digest %s, want %s", name, got, want)
		return false
	}
	return true
}

// headline is one of the paper's two headline scenarios with its
// reproduced miss counts and the paper's claimed reduction.
type headline struct {
	workload            string
	shared, partitioned uint64
	paperRatio          float64
}

var headlines = []headline{
	{"2jpeg+canny", 220341, 45861, 5.0},
	{"mpeg2", 19840, 7391, 6.5},
}

// checkHeadline verifies one headline result's miss counts.
func checkHeadline(h headline, r *scenario.Result) error {
	if r.Error != "" {
		return fmt.Errorf("%s: %s", h.workload, r.Error)
	}
	if r.Shared == nil || r.Partitioned == nil {
		return fmt.Errorf("%s: result lacks the shared or partitioned run", h.workload)
	}
	if r.Shared.TotalMisses != h.shared || r.Partitioned.TotalMisses != h.partitioned {
		return fmt.Errorf("%s: misses %d/%d, want %d/%d", h.workload,
			r.Shared.TotalMisses, r.Partitioned.TotalMisses, h.shared, h.partitioned)
	}
	return nil
}

// checkStudy verifies the internal consistency of an optimized-policy
// result: every section present and each run's total equal to the sum
// of its entities' misses.
func checkStudy(r *scenario.Result) error {
	if r.Error != "" {
		return fmt.Errorf("result error: %s", r.Error)
	}
	if r.Shared == nil || r.Partitioned == nil || r.Optimize == nil || r.Compose == nil {
		return fmt.Errorf("result %s lacks a section of the optimized policy", r.Key)
	}
	for _, run := range []*scenario.RunSummary{r.Shared, r.Partitioned} {
		var sum uint64
		for _, e := range run.Entities {
			sum += e.Misses
		}
		if sum != run.TotalMisses {
			return fmt.Errorf("result %s: %s entities sum to %d misses, total says %d", r.Key, run.Strategy, sum, run.TotalMisses)
		}
	}
	return nil
}
