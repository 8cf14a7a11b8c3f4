// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator's public packages (and, for the
// serving workloads, an in-process server over loopback HTTP), checks
// every simulated result it receives, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of the workload. With
// --trace 1 it runs the workload again with span recording on, adds a
// layer walk that repeats one representative operation call by call,
// and reports the per-layer metrics instead. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one named traffic mix. run fills the bench with the
// end-to-end metrics (b.rec == nil) or the per-layer metrics of a traced
// run (b.rec != nil).
type workload struct {
	name string
	run  func(b *bench) error
}

var benchWorkloads = []workload{
	{"grid-small", runGrid},
	{"headline-paper", runHeadline},
	{"serve-mix", runServeMix},
	{"restart-warm", runRestart},
}

// Set-up repetitions: at least minSetups, then more while the set-ups
// so far took less than setupBudget, up to maxSetups. setup_s is the
// median.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// defaultSeed is the seed whose simulated results are pinned in
// digests.go.
const defaultSeed = 0

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench carries one run's settings and what it measured.
type bench struct {
	seed    uint64
	seconds time.Duration
	dir     string    // scratch directory for stores, removed at exit
	rec     *recorder // nil unless tracing
	log     io.Writer

	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string          // verification failures, for the report
	samples   map[string][2]int // percentile metric → {samples, samples beyond}
	digests   map[string]string // result digests, printed for comparison
	pinned    bool              // some digest was compared with a pinned one
	details   map[string]metric // workload-specific figures, on the meta line only
}

func (b *bench) put(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

// detail records a figure of this workload alone on the meta line. The
// result line holds only the metrics every workload reports.
func (b *bench) detail(name, unit string, v float64) { b.details[name] = metric{Value: v, Unit: unit} }

// problem records a verification failure. The caller counts the failed
// operations.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 20 {
		b.problems = append(b.problems, msg)
	}
}

// pct reports the p-th percentile of xs (milliseconds) as name.
func (b *bench) pct(name string, xs []float64, p int) error {
	v, err := b.percentileMs(name, xs, p)
	if err != nil {
		return err
	}
	b.put(name, "ms", v)
	return nil
}

// pctDetail records the p-th percentile of xs (milliseconds) on the
// meta line only.
func (b *bench) pctDetail(name string, xs []float64, p int) error {
	v, err := b.percentileMs(name, xs, p)
	if err != nil {
		return err
	}
	b.detail(name, "ms", v)
	return nil
}

func (b *bench) percentileMs(name string, xs []float64, p int) (float64, error) {
	v, err := percentile(xs, p)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	if math.IsInf(v, 1) {
		v = math.MaxFloat64 // a failed request misses every latency limit
	}
	rank := (p*len(xs) + 99) / 100
	b.samples[name] = [2]int{len(xs), len(xs) - rank}
	return v, nil
}

// setup runs f repeatedly and reports the median time as setup_s. f
// returns a teardown; each set-up is torn down before the next one
// starts, and the last one is what the timed phase uses.
func (b *bench) setup(f func() (teardown func(), err error)) (teardown func(), err error) {
	var ds []float64
	for start := time.Now(); len(ds) < minSetups || len(ds) < maxSetups && time.Since(start) < setupBudget; {
		if teardown != nil {
			teardown()
		}
		runtime.GC()
		t0 := time.Now()
		td, err := f()
		ds = append(ds, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		teardown = td
	}
	b.put("setup_s", "s", median(ds))
	return teardown, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 30, "how long the timed phase measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	commit := fs.String("commit", "unknown", "commit the binary was built from (set by run.sh)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == *name {
			w = &benchWorkloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		dir:     dir,
		log:     stderr,
		metrics: make(map[string]metric),
		samples: make(map[string][2]int),
		digests: make(map[string]string),
		details: make(map[string]metric),
	}
	if *trace == 1 {
		b.rec = newRecorder()
	}
	if err := w.run(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	if err := b.matchManifest("BENCHMARK.json", *trace == 1); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	spanFile := ""
	if b.rec != nil {
		spanFile = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, b.seed))
		if err := b.rec.write(spanFile); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	for _, p := range b.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	meta := map[string]any{
		"workload":   w.name,
		"seed":       b.seed,
		"trace":      *trace,
		"commit":     *commit,
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"attempted":  b.attempted,
		"failed":     b.failed,
		"digests":    b.digests,
		"details":    b.details,
		"pinned":     b.pinned,
		"percentile_samples": func() map[string]map[string]int {
			m := make(map[string]map[string]int)
			for k, v := range b.samples {
				m[k] = map[string]int{"samples": v[0], "beyond": v[1]}
			}
			return m
		}(),
	}
	if spanFile != "" {
		meta["spans_file"] = spanFile
	}
	out := bufio.NewWriter(stdout)
	metaLine, _ := json.Marshal(map[string]any{"meta": meta}) // plain maps of scalars: cannot fail
	fmt.Fprintln(out, string(metaLine))
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0 && len(b.problems) == 0, b.attempted, b.failed, b.metrics}
	last, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Fprintln(out, string(last))
	if err := out.Flush(); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing result:", err)
		return 1
	}
	return 0
}

// manifest is the part of BENCHMARK.json that names the metrics.
type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// matchManifest makes the result line hold exactly the metrics the
// manifest at path lists for this run: the end-to-end metrics, or the
// per-layer ones when traced. A measured figure the manifest does not
// list moves to the meta line; a listed metric that was not measured, or
// was measured in another unit, is an error. Without a manifest (a run
// outside a checkout) the metrics are left as they are.
func (b *bench) matchManifest(path string, traced bool) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := m.EndToEnd
	if traced {
		want = m.PerLayer
	}
	listed := make(map[string]bool, len(want))
	var missing []string
	for _, mm := range want {
		listed[mm.Name] = true
		got, ok := b.metrics[mm.Name]
		switch {
		case !ok:
			missing = append(missing, mm.Name)
		case got.Unit != mm.Unit:
			return fmt.Errorf("metric %s measured in %s, the manifest says %s", mm.Name, got.Unit, mm.Unit)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("the manifest's metrics %s were not measured", strings.Join(missing, ", "))
	}
	for name, v := range b.metrics {
		if !listed[name] {
			b.details[name] = v
			delete(b.metrics, name)
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range benchWorkloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return names
}

// cpuModel reads the host CPU model, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
