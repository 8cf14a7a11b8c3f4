package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/tracefile"
	"repro/internal/workloads"
)

// Runner validates scenarios and executes them with content-addressed
// memoization. Memoization is per pipeline *stage* (the trace capture,
// profiling, the profile+solve leg, each measured execution), keyed by
// a hash of exactly the spec fields that stage depends on — so
// identical specs in a batch simulate once, and different scenarios
// sharing a stage (every command of the legacy CLI surface reuses the
// two applications' studies; the solo-composition scenario borrows the
// full application's optimization) share the simulation too. Every simulation is
// deterministic at any worker count, so memoized and fresh results are
// bit-identical.
//
// A Runner is safe for concurrent use; the serve mode shares one across
// requests, turning the memo into a result cache.
//
// The memo is layered. In front, a single-flight table tracks stages
// currently computing, so concurrent identical lookups — including
// concurrent cold reads of the same durable record — collapse into one.
// Behind it, completed stage results live as versioned encoded
// documents in an in-memory LRU store, and optionally in a durable
// store (the crash-safe on-disk CAS of internal/store): a memory miss
// consults the durable layer before simulating, so warm results survive
// process restarts. Durable-layer failures are counted, retried and —
// when the medium keeps failing — degraded away by the store layer;
// they never fail a scenario.
//
// Each stage kind (trace, profile, optimize, run) is declared once, as
// a typed stageKind in storecodec.go naming its counter and document
// codec; each counter once, in the Stats.fields table. Stages build
// their app instances from the trace stage's replay workload — the
// runner's only workload source.
//
// One stage fills two keys: the profile stage's unjittered first
// repetition is the migration-off shared run, so the stage publishes
// that result under its run-stage key (baselineKey). An optimized
// scenario whose shared run is that baseline (sharedFromProfile) looks
// it up after its optimize leg, as a memo hit; the shared baseline is
// then never simulated on its own.
type Runner struct {
	// workers bounds each fan-out stage (0 = GOMAXPROCS, 1 = fully
	// sequential), exactly like experiments.Config.Workers.
	workers int

	mu       sync.Mutex
	inflight map[string]*memoEntry

	mem     store.Store // completed stage documents, LRU-bounded
	durable store.Store // optional crash-safe layer; nil = memory-only

	// decoded caches the live (decoded) value of completed stages next
	// to the encoded documents in mem, so concurrent executions share
	// one decoded trace / curve set / result instead of re-decoding the
	// stage document on every memo hit — for a 32-point sweep the same
	// multi-megabyte trace would otherwise be decoded once per point.
	// Keys are content addresses, so a decoded value can never go stale;
	// entries are evicted together with their documents (decode faults,
	// TrimMemo). The invariant making the sharing safe: stage values are
	// immutable once computed — every consumer treats them read-only,
	// which the differential suite (sweep-vs-sequential bit-identity)
	// pins. Trace-kind hits still pass through the trace.read fault
	// site, preserving the corrupt-trace recapture path.
	decoded sync.Map // composite stage key → decoded stage value

	// counts is the counter table, indexed by counter (see Stats.fields).
	counts [numCounters]atomic.Uint64
}

// StagePanicError is a panic recovered inside a pipeline stage (or a
// worker executing one), converted into a structured error: the stage
// kind, the stage's content-address key, the recovered value, and the
// stack captured at recovery. It propagates to every single-flight
// waiter of the stage, the memo entry is evicted (a retry starts
// fresh), and batch consumers see it as the scenario's per-result
// "error" field — the process, and every other in-flight scenario,
// keeps running.
type StagePanicError struct {
	Stage string      // stage kind ("trace", "profile", "optimize", "run", or "scenario" outside any stage)
	Key   string      // the stage's memo key (content address), if any
	Value interface{} // the recovered panic value
	Stack string      // stack captured at recovery
}

// Error implements error.
func (e *StagePanicError) Error() string {
	if e.Key == "" {
		return fmt.Sprintf("scenario: panic in %s: %v", e.Stage, e.Value)
	}
	return fmt.Sprintf("scenario: panic in %s stage (key %s): %v", e.Stage, e.Key, e.Value)
}

// memoEntry is a single-flight memo slot: the first caller computes,
// concurrent callers block on the sync.Once, later callers reuse. val
// holds the kind's stage value; stage is the only reader.
type memoEntry struct {
	once sync.Once
	val  any
	err  error
}

// NewRunner returns a memory-only Runner with the given worker-pool
// bound.
func NewRunner(workers int) *Runner {
	return NewRunnerWithStore(workers, nil)
}

// NewRunnerWithStore returns a Runner whose completed stage results are
// additionally persisted to (and warm-served from) the given durable
// store. Pass the disk CAS wrapped in store.NewResilient so transient
// I/O errors are retried and a persistently failing medium degrades to
// memory-only operation instead of failing scenarios. nil means
// memory-only.
func NewRunnerWithStore(workers int, durable store.Store) *Runner {
	return &Runner{
		workers:  workers,
		inflight: make(map[string]*memoEntry),
		mem:      store.NewMemory(0),
		durable:  durable,
	}
}

// Workers returns the runner's worker-pool knob (0 = GOMAXPROCS).
func (r *Runner) Workers() int { return r.workers }

// StoreMode reports the runner's persistence mode: "memory" without a
// durable store, "disk" with one, and "degraded" once a failing medium
// has been disabled by the store layer's breaker.
func (r *Runner) StoreMode() string {
	if r.durable == nil {
		return "memory"
	}
	if m, ok := r.durable.(store.Moder); ok {
		return m.Mode()
	}
	return "disk"
}

// TrimMemo bounds the in-memory result store to at most max completed
// entries, evicting least-recently-used records. Stages still in flight
// are tracked separately and are never evicted; evicted results remain
// in the durable store (when configured) and otherwise recompute —
// every simulation is deterministic, so trimming never changes results.
func (r *Runner) TrimMemo(max int) {
	if t, ok := r.mem.(store.Trimmer); ok {
		t.Trim(max)
	}
	// Drop the decoded side-cache wholesale: it must not outgrow the
	// trimmed document store, and content-addressed values repopulate on
	// the next hit (a decode, not a recompute).
	r.decoded.Range(func(k, _ any) bool {
		r.decoded.Delete(k)
		return true
	})
}

// Close releases the durable store, if any.
func (r *Runner) Close() error {
	if r.durable == nil {
		return nil
	}
	return r.durable.Close()
}

// Stats reports memoization effectiveness. All counters are monotonic,
// so the delta of two snapshots attributes stage work to the requests
// issued in between (the sweep aggregate records exactly that).
type Stats struct {
	StageRuns    uint64 `json:"stage_runs"`             // pipeline stages executed
	MemoHits     uint64 `json:"memo_hits"`              // stage requests served from the memo
	StageErrors  uint64 `json:"stage_errors,omitempty"` // failed stages (evicted, so later requests retry)
	StagePanics  uint64 `json:"stage_panics,omitempty"` // panics recovered into StagePanicError
	ProfileRuns  uint64 `json:"profile_runs"`           // profile stages executed
	OptimizeRuns uint64 `json:"optimize_runs"`          // optimize stages executed
	RunRuns      uint64 `json:"run_runs"`               // measured executions performed
	TraceRuns    uint64 `json:"trace_runs"`             // trace captures executed (functional runs)
	TraceHits    uint64 `json:"trace_hits"`             // trace requests served without capturing
	TraceBytes   uint64 `json:"trace_bytes,omitempty"`  // encoded bytes of traces captured
	DiskHits     uint64 `json:"disk_hits,omitempty"`    // stage requests served from the durable store
	DiskMisses   uint64 `json:"disk_misses,omitempty"`  // durable lookups that found no record
	StoreErrors  uint64 `json:"store_errors,omitempty"` // durable-store operations failed post-retry (never fatal)
	Quarantined  uint64 `json:"quarantined,omitempty"`  // corrupt durable records detected and quarantined
}

// counter indexes the Runner's counter table; each counter is one Stats
// field.
type counter int

const (
	stageRuns counter = iota
	memoHits
	stageErrors
	stagePanics
	profileRuns
	optimizeRuns
	runRuns
	traceRuns
	traceHits
	traceBytes
	diskHits
	diskMisses
	storeErrors
	quarantined // kept by the durable store; Runner.Stats reads it from there
	numCounters
)

// fields lists s's counters in counter order: the one place a counter
// meets its Stats field. Runner.Stats and Delta both loop over it.
func (s *Stats) fields() [numCounters]*uint64 {
	return [numCounters]*uint64{
		stageRuns:    &s.StageRuns,
		memoHits:     &s.MemoHits,
		stageErrors:  &s.StageErrors,
		stagePanics:  &s.StagePanics,
		profileRuns:  &s.ProfileRuns,
		optimizeRuns: &s.OptimizeRuns,
		runRuns:      &s.RunRuns,
		traceRuns:    &s.TraceRuns,
		traceHits:    &s.TraceHits,
		traceBytes:   &s.TraceBytes,
		diskHits:     &s.DiskHits,
		diskMisses:   &s.DiskMisses,
		storeErrors:  &s.StoreErrors,
		quarantined:  &s.Quarantined,
	}
}

// Delta returns the counter-wise difference s - before: the stage work
// attributable to the requests issued between the two snapshots (the
// sweep and explore aggregates record exactly this).
func (s Stats) Delta(before Stats) Stats {
	b := before.fields()
	for c, p := range s.fields() {
		*p -= *b[c]
	}
	return s
}

// Stats returns a snapshot of the runner's counters.
func (r *Runner) Stats() Stats {
	var s Stats
	for c, p := range s.fields() {
		*p = r.counts[c].Load()
	}
	if sp, ok := r.durable.(store.StatsProvider); ok {
		s.Quarantined = sp.Stats().Quarantined
	}
	return s
}

// count adds one to each named counter.
func (r *Runner) count(cs ...counter) {
	for _, c := range cs {
		r.counts[c].Add(1)
	}
}

// hit counts a lookup of kind k served without executing the stage,
// from the memo (memoHits) or the durable store (diskHits).
func (k stageKind[T]) hit(r *Runner, via counter) {
	r.count(via)
	r.count(k.hits...)
}

// stage serves one pipeline-stage lookup through the memo layers:
// the completed-result stores first (memory, then the durable layer),
// then a single-flight execution of f. Concurrent lookups of one key —
// whether the work is a simulation or a cold durable read — collapse
// into one computation whose result every waiter shares, so
// concurrency semantics are independent of the storage backing.
//
// Errors are NOT memoized: a failed stage evicts its single-flight
// entry (nothing is stored), so a transient failure cannot poison the
// key for the lifetime of a long-lived shared runner — the next request
// retries. Callers that arrived while the failing computation was in
// flight still all observe its error (they were waiting on it), but any
// later lookup starts fresh.
//
// A canceled ctx fails the lookup before it touches the memo; it never
// aborts a computation already in flight (simulations are deterministic
// and their results are shared, so in-flight work is never wasted).
func stage[T any](ctx context.Context, r *Runner, k stageKind[T], key string, f func() (T, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	key = k.name + "|" + key
	var (
		e       *memoEntry
		waiting bool
	)
	for {
		// Decoded fast path: serve the shared live value with no store
		// lookup and no decode. The kind's read hook still fires — an
		// injected trace read error behaves exactly like a corrupt
		// document (counted, both layers evicted, recompute), so the
		// recapture semantics are independent of which layer served the
		// trace.
		if v, ok := r.decoded.Load(key); ok {
			if k.checkRead() == nil {
				k.hit(r, memoHits)
				return v.(T), nil
			}
			r.count(storeErrors)
			r.decoded.Delete(key)
			r.mem.Delete(key)
		}
		r.mu.Lock()
		e, waiting = r.inflight[key]
		var cached []byte
		if !waiting {
			if b, err := r.mem.Get(key); err == nil {
				cached = b
			} else {
				e = &memoEntry{}
				r.inflight[key] = e
			}
		}
		r.mu.Unlock()
		if cached == nil {
			break
		}
		v, derr := k.load(cached)
		if derr == nil {
			r.decoded.Store(key, v)
			k.hit(r, memoHits)
			return v, nil
		}
		// The memory layer held an undecodable document (a corrupt
		// trace surfaced by the trace.read fault site, or version skew
		// from a live upgrade). Treat it exactly like the durable layer
		// does: count it, evict the record, and loop back to recompute —
		// corruption costs a re-run, never a failed scenario.
		r.count(storeErrors)
		r.mem.Delete(key)
	}

	ran := false
	e.once.Do(func() {
		ran = true
		if v, ok := k.loadDurable(r, key); ok {
			e.val = v
			return
		}
		r.count(stageRuns, k.runs)
		v, err := k.guarded(r, key, f)
		e.val, e.err = v, err
		if err == nil {
			k.persist(r, key, v)
		}
	})
	// The entry's work is done (stored on success): retire it from the
	// single-flight table. The pointer comparison keeps this idempotent
	// across the entry's concurrent waiters and never deletes a fresh
	// retry entry installed in the meantime; the error counter fires
	// once per failed execution, mirroring the eviction-for-retry
	// semantics (nothing was stored, so the next lookup starts fresh).
	r.mu.Lock()
	if r.inflight[key] == e {
		delete(r.inflight, key)
		if e.err != nil {
			r.count(stageErrors)
		}
	}
	r.mu.Unlock()
	if e.err != nil {
		return zero, e.err
	}
	// A caller that shared another caller's execution was served from
	// the memo — once that execution has succeeded, never before: a
	// waiter on a failed stage got an error, not a memoized result.
	if !ran {
		k.hit(r, memoHits)
	}
	return e.val.(T), nil
}

// loadDurable consults the durable store for a completed stage result,
// promoting a hit into the memory store. Store failures are counted and
// swallowed — the caller falls through to simulation; a document of an
// unknown version (or a kind mismatch) is treated the same way, and the
// recompute overwrites it.
func (k stageKind[T]) loadDurable(r *Runner, key string) (T, bool) {
	var zero T
	if r.durable == nil {
		return zero, false
	}
	b, err := r.durable.Get(key)
	switch {
	case err == nil:
		v, derr := k.load(b)
		if derr != nil {
			r.count(storeErrors)
			r.durable.Delete(key)
			return zero, false
		}
		k.hit(r, diskHits)
		r.mem.Put(key, b)
		r.decoded.Store(key, v)
		return v, true
	case errors.Is(err, store.ErrNotFound):
		r.count(diskMisses)
	case errors.Is(err, store.ErrDegraded):
		// The breaker tripped: memory-only mode, nothing to count per op.
	default:
		r.count(storeErrors)
	}
	return zero, false
}

// persist encodes a completed stage value into its versioned document
// and stores it — always in memory, and in the durable layer when one
// is configured. Durable failures are counted, never propagated: a
// broken volume costs durability, not results.
func (k stageKind[T]) persist(r *Runner, key string, v T) {
	b, err := k.encode(v)
	if err != nil {
		// Stage values are plain structs of scalars, slices and maps;
		// encoding cannot fail in practice. Count it and serve from the
		// single-flight value alone.
		r.count(storeErrors)
		return
	}
	r.mem.Put(key, b)
	r.decoded.Store(key, v)
	if r.durable == nil {
		return
	}
	if err := r.durable.Put(key, b); err != nil && !errors.Is(err, store.ErrDegraded) {
		r.count(storeErrors)
	}
}

// publish stores a value computed outside its own stage — the shared
// baseline the profile stage simulates as repetition 0 — exactly like
// persist: memory, decoded cache and the durable layer. A key already
// decoded, memory-resident or in flight is left alone: its value is the
// same bytes. Publication is not a stage run and bumps no counter; a
// later lookup of key is an ordinary memo hit.
func (k stageKind[T]) publish(r *Runner, key string, v T) {
	key = k.name + "|" + key
	if _, ok := r.decoded.Load(key); ok {
		return
	}
	r.mu.Lock()
	_, busy := r.inflight[key]
	if !busy {
		_, err := r.mem.Get(key)
		busy = err == nil
	}
	r.mu.Unlock()
	if !busy {
		k.persist(r, key, v)
	}
}

// guarded executes one stage body with panic containment: a panic on
// this goroutine is recovered here, and a panic inside a nested
// parallel fan-out (profiling repetitions, study legs) arrives already
// recovered as the pool's *parallel.PanicError — both are converted to
// a *StagePanicError carrying the stage kind, memo key, recovered value
// and stack. The error flows to every single-flight waiter and evicts
// the memo entry exactly like any stage failure, so a panicked stage is
// retried by the next request instead of poisoning the key. The
// fault-injection point fires once per stage execution (a no-op outside
// the fault suite).
func (k stageKind[T]) guarded(r *Runner, key string, f func() (T, error)) (v T, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			r.count(stagePanics)
			var zero T
			v, err = zero, &StagePanicError{Stage: k.name, Key: key, Value: rec, Stack: string(debug.Stack())}
		}
	}()
	if err := faults.Point(faults.SiteStage + k.name); err != nil {
		return v, err
	}
	v, err = f()
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		r.count(stagePanics)
		var zero T
		v, err = zero, &StagePanicError{Stage: k.name, Key: key, Value: pe.Value, Stack: string(pe.Stack)}
	}
	return v, err
}

// traceKey captures exactly what the capture stage depends on: the
// workload identity alone. A recorded trace is platform-, engine- and
// strategy-independent (capture happens at the Ctx API boundary, above
// all timing — see internal/tracefile), so one trace serves the
// profiler and every measured execution of every scenario sharing the
// workload.
type traceKey struct {
	Workload string `json:"workload"`
	Scale    string `json:"scale"`
	Seed     uint64 `json:"seed"`
}

// traceStageKey hashes what the capture stage depends on.
func traceStageKey(s Scenario) string {
	return hashJSON(traceKey{Workload: s.Workload, Scale: s.Scale, Seed: s.Seed})
}

// traceStage serves the scenario's recorded trace through the memo
// layers, capturing it from one live functional run on first use.
func (r *Runner) traceStage(ctx context.Context, s Scenario) (*tracefile.Trace, error) {
	return stage(ctx, r, traceKind, traceStageKey(s), func() (*tracefile.Trace, error) {
		w, err := workloads.Build(s.Workload, s.buildConfig())
		if err != nil {
			return nil, err
		}
		t, err := tracefile.Capture(w, tracefile.Meta{Workload: s.Workload, Scale: s.Scale, Seed: s.Seed})
		if err != nil {
			return nil, err
		}
		r.counts[traceBytes].Add(uint64(t.Size()))
		return t, nil
	})
}

// workload returns the factory the pipeline stages build app instances
// from: a replay workload backed by the trace stage, so a warm trace
// makes every later stage skip functional execution entirely.
func (r *Runner) workload(ctx context.Context, s Scenario) (core.Workload, error) {
	t, err := r.traceStage(ctx, s)
	if err != nil {
		return core.Workload{}, err
	}
	return t.Workload(s.Workload), nil
}

// profileKey captures exactly what the profiling stage depends on.
type profileKey struct {
	Workload string       `json:"workload"`
	Scale    string       `json:"scale"`
	Seed     uint64       `json:"seed"`
	Platform PlatformSpec `json:"platform"`
	Exec     string       `json:"exec"`
	Runs     int          `json:"runs"`
	Engine   string       `json:"engine"`
	Level    string       `json:"level,omitempty"`
	Sizes    []int        `json:"sizes"`
}

// profileStageKey hashes exactly what the profiling stage depends on.
func profileStageKey(s Scenario) string {
	return hashJSON(profileKey{
		Workload: s.Workload, Scale: s.Scale, Seed: s.Seed,
		Platform: *s.Platform, Exec: s.ExecEngine,
		Runs: s.Runs, Engine: s.ProfileEngine, Level: s.ProfileLevel, Sizes: s.Sizes,
	})
}

// profileStage serves the scenario's averaged miss curves. Computing
// them simulates the shared baseline as a by-product (repetition 0), so
// the stage publishes that result as the run stage baselineKey names.
func (r *Runner) profileStage(ctx context.Context, s Scenario) ([]profile.Curve, error) {
	return stage(ctx, r, profileKind, profileStageKey(s), func() ([]profile.Curve, error) {
		// Nested stage lookups are detached from ctx: the closure may be
		// computing on behalf of many single-flight waiters.
		w, err := r.workload(context.Background(), s)
		if err != nil {
			return nil, err
		}
		oc, err := s.optimizeConfig(r.workers)
		if err != nil {
			return nil, err
		}
		curves, baseline, err := core.ProfileRun(w, oc)
		if err != nil {
			return nil, err
		}
		runKind.publish(r, baselineKey(s), baseline)
		return curves, nil
	})
}

// optimizeKey extends profileKey with the solver choice.
type optimizeKey struct {
	profileKey
	Solver string `json:"solver"`
}

// optimizeStageKey hashes what the profile+solve stage depends on.
func optimizeStageKey(s Scenario) string {
	return hashJSON(optimizeKey{
		profileKey: profileKey{
			Workload: s.Workload, Scale: s.Scale, Seed: s.Seed,
			Platform: *s.Platform, Exec: s.ExecEngine,
			Runs: s.Runs, Engine: s.ProfileEngine, Level: s.ProfileLevel, Sizes: s.Sizes,
		},
		Solver: s.Solver,
	})
}

func (r *Runner) optimizeStage(ctx context.Context, s Scenario) (*core.OptimizeResult, error) {
	return stage(ctx, r, optimizeKind, optimizeStageKey(s), func() (*core.OptimizeResult, error) {
		// The closure may be computing on behalf of many single-flight
		// waiters; once started it completes regardless of the first
		// caller's fate, so the nested profile lookup is detached from
		// ctx — otherwise one client's disconnect would fail another
		// client's in-flight optimize with its cancellation error.
		curves, err := r.profileStage(context.Background(), s)
		if err != nil {
			return nil, err
		}
		w, err := r.workload(context.Background(), s)
		if err != nil {
			return nil, err
		}
		app, err := w.Factory()
		if err != nil {
			return nil, err
		}
		oc, err := s.optimizeConfig(r.workers)
		if err != nil {
			return nil, err
		}
		return core.OptimizeFromCurves(app, curves, oc)
	})
}

// runKey captures exactly what one measured execution depends on. The
// partitioned run's allocation is identified by the key of the optimize
// stage that produced it, not its content.
type runKey struct {
	Workload  string       `json:"workload"`
	Scale     string       `json:"scale"`
	Seed      uint64       `json:"seed"`
	Platform  PlatformSpec `json:"platform"`
	Exec      string       `json:"exec"`
	Strategy  string       `json:"strategy"`
	Migration bool         `json:"migration"`
	AllocKey  string       `json:"alloc_key,omitempty"`
}

// runStageKey hashes what one measured execution depends on.
func runStageKey(s Scenario, strat core.Strategy, allocKey string) string {
	return hashJSON(runKey{
		Workload: s.Workload, Scale: s.Scale, Seed: s.Seed,
		Platform: *s.Platform, Exec: s.ExecEngine,
		Strategy: strat.String(), Migration: s.Migration, AllocKey: allocKey,
	})
}

func (r *Runner) runStage(ctx context.Context, s Scenario, strat core.Strategy, alloc core.Allocation, allocKey string) (*core.Result, error) {
	return stage(ctx, r, runKind, runStageKey(s, strat, allocKey), func() (*core.Result, error) {
		w, err := r.workload(context.Background(), s)
		if err != nil {
			return nil, err
		}
		pc, err := s.platformConfig()
		if err != nil {
			return nil, err
		}
		pc.Sched.AllowMigration = s.Migration
		rc := core.RunConfig{Platform: pc, Strategy: strat, Alloc: alloc}
		return core.Run(w, rc)
	})
}

// baselineKey is the run-stage key of the shared baseline that s's
// profile stage simulates and publishes: profiling runs the platform
// without migration, and every other field of the run key is shared
// with the profile key.
func baselineKey(s Scenario) string {
	b := s
	b.Migration = false
	return runStageKey(b, core.Shared, "")
}

// sharedFromProfile reports whether the optimized scenario n's shared
// run is the baseline its own optimize leg's profile stage publishes:
// whether baselineKey(allocSpec(n)) is n's shared-run key. The two keys
// differ at most in the migration flag and, with an alloc_workload
// stand-in, the workload, so the fields decide it without hashing. Then
// the shared lookup follows the optimize leg and is a memo hit instead
// of a simulation.
func sharedFromProfile(n Scenario) bool {
	return !n.Migration && allocSpec(n).Workload == n.Workload
}

// allocSpec returns the spec whose optimization provides the partitioned
// run's allocation: the scenario itself, or its AllocWorkload stand-in.
func allocSpec(s Scenario) Scenario {
	if s.AllocWorkload == "" {
		return s
	}
	a := s
	a.Workload = s.AllocWorkload
	a.AllocWorkload = ""
	return a
}

// allocStageKey mirrors optimizeStage's key derivation, for runKey.
func allocStageKey(s Scenario) string {
	return optimizeStageKey(allocSpec(s))
}

// StageKeys returns the full store keys ("<kind>|<hash>") of every
// pipeline stage the scenario's partition policy executes, labeled
// "profile", "optimize", "run.shared" and "run.partitioned". These keys
// are durable identifiers: persisted results are addressed by them
// across process restarts, so any drift in Normalize or the per-stage
// key derivations silently orphans every cached result — the golden
// tests pin them for the built-in scenarios.
func (s Scenario) StageKeys() (map[string]string, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	keys := map[string]string{"trace": traceKind.name + "|" + traceStageKey(n)}
	if a := allocSpec(n); a.Workload != n.Workload {
		keys["trace.alloc"] = traceKind.name + "|" + traceStageKey(a)
	}
	switch n.Partition {
	case PartitionProfile:
		keys["profile"] = profileKind.name + "|" + profileStageKey(n)
	case PartitionOptimize:
		keys["profile"] = profileKind.name + "|" + profileStageKey(n)
		keys["optimize"] = optimizeKind.name + "|" + optimizeStageKey(n)
	case PartitionShared:
		keys["run.shared"] = runKind.name + "|" + runStageKey(n, core.Shared, "")
	case PartitionOptimized:
		a := allocSpec(n)
		keys["profile"] = profileKind.name + "|" + profileStageKey(a)
		keys["optimize"] = optimizeKind.name + "|" + optimizeStageKey(a)
		keys["run.shared"] = runKind.name + "|" + runStageKey(n, core.Shared, "")
		keys["run.partitioned"] = runKind.name + "|" + runStageKey(n, core.Partitioned, allocStageKey(n))
	}
	return keys, nil
}

// Run normalizes and executes one scenario. The returned Result always
// carries the normalized spec and content key when normalization
// succeeded; on a pipeline failure the error is returned and also
// recorded in Result.Error, so batch consumers can use either form.
func (r *Runner) Run(s Scenario) (*Result, error) {
	return r.RunContext(context.Background(), s)
}

// RunContext is Run under a context: a canceled ctx fails pipeline
// stages not yet started (nothing is memoized for them), so a dropped
// serve-mode connection stops burning the worker pool. A stage already
// in flight runs to completion — its result is memoized and shared, so
// that work is never wasted.
//
// RunContext never panics: stage panics are contained by the memo layer
// (see StagePanicError), and a panic anywhere else in the pipeline —
// normalization, summarization — is recovered here into the same
// structured shape, so one crashing scenario is one error result, not a
// dead process.
func (r *Runner) RunContext(ctx context.Context, s Scenario) (res *Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			r.count(stagePanics)
			p := &StagePanicError{Stage: "scenario", Value: rec, Stack: string(debug.Stack())}
			if res == nil {
				res = &Result{SchemaVersion: report.SchemaVersion, Scenario: s}
			}
			p.Key = res.Key
			res.Error = p.Error()
			res.Shared, res.Partitioned, res.Optimize, res.Compose, res.Curves = nil, nil, nil, nil, nil
			err = p
		}
	}()
	n, err := s.Normalize()
	if err != nil {
		return &Result{SchemaVersion: report.SchemaVersion, Scenario: s, Error: err.Error()}, err
	}
	keyed := n
	keyed.Name = ""
	res = &Result{SchemaVersion: report.SchemaVersion, Key: hashJSON(keyed), Scenario: n}
	if err := r.execute(ctx, n, res); err != nil {
		res.Error = err.Error()
		res.Shared, res.Partitioned, res.Optimize, res.Compose, res.Curves = nil, nil, nil, nil, nil
		return res, err
	}
	return res, nil
}

// execute fills the result sections the partition policy calls for.
func (r *Runner) execute(ctx context.Context, n Scenario, res *Result) error {
	switch n.Partition {
	case PartitionProfile:
		curves, err := r.profileStage(ctx, n)
		if err != nil {
			return err
		}
		res.Curves = summarizeCurves(curves)
		return nil

	case PartitionOptimize:
		opt, err := r.optimizeStage(ctx, n)
		if err != nil {
			return err
		}
		res.Optimize = summarizeOptimize(opt)
		return nil

	case PartitionShared:
		shared, err := r.runStage(ctx, n, core.Shared, nil, "")
		if err != nil {
			return err
		}
		res.Shared = summarizeRun(shared)
		return nil

	case PartitionOptimized:
		// When the optimize leg's profile publishes this scenario's
		// shared baseline, the shared lookup follows that leg and is a
		// memo hit. Otherwise (migration, an alloc_workload stand-in) the
		// baseline is an independent simulation and the two legs run
		// concurrently. The partitioned run needs the optimized
		// allocation and follows.
		var (
			shared *core.Result
			opt    *core.OptimizeResult
		)
		legs := []func() error{
			func() error {
				var err error
				opt, err = r.optimizeStage(ctx, allocSpec(n))
				if err != nil {
					return fmt.Errorf("scenario: optimize: %w", err)
				}
				return nil
			},
			func() error {
				var err error
				shared, err = r.runStage(ctx, n, core.Shared, nil, "")
				if err != nil {
					return fmt.Errorf("scenario: shared run: %w", err)
				}
				return nil
			},
		}
		workers := parallel.Workers(r.workers)
		if sharedFromProfile(n) {
			workers = 1
		}
		if err := parallel.Do(workers, len(legs), func(i int) error { return legs[i]() }); err != nil {
			return err
		}
		part, err := r.runStage(ctx, n, core.Partitioned, opt.Allocation, allocStageKey(n))
		if err != nil {
			return fmt.Errorf("scenario: partitioned run: %w", err)
		}
		res.Shared = summarizeRun(shared)
		res.Partitioned = summarizeRun(part)
		res.Optimize = summarizeOptimize(opt)
		res.Compose = summarizeCompose(core.CompareExpectedSimulated(opt.Expected, part))
		return nil
	}
	return fmt.Errorf("scenario: unknown partition policy %q", n.Partition)
}

// RunBatch executes a batch over the worker pool. Results come back in
// input order; a scenario's failure is recorded in its Result.Error
// without failing the batch (the returned slice always has len(specs)
// non-nil entries).
func (r *Runner) RunBatch(specs []Scenario) []*Result {
	return r.RunBatchContext(context.Background(), specs)
}

// RunBatchContext is RunBatch under a context. Scenarios not yet started
// when ctx is canceled are skipped and their slots stay nil — a dropped
// client cancels queued work instead of burning the worker pool.
// Scenarios already in flight finish normally (and keep their results).
func (r *Runner) RunBatchContext(ctx context.Context, specs []Scenario) []*Result {
	results, _, done := r.RunBatchStream(ctx, specs, nil)
	<-done
	return results
}

// RunBatchStream executes a batch over the worker pool, invoking
// observe for each finished scenario in submission order as soon as it
// and all its predecessors are done — the shape both the serve
// endpoints and the sweep executor stream from. observe returning false
// abandons the in-order walk (useful when the consumer is gone);
// execution already in flight continues in the background, governed by
// ctx exactly as in RunBatchContext, with canceled-before-start slots
// left nil. The walk also ends at the first nil slot (nothing later can
// be streamed in order past a hole).
//
// RunBatchStream returns as soon as the walk ends; the results and
// errors slices are safe to read in full only after the returned
// channel is closed (every worker finished). Slots already visited by
// observe are safe immediately.
func (r *Runner) RunBatchStream(ctx context.Context, specs []Scenario, observe func(int, *Result) bool) ([]*Result, []error, <-chan struct{}) {
	results := make([]*Result, len(specs))
	errs := make([]error, len(specs))
	ready := make([]chan struct{}, len(specs))
	onces := make([]sync.Once, len(specs))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	closeReady := func(i int) { onces[i].Do(func() { close(ready[i]) }) }
	done := make(chan struct{})
	go func() {
		defer close(done)
		derr := parallel.Do(parallel.Workers(r.workers), len(specs), func(i int) error {
			defer closeReady(i)
			if ctx.Err() != nil {
				return nil
			}
			results[i], errs[i] = r.RunContext(ctx, specs[i])
			return nil
		})
		// A worker slot that died before RunContext ran (an injected
		// dispatch fault, or a panic the pool recovered outside the
		// scenario's own containment) leaves its slot nil with a live
		// context. Synthesize an error result before closing the
		// channel, so the in-order walk neither hangs on the unclosed
		// channel nor mistakes the hole for a cancellation.
		for i := range specs {
			if results[i] == nil && errs[i] == nil && ctx.Err() == nil {
				err := derr
				if err == nil {
					err = fmt.Errorf("scenario: batch worker for scenario %d did not run", i)
				}
				errs[i] = err
				results[i] = &Result{SchemaVersion: report.SchemaVersion, Scenario: specs[i], Error: err.Error()}
			}
			closeReady(i)
		}
	}()
	for i := range specs {
		<-ready[i]
		if results[i] == nil {
			break
		}
		if observe != nil && !observe(i, results[i]) {
			break
		}
	}
	return results, errs, done
}
