package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/store"
	"repro/internal/tracefile"
	"repro/internal/workloads"
)

// diskRunner returns a runner persisting to dir through the resilient
// wrapper, exactly as the CLI's -store-dir wiring builds it.
func diskRunner(t *testing.T, workers int, dir string) *Runner {
	t.Helper()
	ds, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	return NewRunnerWithStore(workers, store.NewResilient(ds, store.ResilientOptions{
		Backoff: time.Microsecond,
	}))
}

// fullSpec exercises every stage kind: the optimized partition runs the
// profile and optimize legs (the profile publishing the shared
// baseline) and the partitioned run — four distinct durable records
// besides the trace.
func fullSpec() Scenario {
	return Scenario{Workload: "jpeg1-only", Scale: "small", Runs: 1, Partition: PartitionOptimized}
}

// TestRunnerWarmRestartFromDisk is the restart contract: a fresh runner
// over a directory populated by an earlier one re-executes *zero*
// stages — every stage of every kind is served from disk — and returns
// a bit-identical result document.
func TestRunnerWarmRestartFromDisk(t *testing.T) {
	dir := t.TempDir()

	cold := diskRunner(t, 2, dir)
	r1, err := cold.Run(fullSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := cold.Stats()
	// The shared baseline is the profile's repetition 0, published by
	// the profile stage rather than simulated as a stage of its own.
	if st.StageRuns != 4 || st.RunRuns != 1 {
		t.Fatalf("cold run must execute 4 stages (trace, profile, optimize, partitioned run), got %+v", st)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm := diskRunner(t, 2, dir) // a new process, same directory
	defer warm.Close()
	r2, err := warm.Run(fullSpec())
	if err != nil {
		t.Fatal(err)
	}
	st = warm.Stats()
	if st.StageRuns != 0 || st.ProfileRuns != 0 || st.OptimizeRuns != 0 || st.RunRuns != 0 {
		t.Errorf("warm restart must re-execute nothing, got %+v", st)
	}
	// 3 hits, not 4: the profile stage is only ever looked up from
	// inside the optimize stage's closure, which the disk hit skips.
	if st.DiskHits != 3 {
		t.Errorf("want 3 stages served from disk, got %+v", st)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Errorf("disk-served result differs from the computed one\n%s\nvs\n%s", b1, b2)
	}
}

// TestRunnerTornWriteRecovery injects a torn write (a record cut
// mid-payload that reported success — the crash-mid-flush shape), then
// restarts: the corrupt record must be quarantined and recomputed, the
// result must be correct, and the recompute must heal the slot so a
// third runner warm-hits it.
func TestRunnerTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec() // profile-only: exactly one stage, one record

	writer := diskRunner(t, 1, dir)
	// Put ordinal 0 is the trace record and 1 the shared baseline the
	// profile stage publishes; ordinal 2 tears the profile record the
	// test reads back.
	restore := faults.Activate(faults.New(7).TruncateAt(faults.SiteStorePut, 2))
	r1, err := writer.Run(spec)
	restore()
	if err != nil {
		t.Fatalf("a torn durable write must not fail the scenario: %v", err)
	}
	writer.Close()

	// "Restart": the torn record is detected on read, quarantined, and
	// transparently recomputed.
	reader := diskRunner(t, 1, dir)
	r2, err := reader.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := reader.Stats()
	if st.Quarantined != 1 {
		t.Errorf("the torn record must be quarantined, got %+v", st)
	}
	// 1 disk hit: the recompute's closure serves the (intact) trace
	// record from disk instead of recapturing.
	if st.DiskHits != 1 || st.StageRuns != 1 || st.TraceRuns != 0 {
		t.Errorf("the torn record must be recomputed, not served: %+v", st)
	}
	b1, _ := json.Marshal(r1.Curves)
	b2, _ := json.Marshal(r2.Curves)
	if string(b1) != string(b2) {
		t.Error("recomputed result differs from the original")
	}
	reader.Close()

	// The recompute overwrote the slot: a third runner warm-hits.
	healed := diskRunner(t, 1, dir)
	defer healed.Close()
	if _, err := healed.Run(spec); err != nil {
		t.Fatal(err)
	}
	st = healed.Stats()
	if st.StageRuns != 0 || st.DiskHits != 1 {
		t.Errorf("the healed slot must serve from disk, got %+v", st)
	}

	// The quarantined evidence is preserved on disk.
	entries, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	recs := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".rec") {
			recs++
		}
	}
	if recs != 1 {
		t.Errorf("want 1 quarantined record on disk, found %d", recs)
	}
}

// TestRunnerDegradesToMemoryOnly is the broken-volume contract: with
// every durable read AND write failing, the breaker trips the store
// into degraded mode and every scenario still completes correctly from
// the memory layer — durable failures cost durability, never results.
func TestRunnerDegradesToMemoryOnly(t *testing.T) {
	rn := diskRunner(t, 2, t.TempDir())
	defer rn.Close()

	restore := faults.Activate(faults.New(7).
		ErrorAlways(faults.SiteStoreGet).
		ErrorAlways(faults.SiteStorePut))
	defer restore()

	// Distinct specs force fresh stages (store traffic); a repeat at the
	// end must still memo-hit from the memory layer.
	specs := []Scenario{smallSpec(), fullSpec(), smallSpec()}
	results := rn.RunBatch(specs)
	for i, r := range results {
		if r.Error != "" {
			t.Fatalf("scenario %d failed under a dead disk: %s", i, r.Error)
		}
	}
	if mode := rn.StoreMode(); mode != "degraded" {
		t.Errorf("StoreMode = %q, want degraded", mode)
	}
	st := rn.Stats()
	if st.StoreErrors == 0 {
		t.Errorf("durable failures must be counted, got %+v", st)
	}
	if st.MemoHits == 0 {
		t.Errorf("the memory layer must keep serving repeats, got %+v", st)
	}

	// Identical rerun: everything from memory, no stage re-executes.
	before := rn.Stats().StageRuns
	for i, r := range rn.RunBatch(specs) {
		if r.Error != "" {
			t.Fatalf("degraded-mode rerun scenario %d failed: %s", i, r.Error)
		}
	}
	if after := rn.Stats().StageRuns; after != before {
		t.Errorf("degraded-mode rerun re-executed %d stages", after-before)
	}
}

// TestStageDocEnvelopeGolden pins the persisted stage-document envelope:
// records written by one build are addressed and decoded by later
// builds, so the envelope's field names, order, and version byte must
// not drift without a StageDocVersion bump.
func TestStageDocEnvelopeGolden(t *testing.T) {
	b, err := jsonKind[[]int]("profile", profileRuns).encode([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"v":1,"kind":"profile","data":[1,2]}`
	if string(b) != want {
		t.Fatalf("stage envelope drifted:\n got %s\nwant %s", b, want)
	}
}

// TestStageDocVersionAndKindMismatch checks the decode guards: a
// foreign version or a kind swap is an error (the runner treats it as a
// miss and recomputes), never a silently misread value.
func TestStageDocVersionAndKindMismatch(t *testing.T) {
	if _, err := profileKind.load([]byte(`{"v":99,"kind":"profile","data":[]}`)); err == nil {
		t.Error("future-version document must not decode")
	}
	if _, err := optimizeKind.load([]byte(`{"v":1,"kind":"profile","data":[]}`)); err == nil {
		t.Error("kind-swapped document must not decode")
	}
	if _, err := profileKind.load([]byte(`not json`)); err == nil {
		t.Error("garbage must not decode")
	}
}

// TestStageDocRoundTrip proves decode(encode(v)) over real stage values
// is lossless: a result served from a stored document is bit-identical
// to the freshly computed one (the warm-restart test proves the same
// end to end; this isolates the codec).
func TestStageDocRoundTrip(t *testing.T) {
	rn := NewRunner(1)
	spec := fullSpec()
	n, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	curves, err := rn.profileStage(t.Context(), n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := profileKind.encode(curves)
	if err != nil {
		t.Fatal(err)
	}
	v, err := profileKind.load(b)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := json.Marshal(curves)
	back, _ := json.Marshal(v)
	if string(orig) != string(back) {
		t.Errorf("profile stage value did not round-trip:\n%s\nvs\n%s", orig, back)
	}
}

// captureSmall records smallSpec's workload the way the trace stage
// does.
func captureSmall(t *testing.T) *tracefile.Trace {
	t.Helper()
	n, err := smallSpec().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.Build(n.Workload, n.buildConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracefile.Capture(w, tracefile.Meta{Workload: n.Workload, Scale: n.Scale, Seed: n.Seed})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTraceStageDocIsTheContainer pins the trace document: it is the
// trace's own CMTR container, handed to the stores without a copy or an
// allocation, and it decodes back to the same trace.
func TestTraceStageDocIsTheContainer(t *testing.T) {
	tr := captureSmall(t)
	var doc []byte
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if doc, err = traceKind.encode(tr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("encoding a trace stage allocates %v times, want 0", allocs)
	}
	if len(doc) != tr.Size() || &doc[0] != &tr.Bytes()[0] {
		t.Error("the trace document must be t.Bytes() itself")
	}
	back, err := traceKind.load(doc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Totals != tr.Totals {
		t.Errorf("decoded trace totals %+v, want %+v", back.Totals, tr.Totals)
	}
}

// TestLegacyTraceEnvelopeRecaptures covers a store written before trace
// documents became raw containers: a trace record of base64 inside the
// JSON envelope reads as a miss, is recaptured once and overwritten
// with the container, and the scenario's result does not change.
func TestLegacyTraceEnvelopeRecaptures(t *testing.T) {
	dir := t.TempDir()
	n, err := smallSpec().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key := traceKind.name + "|" + traceStageKey(n)
	tr := captureSmall(t)
	data, err := json.Marshal(tr.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := json.Marshal(stageDoc{Version: 1, Kind: traceKind.name, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(legacy), `{"v":1,"kind":"trace","data":"Q01UUg`) {
		t.Fatalf("not a legacy trace record: %.40s", legacy)
	}
	ds, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put(key, legacy); err != nil {
		t.Fatal(err)
	}
	ds.Close()

	rn := diskRunner(t, 1, dir)
	res, err := rn.Run(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	rn.Close()
	if st := rn.Stats(); st.TraceRuns != 1 || st.StoreErrors != 1 || st.Quarantined != 0 {
		t.Errorf("a legacy trace record must read as one miss and one recapture, got %+v", st)
	}

	ds, err = store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	rec, err := ds.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, tr.Bytes()) {
		t.Errorf("the legacy record was not overwritten with the container (%d bytes, starts %.8q)", len(rec), rec)
	}

	clean, err := NewRunner(1).Run(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(clean)
	if string(a) != string(b) {
		t.Errorf("result over a legacy store differs from a clean run\n%s\nvs\n%s", a, b)
	}
}
