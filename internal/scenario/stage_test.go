package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitJoined blocks until n goroutines started by the calling test are
// inside a single-flight entry's sync.Once: the one executing the stage
// body and those waiting on it.
func waitJoined(t *testing.T, n int) {
	t.Helper()
	creator := "created by repro/internal/scenario." + t.Name()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		got := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "(*Once).doSlow") && strings.Contains(g, creator) {
				got++
			}
		}
		if got >= n {
			return
		}
	}
	t.Fatalf("timed out waiting for %d lookups inside the single-flight entry", n)
}

// TestJoinedFailedStageIsNotAMemoHit is the regression test for a
// joined lookup counted as a memo hit before its outcome was known: a
// caller that joins an in-flight stage which then fails receives the
// error, so it must not count as served from the memo.
func TestJoinedFailedStageIsNotAMemoHit(t *testing.T) {
	rn := NewRunner(1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // a failed wait must not strand the lookups
	var execs atomic.Int32
	body := func() ([]int, error) {
		execs.Add(1)
		<-release
		return nil, errors.New("stage failed")
	}
	kind := jsonKind[[]int]("profile", profileRuns)
	errs := make(chan error, 2)
	lookup := func() {
		_, err := stage(context.Background(), rn, kind, "joined", body)
		errs <- err
	}
	go lookup()
	waitJoined(t, 1) // the first lookup is executing the body
	go lookup()
	waitJoined(t, 2) // the second has joined its single-flight entry
	unblock()
	for range 2 {
		if err := <-errs; err == nil || err.Error() != "stage failed" {
			t.Errorf("both lookups must observe the stage's error, got %v", err)
		}
	}
	st := rn.Stats()
	if st.MemoHits != 0 || st.StageErrors != 1 || st.StageRuns != 1 || execs.Load() != 1 {
		t.Errorf("want one failed execution and no memo hit, got %d executions, %+v", execs.Load(), st)
	}
}

// TestCounterTableCoversStats checks the counter table maps every Stats
// field exactly once, that Delta and Runner.Stats loop over all of it,
// and pins the runner_stats JSON key set that /healthz and the sweep and
// explore aggregates publish.
func TestCounterTableCoversStats(t *testing.T) {
	var s Stats
	for c, p := range s.fields() {
		*p = uint64(c) + 1
	}
	v := reflect.ValueOf(s)
	if v.NumField() != int(numCounters) {
		t.Errorf("Stats has %d fields, the counter table %d", v.NumField(), numCounters)
	}
	seen := map[uint64]string{}
	for i := 0; i < v.NumField(); i++ {
		name, n := v.Type().Field(i).Name, v.Field(i).Uint()
		if n == 0 {
			t.Errorf("Stats.%s is not in the counter table", name)
		} else if prev, dup := seen[n]; dup {
			t.Errorf("counter %d maps to both Stats.%s and Stats.%s", n-1, prev, name)
		}
		seen[n] = name
	}

	if d := s.Delta(s); d != (Stats{}) {
		t.Errorf("a snapshot's delta against itself must be zero, got %+v", d)
	}
	if d := s.Delta(Stats{}); d != s {
		t.Errorf("a delta against the zero snapshot must be the identity, got %+v want %+v", d, s)
	}

	rn := NewRunner(1)
	for c := range rn.counts {
		if counter(c) != quarantined { // kept by the durable store, not the runner
			rn.counts[c].Store(uint64(c) + 1)
		}
	}
	want := s
	want.Quarantined = 0
	if got := rn.Stats(); got != want {
		t.Errorf("Runner.Stats does not read the whole table:\n got %+v\nwant %+v", got, want)
	}

	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]uint64
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	wantKeys := []string{
		"disk_hits", "disk_misses", "memo_hits", "optimize_runs", "profile_runs",
		"quarantined", "run_runs", "stage_errors", "stage_panics", "stage_runs",
		"store_errors", "trace_bytes", "trace_hits", "trace_runs",
	}
	if !slices.Equal(keys, wantKeys) {
		t.Errorf("runner_stats keys drifted:\n got %v\nwant %v", keys, wantKeys)
	}
}
