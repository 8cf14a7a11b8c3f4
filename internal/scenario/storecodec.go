package scenario

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/profile"
	"repro/internal/tracefile"
)

// Stage results are persisted as versioned documents that travel
// through any store.Store — the in-memory LRU and the on-disk CAS hold
// exactly the same bytes, so a result computed by one process is
// byte-identical to the same result reloaded by another.
//
// Profile, optimize and run results are a small JSON envelope naming
// the stage kind and wire version around the stage value's canonical
// JSON (encoding/json round-trips float64 exactly and orders map keys
// deterministically). StageDocVersion is bumped on any incompatible
// change to those value types; documents of another version decode
// with an error, which the runner treats as a miss — old records are
// recomputed and overwritten, never misread.
//
// A trace document is the trace's CMTR container itself, the bytes
// tracefile.Decode reads: it carries its own magic, format version and
// CRC-32C, and the memory store shares the one buffer with the decoded
// *tracefile.Trace. A trace record from before this layout (base64
// inside the JSON envelope) fails the magic check, reads as a miss and
// is recaptured and overwritten once.
const StageDocVersion = 1

// stageDoc is the persisted stage-result envelope.
type stageDoc struct {
	Version int             `json:"v"`
	Kind    string          `json:"kind"`
	Data    json.RawMessage `json:"data"`
}

// stageKind declares one pipeline stage kind: its name (the memo-key
// prefix and the stage.<name> fault site), the counter bumped when the
// stage executes, the extra counters bumped when a lookup is served
// without executing, and the codec of its persisted document. read,
// when set, runs before every stored value is served — decoded or not —
// and fails it exactly like a corrupt document.
type stageKind[T any] struct {
	name   string
	runs   counter
	hits   []counter
	encode func(T) ([]byte, error)
	decode func([]byte) (T, error)
	read   func() error
}

// The stage kinds of the pipeline, each declared once.
var (
	// A trace's document is t.Bytes(), not a copy; the wire golden in
	// internal/tracefile pins it. The trace.read injection point makes
	// corrupt-trace handling provable: an injected error must read as a
	// miss and recapture, exactly like a real CRC failure.
	traceKind = stageKind[*tracefile.Trace]{
		name: "trace", runs: traceRuns, hits: []counter{traceHits},
		encode: func(t *tracefile.Trace) ([]byte, error) { return t.Bytes(), nil },
		decode: tracefile.Decode,
		read:   func() error { return faults.Point(faults.SiteTraceRead) },
	}
	profileKind  = jsonKind[[]profile.Curve]("profile", profileRuns)
	optimizeKind = jsonKind[*core.OptimizeResult]("optimize", optimizeRuns)
	runKind      = jsonKind[*core.Result]("run", runRuns)
)

// jsonKind declares a stage kind persisted as the versioned JSON
// envelope. A document's version and kind must match: a mismatch is an
// error the runner treats as a cache miss, not as corruption (the store
// layer already verified the bytes' integrity).
func jsonKind[T any](name string, runs counter) stageKind[T] {
	return stageKind[T]{
		name: name, runs: runs,
		encode: func(v T) ([]byte, error) {
			data, err := json.Marshal(v)
			if err != nil {
				return nil, err
			}
			return json.Marshal(stageDoc{Version: StageDocVersion, Kind: name, Data: data})
		},
		decode: func(b []byte) (v T, err error) {
			var doc stageDoc
			if err := json.Unmarshal(b, &doc); err != nil {
				return v, err
			}
			if doc.Version != StageDocVersion {
				return v, fmt.Errorf("document version %d (want %d)", doc.Version, StageDocVersion)
			}
			if doc.Kind != name {
				return v, fmt.Errorf("document is a %q stage", doc.Kind)
			}
			err = json.Unmarshal(doc.Data, &v)
			return v, err
		},
	}
}

// checkRead runs the kind's read hook, if any.
func (k stageKind[T]) checkRead() error {
	if k.read == nil {
		return nil
	}
	return k.read()
}

// load deserializes a stored document back into the live value the
// memo serves.
func (k stageKind[T]) load(b []byte) (T, error) {
	err := k.checkRead()
	var v T
	if err == nil {
		v, err = k.decode(b)
	}
	if err != nil {
		return v, fmt.Errorf("scenario: decoding %s stage: %w", k.name, err)
	}
	return v, nil
}
