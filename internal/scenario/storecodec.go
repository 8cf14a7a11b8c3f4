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

// encodeStage serializes one completed stage value ([]profile.Curve,
// *core.OptimizeResult, *core.Result or *tracefile.Trace, per kind)
// into its document. A trace's document is t.Bytes(), not a copy; the
// wire golden in internal/tracefile pins it.
func encodeStage(kind string, v interface{}) ([]byte, error) {
	if kind == stageTrace {
		t, ok := v.(*tracefile.Trace)
		if !ok {
			return nil, fmt.Errorf("scenario: encoding trace stage: unexpected value %T", v)
		}
		return t.Bytes(), nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding %s stage: %w", kind, err)
	}
	doc, err := json.Marshal(stageDoc{Version: StageDocVersion, Kind: kind, Data: data})
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding %s stage: %w", kind, err)
	}
	return doc, nil
}

// decodeStage deserializes a stage document back into the live value
// the memo serves. An envelope's kind and version must match, and a
// trace document must decode as a CMTR container: any mismatch is an
// error the runner treats as a cache miss, not as corruption (the store
// layer already verified the bytes' integrity).
func decodeStage(kind string, b []byte) (interface{}, error) {
	if kind == stageTrace {
		// The injection point makes corrupt-trace handling provable: an
		// injected error here must read as a miss and recapture, exactly
		// like a real CRC failure below.
		if err := faults.Point(faults.SiteTraceRead); err != nil {
			return nil, fmt.Errorf("scenario: decoding trace stage: %w", err)
		}
		t, err := tracefile.Decode(b)
		if err != nil {
			return nil, fmt.Errorf("scenario: decoding trace stage: %w", err)
		}
		return t, nil
	}
	var doc stageDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("scenario: decoding %s stage: %w", kind, err)
	}
	if doc.Version != StageDocVersion {
		return nil, fmt.Errorf("scenario: %s stage document version %d (want %d)", kind, doc.Version, StageDocVersion)
	}
	if doc.Kind != kind {
		return nil, fmt.Errorf("scenario: stage document is %q, not %q", doc.Kind, kind)
	}
	var v interface{}
	switch kind {
	case stageProfile:
		var curves []profile.Curve
		if err := json.Unmarshal(doc.Data, &curves); err != nil {
			return nil, fmt.Errorf("scenario: decoding %s stage: %w", kind, err)
		}
		v = curves
	case stageOptimize:
		opt := &core.OptimizeResult{}
		if err := json.Unmarshal(doc.Data, opt); err != nil {
			return nil, fmt.Errorf("scenario: decoding %s stage: %w", kind, err)
		}
		v = opt
	case stageRun:
		res := &core.Result{}
		if err := json.Unmarshal(doc.Data, res); err != nil {
			return nil, fmt.Errorf("scenario: decoding %s stage: %w", kind, err)
		}
		v = res
	default:
		return nil, fmt.Errorf("scenario: unknown stage kind %q", kind)
	}
	return v, nil
}
