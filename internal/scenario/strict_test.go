package scenario

import (
	"strings"
	"testing"
)

// TestResolveRejectsUnknownFields is the regression test for the
// silent-typo bug: a misspelled field must fail loudly (naming the
// offending field) instead of decoding to a default-valued spec that
// runs the wrong experiment.
func TestResolveRejectsUnknownFields(t *testing.T) {
	cases := []struct {
		name  string
		raw   string
		field string
	}{
		{"top-level typo", `{"workload":"mpeg2","migartion":true}`, `"migartion"`},
		{"geometry shorthand that does not exist", `{"workload":"mpeg2","platform":{"l2_kb":512}}`, `"l2_kb"`},
		{"nested cache typo", `{"workload":"mpeg2","platform":{"l2":{"szets":4096}}}`, `"szets"`},
		{"typo on a base overlay", `{"base":"app1","sede":7}`, `"sede"`},
	}
	lookup := func(name string) (Scenario, bool) {
		if name == "app1" {
			return Scenario{Workload: "2jpeg+canny"}, true
		}
		return Scenario{}, false
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Resolve([]byte(c.raw), lookup)
			if err == nil {
				t.Fatalf("typo'd spec %s must not decode", c.raw)
			}
			if !strings.Contains(err.Error(), c.field) {
				t.Errorf("error %q does not name the offending field %s", err, c.field)
			}
		})
	}

	// Valid specs still decode, with and without a base.
	if s, err := Resolve([]byte(`{"workload":"mpeg2","migration":true}`), nil); err != nil || !s.Migration {
		t.Errorf("valid spec rejected: %+v, %v", s, err)
	}
}

// TestResolveRejectsTrailingData checks concatenated documents fail
// instead of silently dropping everything after the first.
func TestResolveRejectsTrailingData(t *testing.T) {
	if _, err := Resolve([]byte(`{"workload":"mpeg2"} {"workload":"jpeg1-only"}`), nil); err == nil {
		t.Error("trailing data after the spec must error")
	}
}

// TestSplitSpecsStrictBatchDocument checks the batch wrapper itself is
// strict: a typo'd "scenarios" sibling must error, not vanish.
func TestSplitSpecsStrictBatchDocument(t *testing.T) {
	if _, err := SplitSpecs([]byte(`{"scenarios":[{"workload":"mpeg2"}],"workres":4}`)); err == nil ||
		!strings.Contains(err.Error(), `"workres"`) {
		t.Errorf("unknown batch-document field must error naming the field, got %v", err)
	}

	// A batch that names no scenarios must fail loudly, not run nothing.
	for _, doc := range []string{`{"scenarios":null}`, `{"scenarios":[]}`, `[]`} {
		if _, err := SplitSpecs([]byte(doc)); err == nil {
			t.Errorf("empty batch document %s must error", doc)
		}
	}

	raws, err := SplitSpecs([]byte(`{"scenarios":[{"workload":"mpeg2"},{"workload":"jpeg1-only"}]}`))
	if err != nil || len(raws) != 2 {
		t.Errorf("valid batch document rejected: %d specs, %v", len(raws), err)
	}
	raws, err = SplitSpecs([]byte(` [{"workload":"mpeg2"}]`))
	if err != nil || len(raws) != 1 {
		t.Errorf("bare array rejected: %d specs, %v", len(raws), err)
	}
	raws, err = SplitSpecs([]byte(`{"workload":"mpeg2"}`))
	if err != nil || len(raws) != 1 {
		t.Errorf("single spec rejected: %d specs, %v", len(raws), err)
	}
	// A typo'd single spec splits fine (it is one spec) — Resolve is
	// where its fields are validated.
	if _, err := SplitSpecs([]byte(`{"scenarois":[{"workload":"mpeg2"}]}`)); err == nil {
		// "scenarois" is not a Scenario field either, so this document
		// must die in Resolve; SplitSpecs may pass it through.
		if _, err := Resolve([]byte(`{"scenarois":[{"workload":"mpeg2"}]}`), nil); err == nil ||
			!strings.Contains(err.Error(), `"scenarois"`) {
			t.Errorf("typo'd batch key must fail somewhere with the field named, got %v", err)
		}
	}
}

// TestDecodeStrictRejectsTraceMode checks the retired trace-mode knob is
// an unknown field: replay is the runner's only workload source, and a
// spec still asking for live execution fails naming the field instead of
// silently running replay.
func TestDecodeStrictRejectsTraceMode(t *testing.T) {
	var s Scenario
	err := DecodeStrict([]byte(`{"workload":"jpeg1-only","trace":"live"}`), &s)
	if err == nil || !strings.Contains(err.Error(), `"trace"`) {
		t.Errorf("a spec carrying trace must be rejected naming the field, got %v", err)
	}
}
