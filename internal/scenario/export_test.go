package scenario

import (
	"fmt"

	"repro/internal/core"
)

// SharedFromProfile exposes sharedFromProfile to the external tests: it
// normalizes s first, exactly like the runner does before executing it,
// and fails if the field test disagrees with the key comparison it
// stands for.
func SharedFromProfile(s Scenario) (bool, error) {
	n, err := s.Normalize()
	if err != nil {
		return false, err
	}
	same := baselineKey(allocSpec(n)) == runStageKey(n, core.Shared, "")
	if got := sharedFromProfile(n); got != same {
		return false, fmt.Errorf("sharedFromProfile = %v, but the baseline and shared-run keys equal: %v", got, same)
	}
	return same, nil
}
