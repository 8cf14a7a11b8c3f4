package sweep

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/scenario"
)

// fieldDef describes one sweepable scenario field: how to decode an
// axis value and set it on a spec. rangeable marks integer fields that
// accept an Axis.Range. target names the scenario path the field
// writes (defaults to the field name itself); two axes sharing a
// target would overwrite each other and are rejected by Validate —
// the legacy platform.l2.* spellings target the same hierarchy paths
// as platform.hierarchy.l2.*, and a kb axis targets its level's sets,
// so sweeping any aliased pair at once cannot silently mislabel the
// geometry.
type fieldDef struct {
	rangeable bool
	target    string
	apply     func(*scenario.Scenario, json.RawMessage) error
}

// lookupField resolves an axis field name: the static registry first,
// then the dynamic platform.hierarchy.<level>.<prop> paths.
func lookupField(name string) (fieldDef, bool) {
	if fd, ok := fields[name]; ok {
		return fd, true
	}
	return hierarchyField(name)
}

// targetOf resolves the scenario path an axis field writes.
func targetOf(field string) string {
	if fd, ok := lookupField(field); ok && fd.target != "" {
		return fd.target
	}
	return field
}

// levelProp splits a geometry axis into its hierarchy level and
// property, accepting both the legacy platform.l{1,2}.<prop> spelling
// and the generic platform.hierarchy.<level>.<prop> one. ok is false
// for non-geometry axes.
func levelProp(field string) (level, prop string, ok bool) {
	var rest string
	switch {
	case strings.HasPrefix(field, "platform.hierarchy."):
		rest = field[len("platform.hierarchy."):]
	case strings.HasPrefix(field, "platform.l"):
		rest = field[len("platform."):]
	default:
		return "", "", false
	}
	i := strings.IndexByte(rest, '.')
	if i <= 0 || i == len(rest)-1 {
		return "", "", false
	}
	return rest[:i], rest[i+1:], true
}

// field builds the fieldDef of an axis whose values decode strictly
// into a T and are written onto a spec by set. rangeable marks integer
// fields that accept an Axis.Range; target is the scenario path written
// ("" = the field name itself).
func field[T any](rangeable bool, target string, set func(*scenario.Scenario, T) error) fieldDef {
	return fieldDef{rangeable: rangeable, target: target, apply: func(s *scenario.Scenario, raw json.RawMessage) error {
		var v T
		if err := scenario.DecodeStrict(raw, &v); err != nil {
			return fmt.Errorf("decoding value %s: %w", raw, err)
		}
		return set(s, v)
	}}
}

// platformOf gives an axis its own writable platform spec: points share
// the base scenario by value, but Platform is a pointer — without the
// copy every point of the sweep would scribble on the same geometry.
func platformOf(s *scenario.Scenario) *scenario.PlatformSpec {
	var p scenario.PlatformSpec
	if s.Platform != nil {
		p = *s.Platform
	}
	s.Platform = &p
	return s.Platform
}

// hierarchyOf gives an axis a writable hierarchy block, materialized
// fully explicit from the spec's implied topology (defaults, the block
// if any, and the l1/l2 alias overlays — which are then cleared, having
// been baked in: the aliases are the outermost overlay at
// materialization time, so leaving them set would silently override the
// axis's writes). The block's level slice is fresh — points never share
// it.
func hierarchyOf(p *scenario.PlatformSpec) (*scenario.HierarchySpec, error) {
	pc, err := p.Config()
	if err != nil {
		return nil, err
	}
	full := scenario.PlatformSpecOf(pc)
	p.Hierarchy = full.Hierarchy
	p.L1, p.L2 = scenario.CacheSpec{}, scenario.CacheSpec{}
	p.L1HitLatency, p.L2HitLatency = nil, nil
	return p.Hierarchy, nil
}

// levelOf finds a named level in the (materialized) hierarchy block.
func levelOf(p *scenario.PlatformSpec, name string) (*scenario.LevelSpec, error) {
	hs, err := hierarchyOf(p)
	if err != nil {
		return nil, err
	}
	for i := range hs.Levels {
		if hs.Levels[i].Name == name {
			return &hs.Levels[i], nil
		}
	}
	names := make([]string, len(hs.Levels))
	for i := range hs.Levels {
		names[i] = hs.Levels[i].Name
	}
	return nil, fmt.Errorf("hierarchy has no level %q (levels: %v)", name, names)
}

// hierarchyField builds the dynamic fieldDef for a level-path axis:
// platform.hierarchy.<level>.{sets,ways,line_size,hit_latency,kb}.
// Legacy platform.l1/l2 axes resolve to the same targets through the
// static registry.
func hierarchyField(name string) (fieldDef, bool) {
	if !strings.HasPrefix(name, "platform.hierarchy.") {
		return fieldDef{}, false
	}
	level, prop, ok := levelProp(name)
	if !ok {
		return fieldDef{}, false
	}
	target := "platform.hierarchy." + level + "." + prop
	switch prop {
	case "sets":
		return levelField(level, target, func(l *scenario.LevelSpec, v *int) { l.Sets = v }), true
	case "ways":
		return levelField(level, target, func(l *scenario.LevelSpec, v *int) { l.Ways = v }), true
	case "line_size":
		return levelField(level, target, func(l *scenario.LevelSpec, v *int) { l.LineSize = v }), true
	case "hit_latency":
		return levelField(level, target, func(l *scenario.LevelSpec, v *uint64) { l.HitLatency = v }), true
	case "kb":
		return kbField(level), true
	}
	return fieldDef{}, false
}

// levelField builds the rangeable axis of one property of a named
// hierarchy level.
func levelField[T any](level, target string, set func(*scenario.LevelSpec, *T)) fieldDef {
	return field(true, target, func(s *scenario.Scenario, v T) error {
		l, err := levelOf(platformOf(s), level)
		if err != nil {
			return err
		}
		set(l, &v)
		return nil
	})
}

// kbField builds a level's capacity axis (see applyKB); it writes, and
// so conflicts with, the level's sets.
func kbField(level string) fieldDef {
	return field(true, "platform.hierarchy."+level+".sets", func(s *scenario.Scenario, kb int) error {
		return applyKB(s, level, kb)
	})
}

// applyKB sets a level's total capacity in KiB, deriving the set count
// from the level's effective associativity and line size (the defaults
// unless the base or an earlier axis overrode them) — the natural
// spelling of the paper's candidate-size exploration. Axes apply in
// declaration order, and Validate rejects a ways/line_size axis of the
// same level declared after its kb axis, so the derivation can never
// silently disagree with the label.
func applyKB(s *scenario.Scenario, level string, kb int) error {
	if kb <= 0 {
		return fmt.Errorf("%s capacity %d KiB not positive", level, kb)
	}
	p := platformOf(s)
	l, err := levelOf(p, level)
	if err != nil {
		return err
	}
	// levelOf materializes the block fully explicit (hierarchyOf), so
	// the effective geometry is right on the level spec.
	ways, line := *l.Ways, *l.LineSize
	lineBytes := ways * line
	bytes := kb << 10
	if lineBytes <= 0 || bytes%lineBytes != 0 {
		return fmt.Errorf("%s capacity %d KiB not divisible by ways×line_size = %d bytes", level, kb, lineBytes)
	}
	sets := bytes / lineBytes
	l.Sets = &sets
	return nil
}

// fields is the static sweepable-field registry. Keys are the axis
// "field" spellings; dotted paths mirror the scenario spec's JSON
// nesting. The platform.l1/l2 entries are the legacy aliases of the
// platform.hierarchy.* paths and share their targets.
var fields = map[string]fieldDef{
	"workload":       field(false, "", func(s *scenario.Scenario, v string) error { s.Workload = v; return nil }),
	"scale":          field(false, "", func(s *scenario.Scenario, v string) error { s.Scale = v; return nil }),
	"solver":         field(false, "", func(s *scenario.Scenario, v string) error { s.Solver = v; return nil }),
	"partition":      field(false, "", func(s *scenario.Scenario, v string) error { s.Partition = v; return nil }),
	"profile_engine": field(false, "", func(s *scenario.Scenario, v string) error { s.ProfileEngine = v; return nil }),
	"profile_level":  field(false, "", func(s *scenario.Scenario, v string) error { s.ProfileLevel = v; return nil }),
	"exec_engine":    field(false, "", func(s *scenario.Scenario, v string) error { s.ExecEngine = v; return nil }),
	"alloc_workload": field(false, "", func(s *scenario.Scenario, v string) error { s.AllocWorkload = v; return nil }),
	"migration":      field(false, "", func(s *scenario.Scenario, v bool) error { s.Migration = v; return nil }),
	"seed":           field(true, "", func(s *scenario.Scenario, v uint64) error { s.Seed = v; return nil }),
	"runs":           field(true, "", func(s *scenario.Scenario, v int) error { s.Runs = v; return nil }),
	"sizes":          field(false, "", func(s *scenario.Scenario, v []int) error { s.Sizes = v; return nil }),

	"platform.num_cpus": field(true, "", func(s *scenario.Scenario, v int) error { platformOf(s).NumCPUs = &v; return nil }),
	"platform.base_cpi": field(false, "", func(s *scenario.Scenario, v float64) error { platformOf(s).BaseCPI = &v; return nil }),

	"platform.l1.sets":      aliasLevelInt("l1", "sets", func(c *scenario.CacheSpec, v *int) { c.Sets = v }),
	"platform.l1.ways":      aliasLevelInt("l1", "ways", func(c *scenario.CacheSpec, v *int) { c.Ways = v }),
	"platform.l1.line_size": aliasLevelInt("l1", "line_size", func(c *scenario.CacheSpec, v *int) { c.LineSize = v }),
	"platform.l2.sets":      aliasLevelInt("l2", "sets", func(c *scenario.CacheSpec, v *int) { c.Sets = v }),
	"platform.l2.ways":      aliasLevelInt("l2", "ways", func(c *scenario.CacheSpec, v *int) { c.Ways = v }),
	"platform.l2.line_size": aliasLevelInt("l2", "line_size", func(c *scenario.CacheSpec, v *int) { c.LineSize = v }),
	"platform.l2_hit_latency": field(true, "platform.hierarchy.l2.hit_latency", func(s *scenario.Scenario, v uint64) error {
		platformOf(s).L2HitLatency = &v
		return nil
	}),

	// platform.l2.kb is the legacy spelling of the shared level's
	// capacity; platform.hierarchy.<level>.kb generalizes it to any
	// level of any topology.
	"platform.l2.kb": kbField("l2"),
}

// aliasLevelInt builds the legacy l1/l2 alias setter: it writes the
// legacy CacheSpec field (which overlays the equally-named hierarchy
// level) and shares the hierarchy path's conflict target.
func aliasLevelInt(level, prop string, set func(*scenario.CacheSpec, *int)) fieldDef {
	return field(true, "platform.hierarchy."+level+"."+prop, func(s *scenario.Scenario, v int) error {
		p := platformOf(s)
		cs := &p.L1
		if level == "l2" {
			cs = &p.L2
		}
		set(cs, &v)
		return nil
	})
}

// Fields lists the sweepable field names, sorted, with the dynamic
// level-path pattern appended.
func Fields() []string {
	names := make([]string, 0, len(fields)+1)
	for n := range fields {
		names = append(names, n)
	}
	sort.Strings(names)
	return append(names, "platform.hierarchy.<level>.{sets,ways,line_size,hit_latency,kb}")
}
