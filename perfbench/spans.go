package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Root span layers. Every other span names the module (layer) whose
// public function it wraps.
const (
	layerOp     = "op"     // one end-to-end operation of a workload
	layerWalk   = "walk"   // the layer walk: one representative op, call by call
	layerRepeat = "repeat" // repeated micro-measurements (kept out of self times)
)

// span is one timed call. Spans of one operation share Op; Parent is 0
// for the operation's root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so an untraced run pays only a nil check per call.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	ops   int64
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// op opens the root span of a new operation and returns the operation
// and root span IDs.
func (r *recorder) op(layer, name string) (op, root int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	r.ops++
	op = r.ops
	r.mu.Unlock()
	return op, r.begin(op, 0, layer, name)
}

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(op, parent int64, layer, name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Start: int64(time.Since(r.t0))})
	return id
}

// finish closes the span opened by begin.
func (r *recorder) finish(id int64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = int64(time.Since(r.t0))
	r.mu.Unlock()
}

// call wraps f in a span and returns f's wall time, which the caller
// uses as the measurement whether or not spans are recorded.
func (r *recorder) call(op, parent int64, layer, name string, f func() error) (time.Duration, error) {
	id := r.begin(op, parent, layer, name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	r.finish(id)
	return d, err
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON, one span per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi]. Concurrent children overlap; their union is what they cover.
func covered(iv [][2]int64, lo, hi int64) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return time.Duration(total)
}

// children groups spans by parent ID.
func children(spans []span) map[int64][][2]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	return kids
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of it its child spans cover. Only the
// operations under roots of the given layers count.
func selfTimes(spans []span, roots ...string) map[string]time.Duration {
	counted := rootOps(spans, roots)
	kids := children(spans)
	self := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Parent == 0 || !counted[s.Op] {
			continue
		}
		self[s.Layer] += s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// unattributed returns the share of the root spans' wall time (under
// roots of the given layers) that no layer span covers.
func unattributed(spans []span, roots ...string) float64 {
	counted := rootOps(spans, roots)
	kids := children(spans)
	var wall, bare time.Duration
	for _, s := range spans {
		if s.Parent != 0 || !counted[s.Op] {
			continue
		}
		wall += s.dur()
		bare += s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	if wall == 0 {
		return 0
	}
	return float64(bare) / float64(wall)
}

// rootOps returns the operations whose root span has one of the layers.
func rootOps(spans []span, roots []string) map[int64]bool {
	ops := make(map[int64]bool)
	for _, s := range spans {
		if s.Parent != 0 {
			continue
		}
		for _, l := range roots {
			if s.Layer == l {
				ops[s.Op] = true
			}
		}
	}
	return ops
}
