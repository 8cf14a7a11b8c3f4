package experiments

// CompositionResult is experiment X1: the same decoder's miss counts with
// and without co-runners, under both cache strategies.
type CompositionResult struct {
	SharedSolo  uint64 // jpeg1 entity misses, running alone, shared L2
	SharedCorun uint64 // ... co-scheduled with jpeg2 + canny, shared L2
	PartSolo    uint64 // ... alone, partitioned L2 (same allocation)
	PartCorun   uint64 // ... co-scheduled, partitioned L2
}

// SharedShift returns the relative change of the shared-cache miss count
// when co-runners appear; PartShift the same for the partitioned cache.
// Compositionality means PartShift ≈ 0 while SharedShift is large.
func (r *CompositionResult) SharedShift() float64 { return shift(r.SharedSolo, r.SharedCorun) }

// PartShift returns the partitioned-cache relative change.
func (r *CompositionResult) PartShift() float64 { return shift(r.PartSolo, r.PartCorun) }

func shift(solo, corun uint64) float64 {
	if solo == 0 {
		return 0
	}
	d := float64(corun) - float64(solo)
	if d < 0 {
		d = -d
	}
	return d / float64(solo)
}

// jpeg1Entities are the private entities of the first decoder instance.
var jpeg1Entities = []string{"FrontEnd1", "IDCT1", "Raster1", "BackEnd1"}
