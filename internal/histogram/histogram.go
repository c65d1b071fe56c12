// Package histogram implements the static-histogram (SH) UDF cost models of
// Jihad and Kinji (SIGMOD Record 1999) that the paper uses as its baseline:
// multi-dimensional equi-width (SH-W) and equi-height (SH-H) histograms,
// trained a-priori on a collected sample of UDF executions and frozen
// afterwards. Both respect the same memory budget as MLQ so the comparison
// is apples-to-apples.
package histogram

import (
	"fmt"
	"math"
	"sort"

	"mlq/internal/geom"
)

// Kind selects the bucket-boundary policy.
type Kind int

const (
	// EquiWidth divides every dimension into intervals of equal length
	// (the paper's SH-W).
	EquiWidth Kind = iota
	// EquiHeight divides every dimension so each interval holds the same
	// number of training points (the paper's SH-H).
	EquiHeight
)

// String returns the paper's name for the method.
func (k Kind) String() string {
	switch k {
	case EquiWidth:
		return "SH-W"
	case EquiHeight:
		return "SH-H"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Sample is one training observation: a UDF executed at Point cost Value.
type Sample struct {
	Point geom.Point
	Value float64
}

// Config parameterizes histogram construction.
type Config struct {
	// Region is the full data space.
	Region geom.Rect
	// MemoryLimit is the byte budget; the number of intervals per
	// dimension is derived from it. Default 1843 (1.8 KB), as in §5.1.
	MemoryLimit int
	// BucketBytes is the memory charged per bucket (sum 8 + count 4).
	// Default 12.
	BucketBytes int
	// BoundaryBytes is the memory charged per stored interval boundary
	// (equi-height only). Default 8.
	BoundaryBytes int
	// Intervals forces the per-dimension interval count, bypassing the
	// memory-based derivation. Zero derives it from MemoryLimit.
	Intervals int
}

func (c Config) withDefaults() Config {
	if c.MemoryLimit == 0 {
		c.MemoryLimit = 1843
	}
	if c.BucketBytes == 0 {
		c.BucketBytes = 12
	}
	if c.BoundaryBytes == 0 {
		c.BoundaryBytes = 8
	}
	return c
}

// Histogram is a trained, immutable multi-dimensional histogram cost model.
type Histogram struct {
	kind      Kind
	region    geom.Rect
	n         int         // intervals per dimension
	bounds    [][]float64 // per dim: n-1 interior boundaries (equi-height only)
	sums      []float64
	counts    []int32
	global    float64 // global average, the empty-bucket fallback
	seen      int64
	bucketB   int
	boundaryB int
}

// intervalsFor returns the largest per-dimension interval count that fits in
// the memory budget for the given kind, at least 1.
func intervalsFor(kind Kind, cfg Config, dims int) int {
	best := 1
	for n := 1; ; n++ {
		buckets := 1
		overflow := false
		for i := 0; i < dims; i++ {
			buckets *= n
			if buckets > cfg.MemoryLimit { // early exit; cost only grows
				overflow = true
				break
			}
		}
		if overflow {
			break
		}
		cost := buckets * cfg.BucketBytes
		if kind == EquiHeight {
			cost += (n - 1) * dims * cfg.BoundaryBytes
		}
		if cost > cfg.MemoryLimit {
			break
		}
		best = n
	}
	return best
}

// Train builds a histogram of the given kind from the training samples.
// Training is the a-priori step the paper's SH methods require; the result
// never changes afterwards.
func Train(kind Kind, cfg Config, samples []Sample) (*Histogram, error) {
	cfg = cfg.withDefaults()
	if cfg.Region.Dims() == 0 {
		return nil, fmt.Errorf("histogram: Config.Region must be set")
	}
	if kind != EquiWidth && kind != EquiHeight {
		return nil, fmt.Errorf("histogram: unknown kind %d", int(kind))
	}
	d := cfg.Region.Dims()
	n := cfg.Intervals
	if n <= 0 {
		n = intervalsFor(kind, cfg, d)
	}
	buckets := 1
	for i := 0; i < d; i++ {
		buckets *= n
	}
	h := &Histogram{
		kind:      kind,
		region:    cfg.Region.Clone(),
		n:         n,
		sums:      make([]float64, buckets),
		counts:    make([]int32, buckets),
		bucketB:   cfg.BucketBytes,
		boundaryB: cfg.BoundaryBytes,
	}
	if kind == EquiHeight {
		h.bounds = equiHeightBounds(cfg.Region, n, samples)
	}
	var gSum float64
	for _, s := range samples {
		if len(s.Point) != d {
			return nil, fmt.Errorf("histogram: sample has %d dims, region has %d", len(s.Point), d)
		}
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return nil, fmt.Errorf("histogram: sample value must be finite, got %g", s.Value)
		}
		i := h.bucketIndex(cfg.Region.Clamp(s.Point))
		h.sums[i] += s.Value
		h.counts[i]++
		gSum += s.Value
	}
	h.seen = int64(len(samples))
	if h.seen > 0 {
		h.global = gSum / float64(h.seen)
	}
	return h, nil
}

// equiHeightBounds computes, for each dimension, the n-1 interior boundaries
// that split the training sample's marginal distribution into n equal-count
// intervals.
func equiHeightBounds(region geom.Rect, n int, samples []Sample) [][]float64 {
	d := region.Dims()
	bounds := make([][]float64, d)
	for dim := 0; dim < d; dim++ {
		bounds[dim] = make([]float64, n-1)
		if len(samples) == 0 {
			// Degenerate to equi-width boundaries.
			w := (region.Hi[dim] - region.Lo[dim]) / float64(n)
			for i := 0; i < n-1; i++ {
				bounds[dim][i] = region.Lo[dim] + w*float64(i+1)
			}
			continue
		}
		coords := make([]float64, len(samples))
		for i, s := range samples {
			coords[i] = s.Point[dim]
		}
		sort.Float64s(coords)
		for i := 0; i < n-1; i++ {
			q := float64(i+1) / float64(n)
			idx := int(q * float64(len(coords)))
			if idx >= len(coords) {
				idx = len(coords) - 1
			}
			bounds[dim][i] = coords[idx]
		}
	}
	return bounds
}

// intervalOf returns which interval along dim the coordinate falls into.
func (h *Histogram) intervalOf(dim int, x float64) int {
	if h.kind == EquiWidth {
		lo, hi := h.region.Lo[dim], h.region.Hi[dim]
		i := int(float64(h.n) * (x - lo) / (hi - lo))
		if i < 0 {
			i = 0
		}
		if i >= h.n {
			i = h.n - 1
		}
		return i
	}
	// Equi-height: the interval index is the number of boundaries <= x
	// (intervals are [b[i-1], b[i]) with b[-1]=Lo and b[n-1]=Hi).
	b := h.bounds[dim]
	return sort.Search(len(b), func(i int) bool { return b[i] > x })
}

// bucketIndex linearizes the per-dimension interval indices.
func (h *Histogram) bucketIndex(p geom.Point) int {
	idx := 0
	for dim := len(p) - 1; dim >= 0; dim-- {
		idx = idx*h.n + h.intervalOf(dim, p[dim])
	}
	return idx
}

// Predict returns the average training cost of the bucket containing p,
// falling back to the global training average for empty buckets. ok is
// false only for an untrained (empty) histogram.
func (h *Histogram) Predict(p geom.Point) (float64, bool) {
	if h.seen == 0 {
		return 0, false
	}
	var buf [8]float64
	var q geom.Point
	if n := len(p); n <= len(buf) {
		q = buf[:n]
	} else {
		q = make(geom.Point, n)
	}
	h.region.ClampInto(q, p)
	i := h.bucketIndex(q)
	v := h.global
	if h.counts[i] != 0 {
		v = h.sums[i] / float64(h.counts[i])
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// Train rejects non-finite samples, so this means summary
		// corruption; report "untrained" rather than emit the value.
		return 0, false
	}
	return v, true
}

// Observe is a no-op: SH models are static and do not self-tune. It exists
// so histograms satisfy the same cost-model interface as MLQ in the
// experiment harness.
func (h *Histogram) Observe(geom.Point, float64) error { return nil }

// Kind returns the histogram's construction policy.
func (h *Histogram) Kind() Kind { return h.kind }

// Name returns the paper's name for the method ("SH-W" or "SH-H").
func (h *Histogram) Name() string { return h.kind.String() }

// Intervals returns the number of intervals per dimension.
func (h *Histogram) Intervals() int { return h.n }

// Buckets returns the total bucket count (Intervals^dims).
func (h *Histogram) Buckets() int { return len(h.sums) }

// MemoryUsed returns the bytes charged to the histogram under the paper's
// accounting (buckets plus stored boundaries).
func (h *Histogram) MemoryUsed() int {
	mem := len(h.sums) * h.bucketB
	if h.kind == EquiHeight {
		for _, b := range h.bounds {
			mem += len(b) * h.boundaryB
		}
	}
	return mem
}

// TrainingSize returns the number of samples the histogram was trained on.
func (h *Histogram) TrainingSize() int64 { return h.seen }
