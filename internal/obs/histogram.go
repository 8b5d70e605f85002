package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefBuckets are the default latency buckets in seconds: half a millisecond
// through ten seconds, the span from a warm cache hit to a pathological
// stall. They follow the 1-2.5-5 decade pattern Prometheus defaults to.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histStripes is the number of independently updated shards per histogram.
// Power of two so stripe selection is a mask. Eight stripes keeps the worst
// case — every worker observing into one route's histogram — off a single
// cache line without bloating the scrape-time merge.
const histStripes = 8

// histStripe is one shard of a histogram's state. The pad keeps adjacent
// stripes on separate cache lines so two cores recording concurrently do not
// false-share.
type histStripe struct {
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
	_      [32]byte //nolint:unused // cache-line padding between stripes
}

// Histogram is a fixed-bucket histogram whose hot-path Observe is a few
// atomic adds on a lock-striped shard: no mutex, no allocation. Bucket
// bounds are fixed at construction; scrapes merge the stripes.
type Histogram struct {
	bounds  []float64 // upper bounds, strictly increasing, +Inf implicit
	stripes [histStripes]histStripe
}

// newHistogram builds a histogram over the given upper bounds (nil selects
// DefBuckets). Bounds are sorted, deduplicated, and scrubbed of NaN; an
// explicit trailing +Inf is dropped (the encoder always emits it).
func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	cleaned := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if !math.IsNaN(b) && !math.IsInf(b, +1) {
			cleaned = append(cleaned, b)
		}
	}
	sort.Float64s(cleaned)
	dedup := cleaned[:0]
	for i, b := range cleaned {
		if i == 0 || b != cleaned[i-1] {
			dedup = append(dedup, b)
		}
	}
	h := &Histogram{bounds: dedup}
	for i := range h.stripes {
		h.stripes[i].counts = make([]atomic.Uint64, len(dedup)+1) // last = +Inf overflow
	}
	return h
}

// Observe records one sample. NaN observations are dropped (they would
// poison _sum forever). The stripe is picked by hashing the sample's bits —
// cheap, allocation-free, and well spread because real latencies differ in
// their low bits — so concurrent observers land on different cache lines.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	bits := math.Float64bits(v)
	st := &h.stripes[splitmix64(bits)&(histStripes-1)]
	// Binary search the bucket: bounds are few (≤ ~20), but branch-free
	// linear scans measure no better and this stays O(log n) for custom
	// bucket sets.
	idx := sort.SearchFloat64s(h.bounds, v)
	st.counts[idx].Add(1)
	st.count.Add(1)
	atomicAddFloat(&st.sum, v)
}

// snapshot merges the stripes into cumulative bucket counts, the total
// count, and the sum — the exposition-format shape.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.bounds)+1)
	for i := range h.stripes {
		st := &h.stripes[i]
		for b := range cum {
			cum[b] += st.counts[b].Load()
		}
		count += st.count.Load()
		sum += math.Float64frombits(st.sum.Load())
	}
	for b := 1; b < len(cum); b++ {
		cum[b] += cum[b-1]
	}
	return cum, count, sum
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.stripes {
		n += h.stripes[i].count.Load()
	}
	return n
}

// splitmix64 finalizes a 64-bit value into a well-mixed hash (the same
// finalizer internal/cluster uses on its ring hashes).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
