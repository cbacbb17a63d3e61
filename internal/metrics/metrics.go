// Package metrics provides the measurement layer of the traffic engine:
// atomic counters, fixed-bucket log-scale histograms, and mergeable
// per-worker shards that let many routing workers record without
// contending on shared locks. A Report snapshots a merged view and
// renders it as plain text or JSON.
//
// Concurrency model. Counter is safe for concurrent use. Histogram is
// deliberately single-writer: each worker owns its own histograms inside
// a Shard. A Shard guards its maps and histograms with one private
// mutex, so the owning worker records through an uncontended lock while
// observers take consistent live copies with Clone/MergeShardsLive — the
// daemon's /metrics endpoint reads without ever quiescing the workers.
// MergeShards keeps the historical post-quiesce contract (and is equally
// safe on live shards). This mirrors the paper's locality discipline:
// record locally, aggregate globally.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically adjustable atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Histogram bucket layout: values 0..15 get exact buckets; larger values
// share eight sub-buckets per power-of-two octave (relative error ≤ 12.5%).
// The layout is fixed so histograms recorded independently always merge
// bucket-by-bucket.
const (
	exactBuckets     = 16
	subBucketsPerOct = 8
	// maxOctave is the octave of the largest representable value
	// (1<<62); values beyond clamp into the top bucket.
	maxOctave  = 62
	numBuckets = exactBuckets + (maxOctave-3)*subBucketsPerOct
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v < exactBuckets {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // floor(log2 v), ≥ 4
	if e > maxOctave {
		e = maxOctave
	}
	sub := (uint64(v) >> uint(e-3)) & (subBucketsPerOct - 1)
	i := exactBuckets + (e-4)*subBucketsPerOct + int(sub)
	if i >= numBuckets {
		i = numBuckets - 1
	}
	return i
}

// bucketBounds returns the inclusive lower and exclusive upper value
// bounds of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i < exactBuckets {
		return int64(i), int64(i) + 1
	}
	oct := (i-exactBuckets)/subBucketsPerOct + 4
	sub := int64((i - exactBuckets) % subBucketsPerOct)
	width := int64(1) << uint(oct-3)
	lo = int64(1)<<uint(oct) + sub*width
	return lo, lo + width
}

// Histogram is a fixed log-scale-bucket histogram of non-negative int64
// samples. It is single-writer: use one per worker (see Shard) and Merge
// the shards after the workers stop. The zero value is ready to use.
type Histogram struct {
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [numBuckets]int64
}

// Observe records one sample. Negative samples clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of recorded samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() int64 { return h.min }

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Merge adds other's samples into h. Histograms share a fixed bucket
// layout, so merging is exact bucket addition.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	for i, n := range other.buckets {
		h.buckets[i] += n
	}
}

// Clone returns an independent copy of h.
func (h *Histogram) Clone() *Histogram {
	c := *h
	return &c
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]): the
// sample value below which a fraction q of the recorded samples fall,
// linearly interpolated inside the containing bucket. Exact for values
// < 16; relative error ≤ 12.5% beyond. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return float64(h.min)
	}
	if q >= 1 {
		return float64(h.max)
	}
	rank := q * float64(h.count)
	var cum float64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= rank {
			lo, hi := bucketBounds(i)
			// Clamp the bucket to the observed extremes so estimates
			// never leave [min, max]. The top bucket's hi overflows, so
			// it is clamped like the bucket holding max.
			flo, fhi := float64(max(lo, h.min)), float64(h.max)
			if hi > lo && hi < h.max {
				fhi = float64(hi)
			}
			frac := (rank - cum) / float64(n)
			return flo + frac*(fhi-flo)
		}
		cum = next
	}
	return float64(h.max)
}

// Buckets returns the non-empty buckets as (lower bound, count) pairs in
// increasing value order — the export format.
func (h *Histogram) Buckets() []BucketCount {
	var out []BucketCount
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		lo, _ := bucketBounds(i)
		out = append(out, BucketCount{Lo: lo, Count: n})
	}
	return out
}

// BucketCount is one exported histogram bucket.
type BucketCount struct {
	Lo    int64 `json:"lo"`
	Count int64 `json:"count"`
}

// Shard is one worker's private metric set: named histograms and local
// counters. A worker records into its own shard through the shard's
// private mutex (uncontended on the hot path — only live observers ever
// take it concurrently); the engine merges all shards into a Report once
// the workers have stopped, or takes a live snapshot at any moment with
// Clone/MergeShardsLive.
type Shard struct {
	mu       sync.Mutex
	counters map[string]int64
	hists    map[string]*Histogram
}

// NewShard returns an empty shard.
func NewShard() *Shard {
	return &Shard{
		counters: make(map[string]int64),
		hists:    make(map[string]*Histogram),
	}
}

// Count adds n to the named shard-local counter.
func (s *Shard) Count(name string, n int64) {
	s.mu.Lock()
	s.counters[name] += n
	s.mu.Unlock()
}

// Counter returns the named shard-local counter (0 if absent).
func (s *Shard) Counter(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[name]
}

// Observe records v into the named shard-local histogram.
func (s *Shard) Observe(name string, v int64) {
	s.mu.Lock()
	s.histogramLocked(name).Observe(v)
	s.mu.Unlock()
}

// Histogram returns the named histogram, creating it if absent. The
// returned pointer bypasses the shard lock: read or mutate it only while
// no other goroutine is using the shard (tests, post-quiesce analysis).
func (s *Shard) Histogram(name string) *Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.histogramLocked(name)
}

func (s *Shard) histogramLocked(name string) *Histogram {
	h, ok := s.hists[name]
	if !ok {
		h = &Histogram{}
		s.hists[name] = h
	}
	return h
}

// Clone returns a deep copy of the shard taken atomically under its
// lock — the live-read primitive: a worker can keep recording while an
// observer snapshots a consistent view.
func (s *Shard) Clone() *Shard {
	out := NewShard()
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, n := range s.counters {
		out.counters[name] = n
	}
	for name, h := range s.hists {
		out.hists[name] = h.Clone()
	}
	return out
}

// MergeShards combines per-worker shards into one merged shard. Each
// input is read under its own lock, so the result is per-shard
// consistent even while workers record; call it after the workers
// quiesce when a globally exact total is required.
func MergeShards(shards ...*Shard) *Shard {
	out := NewShard()
	for _, s := range shards {
		if s == nil {
			continue
		}
		s.mu.Lock()
		for name, n := range s.counters {
			out.counters[name] += n
		}
		for name, h := range s.hists {
			out.histogramLocked(name).Merge(h)
		}
		s.mu.Unlock()
	}
	return out
}

// MergeShardsLive is MergeShards for shards still receiving writes: it
// never blocks a recording worker for longer than one shard copy, and
// the merged result is consistent within each shard (cross-shard skew is
// bounded by the scrape instant). This is the /metrics read path — the
// workers are never quiesced.
func MergeShardsLive(shards ...*Shard) *Shard {
	return MergeShards(shards...)
}

// Snapshot freezes the shard into a Report. Extra key/value pairs (e.g.
// derived rates) may be attached afterwards via Report.Put.
func (s *Shard) Snapshot() *Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &Report{
		Counters:   make(map[string]int64, len(s.counters)),
		Histograms: make(map[string]HistogramSnapshot, len(s.hists)),
	}
	for name, n := range s.counters {
		r.Counters[name] = n
	}
	for name, h := range s.hists {
		r.Histograms[name] = snapshotHistogram(h)
	}
	return r
}

// HistogramSnapshot is the frozen, export-ready view of a histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Min     int64         `json:"min"`
	Max     int64         `json:"max"`
	Mean    float64       `json:"mean"`
	P50     float64       `json:"p50"`
	P90     float64       `json:"p90"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

func snapshotHistogram(h *Histogram) HistogramSnapshot {
	return HistogramSnapshot{
		Count:   h.Count(),
		Sum:     h.Sum(),
		Min:     h.Min(),
		Max:     h.Max(),
		Mean:    round3(h.Mean()),
		P50:     round3(h.Quantile(0.50)),
		P90:     round3(h.Quantile(0.90)),
		P99:     round3(h.Quantile(0.99)),
		Buckets: h.Buckets(),
	}
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// sortedKeys returns map keys in lexical order for stable rendering.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Gauge formats a float for text reports, trimming to three decimals.
func gauge(v float64) string { return fmt.Sprintf("%.3f", v) }
