package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestBucketBoundsRoundTrip pins the mutual consistency of bucketOf and
// bucketBounds across the whole layout: every bucket's [lo, hi) maps
// back to itself, buckets tile the axis with no gaps, and past the exact
// range the relative bucket width (the quantile error bound) stays
// ≤ 12.5%.
func TestBucketBoundsRoundTrip(t *testing.T) {
	for i := 0; i < numBuckets; i++ {
		lo, hi := bucketBounds(i)
		if got := bucketOf(lo); got != i {
			t.Fatalf("bucketOf(lo=%d) = %d, want bucket %d", lo, got, i)
		}
		if i == numBuckets-1 {
			// The top bucket's exclusive bound is 1<<63, which overflows
			// int64; it is open-ended by construction.
			if hi > lo {
				t.Fatalf("top bucket: expected overflowed hi, got [%d, %d)", lo, hi)
			}
			continue
		}
		if hi <= lo {
			t.Fatalf("bucket %d: empty or inverted bounds [%d, %d)", i, lo, hi)
		}
		if got := bucketOf(hi - 1); got != i {
			t.Fatalf("bucketOf(hi-1=%d) = %d, want bucket %d", hi-1, got, i)
		}
		if nextLo, _ := bucketBounds(i + 1); nextLo != hi {
			t.Fatalf("gap between buckets %d and %d: hi=%d, next lo=%d", i, i+1, hi, nextLo)
		}
		if i >= exactBuckets {
			if width := hi - lo; 8*width > lo {
				t.Fatalf("bucket %d: width %d exceeds 12.5%% of lo %d", i, width, lo)
			}
		}
	}
}

// TestBucketOfFullRange draws values across every magnitude of the
// non-negative int64 range (plus the boundary values themselves) and
// asserts each lands in a bucket whose bounds contain it.
func TestBucketOfFullRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(v int64) {
		t.Helper()
		i := bucketOf(v)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketOf(%d) = %d out of layout [0, %d)", v, i, numBuckets)
		}
		lo, hi := bucketBounds(i)
		if v < lo {
			t.Fatalf("value %d below its bucket %d = [%d, %d)", v, i, lo, hi)
		}
		// hi ≤ lo means the open-ended top bucket (overflowed bound).
		if hi > lo && v >= hi {
			t.Fatalf("value %d beyond its bucket %d = [%d, %d)", v, i, lo, hi)
		}
	}
	for v := int64(0); v < 4096; v++ {
		check(v)
	}
	check(math.MaxInt64)
	check(math.MaxInt64 - 1)
	check(1 << 62)
	check(1<<62 - 1)
	for shift := uint(4); shift < 63; shift++ {
		check(int64(1) << shift)
		check(int64(1)<<shift - 1)
		check(int64(1)<<shift + 1)
		for draw := 0; draw < 200; draw++ {
			check(int64(1)<<shift | rng.Int63n(int64(1)<<shift))
		}
	}
}

// TestMergeRandomSplitsExact asserts the merge identity the shard design
// rests on: a sample stream split arbitrarily across histograms and
// re-merged is bit-for-bit the histogram of the unsplit stream — same
// counts, same buckets, and therefore identical quantile estimates.
func TestMergeRandomSplitsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		parts := 1 + rng.Intn(7)
		split := make([]*Histogram, parts)
		for i := range split {
			split[i] = &Histogram{}
		}
		whole := &Histogram{}
		n := 1 + rng.Intn(5000)
		for i := 0; i < n; i++ {
			// Log-uniform magnitudes so every octave sees traffic.
			v := rng.Int63n(int64(1) << uint(1+rng.Intn(62)))
			whole.Observe(v)
			split[rng.Intn(parts)].Observe(v)
		}
		merged := &Histogram{}
		for _, h := range split {
			merged.Merge(h)
		}
		if !reflect.DeepEqual(merged, whole) {
			t.Fatalf("trial %d: merged histogram differs from unsplit (count %d vs %d, sum %d vs %d)",
				trial, merged.Count(), whole.Count(), merged.Sum(), whole.Sum())
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if merged.Quantile(q) != whole.Quantile(q) {
				t.Fatalf("trial %d: quantile %.2f differs after merge", trial, q)
			}
		}
	}
}

// TestQuantileWithinRangeAndMonotone draws random observation sets —
// a few values to thousands, small exact-bucket values to octave-spanning
// ones — and requires every estimate to lie in [min, max] and to be
// monotone in q.
func TestQuantileWithinRangeAndMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		var h Histogram
		n := 1 + rng.Intn(2000)
		top := int64(1) << uint(1+rng.Intn(40))
		for i := 0; i < n; i++ {
			h.Observe(rng.Int63n(top))
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.005 {
			got := h.Quantile(q)
			if got < float64(h.Min()) || got > float64(h.Max()) {
				t.Fatalf("trial %d: Quantile(%.3f) = %v outside [%d, %d]", trial, q, got, h.Min(), h.Max())
			}
			if got < prev {
				t.Fatalf("trial %d: Quantile(%.3f) = %v < %v at the previous q", trial, q, got, prev)
			}
			prev = got
		}
	}
}

// TestShardLiveClone exercises the live-read contract: a recording
// goroutine keeps observing while another clones and live-merges, and
// every snapshot is internally consistent (histogram count matches the
// request counter at clone time). Run under -race this also proves the
// lock discipline.
func TestShardLiveClone(t *testing.T) {
	sh := NewShard()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sh.Count("requests", 1)
			sh.Observe("latency_ns", i%4096)
		}
	}()
	for i := 0; i < 200; i++ {
		c := sh.Clone()
		if got, want := c.Histogram("latency_ns").Count(), c.Counter("requests"); got > want {
			t.Fatalf("torn clone: %d observations vs %d counted requests", got, want)
		}
		m := MergeShardsLive(sh, NewShard())
		if m.Counter("requests") < c.Counter("requests") {
			t.Fatal("live merge went backwards against an earlier clone")
		}
	}
	close(stop)
	wg.Wait()
	final := MergeShards(sh)
	if final.Histogram("latency_ns").Count() != final.Counter("requests") {
		t.Fatal("post-quiesce merge lost samples")
	}
}
