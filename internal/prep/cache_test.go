package prep

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"klocal/internal/churn"
	"klocal/internal/gen"
	"klocal/internal/graph"
)

func TestCacheHitsAndSharing(t *testing.T) {
	g := gen.Cycle(16)
	p := NewPreprocessorOpts(g, 4, PolicyMinRank, CacheOptions{})
	v1 := p.At(3)
	v2 := p.At(3)
	if v1 != v2 {
		t.Fatal("repeated At must return the shared cached view")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats after hit+miss: %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", st.HitRate())
	}
}

func TestCacheCapacityEviction(t *testing.T) {
	g := gen.Cycle(32)
	p := NewPreprocessorOpts(g, 3, PolicyMinRank, CacheOptions{Capacity: 4})
	for _, v := range g.Vertices() {
		p.At(v)
	}
	st := p.Stats()
	if st.Size > 4 {
		t.Fatalf("cache size %d exceeds capacity 4", st.Size)
	}
	if st.Evictions != int64(g.N()-4) {
		t.Fatalf("evictions = %d, want %d", st.Evictions, g.N()-4)
	}
	// Evicted views must be recomputed correctly, not lost.
	v := p.At(0)
	if v.Center != 0 || v.K != 3 {
		t.Fatalf("recomputed view wrong: center=%d k=%d", v.Center, v.K)
	}
}

func TestCacheConcurrentSameResults(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := gen.RandomConnected(rng, 24, 0.1)
	k := 6
	p := NewPreprocessorOpts(g, k, PolicyMinRank, CacheOptions{})

	var wg sync.WaitGroup
	views := make([][]*View, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			views[w] = make([]*View, g.N())
			for i, u := range g.Vertices() {
				views[w][i] = p.At(u)
			}
		}(w)
	}
	wg.Wait()

	// All workers must observe identical view contents, and (after the
	// cache settles) the same instances as a fresh sequential pass.
	for i, u := range g.Vertices() {
		want := PreprocessPolicy(g, u, k, PolicyMinRank)
		for w := 0; w < 8; w++ {
			got := views[w][i]
			if got.Center != want.Center || len(got.Dormant) != len(want.Dormant) ||
				len(got.ActiveRoots) != len(want.ActiveRoots) {
				t.Fatalf("worker %d vertex %d: view differs from sequential preprocessing", w, u)
			}
			if p.At(u) != p.At(u) {
				t.Fatalf("vertex %d: cache returns distinct instances after settling", u)
			}
		}
	}
	if st := p.Stats(); st.Size != int64(g.N()) {
		t.Fatalf("cache size = %d, want %d", st.Size, g.N())
	}
}

func TestPrewarm(t *testing.T) {
	g := gen.Lollipop(12, 6)
	p := NewPreprocessor(g, 5)
	p.Prewarm(4)
	if st := p.Stats(); st.Size != int64(g.N()) {
		t.Fatalf("prewarm cached %d views, want %d", st.Size, g.N())
	}
	before := p.Stats().Misses
	for _, v := range g.Vertices() {
		p.At(v)
	}
	if after := p.Stats().Misses; after != before {
		t.Fatalf("post-prewarm lookups missed: %d -> %d", before, after)
	}
}

func TestPrewarmBounded(t *testing.T) {
	g := gen.Cycle(20)
	p := NewPreprocessorOpts(g, 3, PolicyMinRank, CacheOptions{Capacity: 5})
	p.Prewarm(2)
	if st := p.Stats(); st.Size > 5 {
		t.Fatalf("bounded prewarm overfilled: size %d > capacity 5", st.Size)
	}
}

func TestCacheStatsDelta(t *testing.T) {
	prev := CacheStats{Hits: 10, Misses: 4, Evictions: 1, Size: 6}
	cur := CacheStats{Hits: 25, Misses: 9, Evictions: 3, Size: 8}
	d := cur.Delta(prev)
	if d.Hits != 15 || d.Misses != 5 || d.Evictions != 2 {
		t.Fatalf("delta counts = %+v, want hits 15 misses 5 evictions 2", d)
	}
	if d.Size != 8 {
		t.Fatalf("delta size = %d, want the absolute current size 8", d.Size)
	}
	// A fresh preprocessor (post-swap) has smaller counters; rates must
	// clamp to zero instead of going negative.
	reset := CacheStats{Hits: 2, Misses: 1, Size: 3}.Delta(prev)
	if reset.Hits != 0 || reset.Misses != 0 || reset.Evictions != 0 || reset.Size != 3 {
		t.Fatalf("post-reset delta = %+v, want clamped zeros with size 3", reset)
	}
}

// relabel returns g with every label v replaced by f(v); f must be
// strictly increasing so rank order, and with it every view, carries
// over.
func relabel(g *graph.Graph, f func(graph.Vertex) graph.Vertex) *graph.Graph {
	b := graph.NewBuilder()
	g.EachVertex(func(v graph.Vertex) bool {
		b.AddVertex(f(v))
		return true
	})
	for _, e := range g.Edges() {
		b.AddEdge(f(e.U), f(e.V))
	}
	return b.Build()
}

// residentCount counts the views resident in p's table.
func residentCount(p *Preprocessor) int64 {
	n := int64(0)
	for i := range p.table {
		if p.table[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestDeriveAcrossVertexDeltas: deltas that add or remove vertices
// shift the dense indices of every later vertex. Derive must adopt each
// surviving clean view by label, at its new index, leave the dirty ones
// unresident, and rebuild them equal to a from-scratch view.
func TestDeriveAcrossVertexDeltas(t *testing.T) {
	const k = 2
	grid := gen.Grid(6, 6)
	even := relabel(grid, func(v graph.Vertex) graph.Vertex { return 2 * v })
	cases := []struct {
		name string
		g    *graph.Graph
		ds   []churn.Delta
	}{
		{"remove-low-vertex", grid, []churn.Delta{{Op: churn.RemoveVertex, U: 3}}},
		{"add-vertex-below", grid, []churn.Delta{{Op: churn.AddVertex, U: -5}, {Op: churn.AddEdge, U: -5, V: 0}}},
		{"add-vertex-between", even, []churn.Delta{{Op: churn.AddEdge, U: 31, V: 30}}},
		{"swap-vertex-same-n", even, []churn.Delta{
			{Op: churn.RemoveVertex, U: 8},
			{Op: churn.AddEdge, U: 41, V: 40},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPreprocessor(tc.g, k)
			p.Prewarm(2)
			post, dirty, err := churn.ApplyAll(tc.g, tc.ds, k)
			if err != nil {
				t.Fatal(err)
			}
			isDirty := make(map[graph.Vertex]bool)
			for _, u := range dirty {
				isDirty[u] = true
			}
			np := p.Derive(post, dirty)
			clean := int64(0)
			post.EachVertex(func(u graph.Vertex) bool {
				got := np.Resident(u)
				switch {
				case isDirty[u] || !tc.g.HasVertex(u):
					if got != nil {
						t.Fatalf("dirty or new vertex %d adopted a view", u)
					}
				case got != p.Resident(u):
					t.Fatalf("clean vertex %d: adopted %p, old epoch holds %p", u, got, p.Resident(u))
				default:
					clean++
				}
				return true
			})
			if st := np.Stats(); st.Size != clean || st.Size != residentCount(np) {
				t.Fatalf("derived Size %d, clean adopted %d, resident %d", st.Size, clean, residentCount(np))
			}
			post.EachVertex(func(u graph.Vertex) bool {
				if d := np.At(u).Diff(PreprocessPolicy(post, u, k, PolicyMinRank)); d != nil {
					t.Fatalf("derived view at %d differs from a rebuild: %v", u, d)
				}
				return true
			})
			if st := np.Stats(); st.Misses != int64(post.N())-clean {
				t.Fatalf("derived cache rebuilt %d views, want %d", st.Misses, int64(post.N())-clean)
			}
		})
	}
}

// TestInvalidateAbsentAndDuplicate: absent vertices and repeats drop
// nothing extra, on unbounded and bounded caches, and a bounded cache
// reuses the freed ring slots without evicting.
func TestInvalidateAbsentAndDuplicate(t *testing.T) {
	g := gen.Cycle(16)
	for _, capacity := range []int{0, 8} {
		p := NewPreprocessorOpts(g, 2, PolicyMinRank, CacheOptions{Capacity: capacity})
		p.Prewarm(1)
		before := p.Stats()
		if got := p.Invalidate([]graph.Vertex{99, 3, 3, -1, 5, 3, 1 << 40}); got != 2 {
			t.Fatalf("capacity %d: dropped %d, want 2 (vertices 3 and 5)", capacity, got)
		}
		if got := p.Invalidate([]graph.Vertex{3, 5, 99}); got != 0 {
			t.Fatalf("capacity %d: second invalidation dropped %d", capacity, got)
		}
		st := p.Stats()
		if st.Size != before.Size-2 || st.Size != residentCount(p) {
			t.Fatalf("capacity %d: Size %d, want %d (resident %d)", capacity, st.Size, before.Size-2, residentCount(p))
		}
		p.At(3)
		p.At(5)
		if st := p.Stats(); st.Evictions != before.Evictions || st.Size != before.Size {
			t.Fatalf("capacity %d: refilling freed slots gave %+v, want no evictions and Size %d", capacity, st, before.Size)
		}
	}
}

// TestCacheStatsReconcile: after a mixed sequence of lookups (absent
// vertices included), invalidations and evictions, hits + misses equal
// the At calls made, and Size equals the views resident in the table.
func TestCacheStatsReconcile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := relabel(gen.RandomConnected(rng, 40, 0.08), func(v graph.Vertex) graph.Vertex { return 3*v + 7 })
	vs := g.Vertices()
	for _, capacity := range []int{0, 1, 13, 100} {
		p := NewPreprocessorOpts(g, 3, PolicyMinRank, CacheOptions{Capacity: capacity})
		calls := int64(0)
		for i := 0; i < 600; i++ {
			switch r := rng.Intn(20); {
			case r == 0:
				p.Invalidate([]graph.Vertex{vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))], 8})
			case r == 1:
				p.At(graph.Vertex(3 * rng.Intn(40))) // absent: labels are 7 mod 3
				calls++
			default:
				p.At(vs[rng.Intn(len(vs))])
				calls++
			}
		}
		st := p.Stats()
		if st.Hits+st.Misses != calls {
			t.Fatalf("capacity %d: hits %d + misses %d != %d At calls", capacity, st.Hits, st.Misses, calls)
		}
		if st.Size != residentCount(p) {
			t.Fatalf("capacity %d: Size %d, resident %d", capacity, st.Size, residentCount(p))
		}
		if capacity > 0 && st.Size > int64(capacity) {
			t.Fatalf("capacity %d: Size %d", capacity, st.Size)
		}
	}
}

// TestCacheTableConcurrent runs At, Invalidate and Derive against one
// preprocessor at once — the -race witness for the table's publication,
// eviction and adoption — then checks the counters reconcile.
func TestCacheTableConcurrent(t *testing.T) {
	g := gen.Grid(6, 6)
	const k = 2
	vs := g.Vertices()
	for _, capacity := range []int{0, 12} {
		p := NewPreprocessorOpts(g, k, PolicyMinRank, CacheOptions{Capacity: capacity})
		var calls atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					u := vs[rng.Intn(len(vs))]
					calls.Add(1)
					if v := p.At(u); v.Center != u || v.K != k {
						t.Errorf("At(%d) returned the view of %d", u, v.Center)
						return
					}
				}
			}(int64(w))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(41))
			for i := 0; i < 200; i++ {
				p.Invalidate([]graph.Vertex{vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))]})
			}
		}()
		rng := rand.New(rand.NewSource(43))
		for i := 0; i < 40; i++ {
			e := g.Edges()[rng.Intn(g.M())]
			post, dirty, err := churn.Apply(g, churn.Delta{Op: churn.RemoveEdge, U: e.U, V: e.V}, k)
			if err != nil {
				t.Fatal(err)
			}
			np := p.Derive(post, dirty)
			if capacity > 0 && np.Stats().Size > int64(capacity) {
				t.Fatalf("derived bounded cache adopted %d views", np.Stats().Size)
			}
			for _, u := range vs {
				if v := np.Resident(u); v != nil && v.Diff(PreprocessPolicy(post, u, k, PolicyMinRank)) != nil {
					t.Fatalf("derived epoch adopted a stale view at %d", u)
				}
			}
		}
		close(stop)
		wg.Wait()
		st := p.Stats()
		if st.Hits+st.Misses != calls.Load() || st.Size != residentCount(p) {
			t.Fatalf("capacity %d: stats %+v after %d At calls, %d resident", capacity, st, calls.Load(), residentCount(p))
		}
	}
}

// TestWarmAtAllocs gates the warm lookup: a cached view is served with
// no allocation, on identity-labelled and sparse-labelled graphs.
func TestWarmAtAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cycle := gen.Cycle(64)
	for name, g := range map[string]*graph.Graph{
		"identity": cycle,
		"3v+7":     relabel(cycle, func(v graph.Vertex) graph.Vertex { return 3*v + 7 }),
	} {
		p := NewPreprocessor(g, 8)
		p.Prewarm(1)
		vs := g.Vertices()
		i := 0
		if avg := testing.AllocsPerRun(500, func() {
			p.At(vs[i%len(vs)])
			i++
		}); avg != 0 {
			t.Fatalf("%s: warm At allocates %.2f times per call, want 0", name, avg)
		}
	}
}

// BenchmarkPreprocessorAt times warm lookups on a prewarmed 300-cycle at
// k=100 (the engine-walk shape), labelled 0..n−1 and 3v+7: the second
// resolves indices through the graph's label map.
func BenchmarkPreprocessorAt(b *testing.B) {
	cycle := gen.Cycle(300)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"identity", cycle},
		{"sparse", relabel(cycle, func(v graph.Vertex) graph.Vertex { return 3*v + 7 })},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p := NewPreprocessor(tc.g, 100)
			p.Prewarm(0)
			vs := tc.g.Vertices()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.At(vs[i%len(vs)])
			}
		})
	}
}
