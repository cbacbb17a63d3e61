package engine

import (
	"math/rand"
	"testing"

	"klocal/internal/bigraph"
	"klocal/internal/churn"
	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/prep"
	"klocal/internal/route"
)

// checkDists routes every ordered pair (s = t included) on snap and
// compares Result.Dist with the map-based graph.Dist. It returns how
// many pairs with s ≠ t had t inside and outside G_k(s).
func checkDists(t *testing.T, name string, snap *Snapshot) (inside, outside int) {
	t.Helper()
	g := snap.Graph()
	vs := g.Vertices()
	for _, s := range vs {
		for _, d := range vs {
			res := snap.Route(s, d, 0)
			want := g.Dist(s, d)
			if res.Dist != want {
				t.Fatalf("%s: Dist(%d, %d) = %d, want %d", name, s, d, res.Dist, want)
			}
			switch {
			case s == d:
			case want <= snap.K():
				inside++
			default:
				outside++
			}
		}
	}
	return inside, outside
}

// TestResultDistMatchesGraphDist: the stretch denominator is exact on
// every route, whether it comes from the source's cached view (t in
// G_k(s)) or from a whole-graph search (t beyond it, the source's view
// evicted, or an algorithm without views), including snapshots made
// by Incremental after churn deltas.
func TestResultDistMatchesGraphDist(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	algs := []route.Algorithm{route.Algorithm1B(), route.Algorithm2(), route.Algorithm3()}
	inside, outside := 0, 0
	for trial := 0; trial < 4; trial++ {
		g := gen.RandomConnected(rng, 14+rng.Intn(10), 0.12)
		for _, alg := range algs {
			for _, k := range []int{1, 2, 4, 0} {
				for _, capacity := range []int{0, 1} {
					snap, err := NewSnapshotOpts(g, k, alg, SnapshotOptions{Cache: prep.CacheOptions{Capacity: capacity}})
					if err != nil {
						t.Fatal(err)
					}
					in, out := checkDists(t, alg.Name, snap)
					inside += in
					outside += out
				}
			}
		}
	}
	if inside == 0 || outside == 0 {
		t.Fatalf("pairs inside G_k(s): %d, outside: %d; both cases must be covered", inside, outside)
	}

	// Incremental snapshots adopt views across deltas; their distances
	// must follow the post-delta graph.
	g := gen.Grid(5, 5)
	const k = 3
	snap, err := NewSnapshotOpts(g, k, route.Algorithm2(), SnapshotOptions{Prewarm: 1})
	if err != nil {
		t.Fatal(err)
	}
	cur := g
	for i, d := range churn.ScheduleDeltas(g, 9, 10) {
		post, dirty, err := churn.Apply(cur, d, k)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if snap, err = snap.Incremental(post, dirty); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		checkDists(t, d.String(), snap)
		cur = post
	}
}

// TestStoreSnapshotDistUnknown: store-backed snapshots never compute
// dist(s, t), so Result.Dist stays 0.
func TestStoreSnapshotDistUnknown(t *testing.T) {
	g := gen.Cycle(20)
	snap, err := NewSnapshotStore(bigraph.FromGraph(g), 0, route.Algorithm2(), SnapshotOptions{Prewarm: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]graph.Vertex{{0, 1}, {0, 10}, {3, 3}} {
		if res := snap.Route(p[0], p[1], 0); res.Dist != 0 {
			t.Fatalf("store-backed Route%v: Dist %d, want 0", p, res.Dist)
		}
	}
}
