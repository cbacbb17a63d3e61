package prep

import (
	"math/rand"
	"testing"

	"klocal/internal/bigraph"
	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/nbhd"
)

// opaqueStore hides the concrete store type, so the build takes its
// read-by-label extraction.
type opaqueStore struct{ bigraph.Store }

// checkAgainstReference requires the build to equal the map-based
// oracle at the centres us of g, through every store given.
func checkAgainstReference(t *testing.T, g *graph.Graph, us []graph.Vertex, stores []bigraph.Store, k int, pol Policy) {
	t.Helper()
	for _, u := range us {
		want := Reference(g, u, k, pol)
		for _, st := range stores {
			if err := PreprocessStore(st, u, k, pol).Diff(&want.View); err != nil {
				t.Fatalf("%T u=%d k=%d %v: %v\ng=%v", st, u, k, pol, err, g)
			}
		}
	}
}

var policies = []Policy{PolicyMinRank, PolicyMaxRank}

// TestCompactBuildMatchesReference pins the int-indexed build to the
// map-based oracle field by field: Dormant, ActiveRoots and every
// compact field. Random connected graphs with permuted labels run at
// k = 1–6 through every kind of store. Every connected graph with
// n ≤ 6 runs at k ≤ 3 (k = 3 already sees every cycle of such a graph)
// through the graph and CSR stores: for n ≤ 5 at every centre and
// k = 0–3; for n = 6 at k = 2–3 (k = 1 never sees a cycle) and one
// centre that rotates through the vertices as the enumeration proceeds.
func TestCompactBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 80; trial++ {
		n := 5 + rng.Intn(40)
		g := gen.RandomConnected(rng, n, 0.03+0.2*rng.Float64())
		g = g.PermuteLabels(gen.RandomLabelPermutation(rng, g))
		stores := []bigraph.Store{g, bigraph.FromGraph(g), opaqueStore{g}}
		k := 1 + rng.Intn(6)
		for _, pol := range policies {
			checkAgainstReference(t, g, g.Vertices(), stores, k, pol)
		}
	}
	maxN := 6
	if testing.Short() || raceEnabled {
		maxN = 5 // n = 6 is 97% of the enumeration's cost
	}
	for n := 1; n <= maxN; n++ {
		seq := 0
		gen.ConnectedGraphs(n, func(g *graph.Graph) bool {
			us, k0 := g.Vertices(), 0
			if n == 6 {
				us, k0 = us[seq%n:seq%n+1], 2
			}
			seq++
			stores := []bigraph.Store{g, bigraph.FromGraph(g)}
			for k := k0; k <= 3; k++ {
				for _, pol := range policies {
					checkAgainstReference(t, g, us, stores, k, pol)
				}
			}
			return true
		})
	}
}

// TestBuildEdgeCases covers the views the random graphs never produce:
// k = 0 and an absent centre.
func TestBuildEdgeCases(t *testing.T) {
	g := gen.Cycle(5)
	for _, u := range []graph.Vertex{0, 99} {
		got := PreprocessStore(bigraph.FromGraph(g), u, 0, PolicyMinRank)
		if err := got.Diff(&Reference(g, u, 0, PolicyMinRank).View); err != nil {
			t.Fatalf("u=%d k=0: %v", u, err)
		}
	}
	if v := PreprocessStore(g, 99, 2, PolicyMinRank); v.C.Raw.NV() != 0 || v.C.Routing.NV() != 0 {
		t.Fatalf("absent centre: view has %d/%d vertices, want none", v.C.Raw.NV(), v.C.Routing.NV())
	}
}

// TestBuildAllocs is the allocation gate of the build: once the pooled
// scratch is warm, a view costs a fixed number of allocations — the
// view block, one arena per element type, the dormant and component
// lists — independent of k.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const want = 5
	g := gen.Grid(30, 30)
	c := bigraph.FromGraph(g)
	for _, k := range []int{3, 8} {
		for _, st := range []bigraph.Store{c, g} {
			PreprocessStore(st, 465, k, PolicyMinRank) // warm the scratch
			avg := testing.AllocsPerRun(100, func() {
				PreprocessStore(st, 465, k, PolicyMinRank)
			})
			if avg != want {
				t.Errorf("%T k=%d: a warm view build allocates %v times, want %d", st, k, avg, want)
			}
		}
	}
}

// decode turns a compact view back into a graph and a distance map, so
// tests can state properties in label space.
func decode(cv *nbhd.CompactView) (*graph.Graph, map[graph.Vertex]int) {
	b := graph.NewBuilder()
	dist := make(map[graph.Vertex]int, cv.NV())
	for i, v := range cv.Verts {
		b.AddVertex(v)
		dist[v] = int(cv.Dist[i])
		for _, j := range cv.Row(int32(i)) {
			b.AddEdge(v, cv.Verts[j])
		}
	}
	return b.Build(), dist
}
