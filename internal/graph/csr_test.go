package graph

import (
	"math/rand"
	"testing"
)

func randomConnected(r *rand.Rand, n int) *Graph {
	b := NewBuilder()
	for v := 1; v < n; v++ {
		b.AddEdge(Vertex(v), Vertex(r.Intn(v)))
	}
	extra := n / 2
	for i := 0; i < extra; i++ {
		b.AddEdge(Vertex(r.Intn(n)), Vertex(r.Intn(n)))
	}
	return b.Build()
}

// TestMirrorRoundTrip checks the CSR mirror agrees with the map
// adjacency: index/label inverses, and every row matches Adj.
func TestMirrorRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(r, 2+r.Intn(40))
		for i, v := range g.Vertices() {
			j, ok := g.Index(v)
			if !ok || int(j) != i {
				t.Fatalf("Index(%d) = %d,%v want %d", v, j, ok, i)
			}
			if g.VertexAt(j) != v {
				t.Fatalf("VertexAt(Index(%d)) = %d", v, g.VertexAt(j))
			}
			row := g.Row(j)
			adj := g.Adj(v)
			if len(row) != len(adj) {
				t.Fatalf("row %d: len %d want %d", v, len(row), len(adj))
			}
			for p, wi := range row {
				if g.VertexAt(wi) != adj[p] {
					t.Fatalf("row %d[%d] = %d want %d", v, p, g.VertexAt(wi), adj[p])
				}
			}
		}
		if _, ok := g.Index(Vertex(1 << 40)); ok {
			t.Fatal("Index found absent vertex")
		}
	}
}

// TestIndexLabellings checks Index against each label's position in
// the sorted vertex order under labellings that do and do not take the
// one-compare path: 0..n−1, 3v+7, negative labels, and labellings
// where only a prefix of labels sits at its own position. Absent
// labels inside and outside 0..n−1 must report absence, and the rows
// must translate through the same labels.
func TestIndexLabellings(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	relabel := map[string]func(v Vertex) Vertex{
		"identity": func(v Vertex) Vertex { return v },
		"3v+7":     func(v Vertex) Vertex { return 3*v + 7 },
		"negative": func(v Vertex) Vertex { return v - 20 },
		"prefix":   func(v Vertex) Vertex { return v + v/5*v },
	}
	for name, f := range relabel {
		for trial := 0; trial < 10; trial++ {
			h := randomConnected(r, 2+r.Intn(40))
			b := NewBuilder()
			for _, e := range h.Edges() {
				b.AddEdge(f(e.U), f(e.V))
			}
			g := b.Build()
			present := make(map[Vertex]bool)
			for i, v := range g.Vertices() {
				present[v] = true
				if j, ok := g.Index(v); !ok || int(j) != i {
					t.Fatalf("%s: Index(%d) = %d,%v want %d", name, v, j, ok, i)
				}
				for p, wi := range g.Row(int32(i)) {
					if g.VertexAt(wi) != g.Adj(v)[p] {
						t.Fatalf("%s: row %d[%d] = %d want %d", name, v, p, g.VertexAt(wi), g.Adj(v)[p])
					}
				}
			}
			for v := Vertex(-25); v < Vertex(3*g.N()+10); v++ {
				if _, ok := g.Index(v); ok != present[v] {
					t.Fatalf("%s: Index(%d) presence %v, want %v", name, v, ok, present[v])
				}
			}
		}
	}
}

// TestDistScratchMatchesDist checks the int-indexed distance equals the
// map-based one on random pairs, including disconnected ones.
func TestDistScratchMatchesDist(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	sc := NewSearchScratch()
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(r, 2+r.Intn(40))
		vs := g.Vertices()
		for i := 0; i < 30; i++ {
			u, v := vs[r.Intn(len(vs))], vs[r.Intn(len(vs))]
			if got, want := g.DistScratch(u, v, sc), g.Dist(u, v); got != want {
				t.Fatalf("DistScratch(%d,%d) = %d want %d", u, v, got, want)
			}
		}
		if d := g.DistScratch(vs[0], Vertex(1<<40), sc); d != Infinity {
			t.Fatalf("absent target: got %d", d)
		}
	}
}

// TestSearchScratchAllocs pins the steady-state zero-allocation contract
// of the scratch-based search.
func TestSearchScratchAllocs(t *testing.T) {
	g := randomConnected(rand.New(rand.NewSource(9)), 64)
	vs := g.Vertices()
	sc := NewSearchScratch()
	g.DistScratch(vs[0], vs[len(vs)-1], sc) // size the scratch + build the mirror
	avg := testing.AllocsPerRun(200, func() {
		g.DistScratch(vs[0], vs[len(vs)-1], sc)
	})
	if avg != 0 {
		t.Fatalf("DistScratch allocates %v/op in steady state, want 0", avg)
	}
}
