package sim

import (
	"math/rand"
	"testing"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/route"
)

// BenchmarkRunScratch times warm walks with a reused scratch, so only
// the walk itself (decisions, hop checks, loop detection) is measured:
//
//   - cycle300-alg2: Algorithm 2 at its threshold k=100 on a 300-cycle,
//     views prewarmed, ~75-hop walks with real decisions;
//   - cycle300-alg2-sparse: the same cycle labelled 3v+7, so every
//     label→index lookup takes the graph's label map instead of the
//     0..n−1 compare;
//   - csr-grid: dimension-order routing on a 200×200 bigraph CSR grid,
//     whose decision is a few compares, so the harness dominates.
func BenchmarkRunScratch(b *testing.B) {
	cycle := func(b *testing.B, label func(graph.Vertex) graph.Vertex) {
		const n = 300
		bld := graph.NewBuilder()
		for v := graph.Vertex(0); v < n; v++ {
			bld.AddEdge(label(v), label((v+1)%n))
		}
		g := bld.Build()
		alg := route.Algorithm2()
		f := Func(alg.Bind(g, alg.MinK(n)))
		opts := Options{DetectLoops: true, PredecessorAware: true}
		rng := rand.New(rand.NewSource(7))
		pairs := make([][2]graph.Vertex, 256)
		for i := range pairs {
			pairs[i] = [2]graph.Vertex{label(graph.Vertex(rng.Intn(n))), label(graph.Vertex(rng.Intn(n)))}
		}
		benchWalks(b, pairs, func(p [2]graph.Vertex, sc *Scratch) *Result {
			return RunStoreScratch(g, f, p[0], p[1], opts, sc)
		})
	}
	b.Run("cycle300-alg2", func(b *testing.B) {
		cycle(b, func(v graph.Vertex) graph.Vertex { return v })
	})
	b.Run("cycle300-alg2-sparse", func(b *testing.B) {
		cycle(b, func(v graph.Vertex) graph.Vertex { return 3*v + 7 })
	})
	b.Run("csr-grid", func(b *testing.B) {
		const side = 200
		c, err := gen.GridCSR(side, side)
		if err != nil {
			b.Fatal(err)
		}
		// Column first, then row: label r·side+c, as GridCSR numbers it.
		f := Func(func(_, t, u, _ graph.Vertex) (graph.Vertex, error) {
			switch uc, tc := u%side, t%side; {
			case uc < tc:
				return u + 1, nil
			case uc > tc:
				return u - 1, nil
			case u < t:
				return u + side, nil
			default:
				return u - side, nil
			}
		})
		opts := Options{DetectLoops: true, PredecessorAware: true}
		rng := rand.New(rand.NewSource(7))
		pairs := make([][2]graph.Vertex, 256)
		for i := range pairs {
			pairs[i] = [2]graph.Vertex{graph.Vertex(rng.Intn(side * side)), graph.Vertex(rng.Intn(side * side))}
		}
		benchWalks(b, pairs, func(p [2]graph.Vertex, sc *Scratch) *Result {
			return RunStoreScratch(c, f, p[0], p[1], opts, sc)
		})
	})
}

// benchWalks warms every pair once (views, scratch high-water marks),
// then times walk over the pairs round-robin and reports hops per walk.
func benchWalks(b *testing.B, pairs [][2]graph.Vertex, walk func([2]graph.Vertex, *Scratch) *Result) {
	sc := NewScratch()
	hops := 0
	for _, p := range pairs {
		res := walk(p, sc)
		if res.Outcome != Delivered {
			b.Fatalf("walk %v: %v", p, res.Outcome)
		}
		hops += res.Len()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walk(pairs[i%len(pairs)], sc)
	}
	b.ReportMetric(float64(hops)/float64(len(pairs)), "hops/walk")
}
