package prep

import (
	"fmt"
	"slices"
	"sort"

	"klocal/internal/bigraph"
	"klocal/internal/graph"
	"klocal/internal/nbhd"
)

// RefView is the map-based preprocessed view: the direct transcription
// of Section 5.1 that the int-indexed build replaced. It is the test
// oracle — the reference routing steps (route/reference.go), the
// klocalcheck compact, delta and csr properties and the differential
// tests read it — and never serves traffic. Its embedded View carries
// the same fields the production build emits, derived here from the
// map form, so the two compare field by field.
type RefView struct {
	View
	// Raw is the unprocessed k-neighbourhood G_k(u).
	Raw *nbhd.Neighborhood
	// Routing is G'_k(u): the dormant-free neighbourhood re-restricted to
	// paths of length at most k rooted at the centre.
	Routing *graph.Graph
	// RoutingDist maps each vertex of Routing to its distance from the
	// centre along routing edges.
	RoutingDist map[graph.Vertex]int
	// Comps are the local components of G'_k(u), classified with routing
	// distances, ordered by lowest root label.
	Comps []*nbhd.Component
}

// Reference computes the view at u the map-based way: a graph.Builder
// copy of G_k(u), one HasPathAvoiding BFS per edge, WithoutEdges and a
// second Extract, then a FromView round trip into the compact fields.
func Reference(st bigraph.Store, u graph.Vertex, k int, pol Policy) *RefView {
	raw := nbhd.ExtractStore(st, u, k)
	v := &RefView{View: View{Center: u, K: k}, Raw: raw}
	for _, e := range raw.G.Edges() {
		allow := func(f graph.Edge) bool { return e.Less(f) }
		if pol == PolicyMaxRank {
			allow = func(f graph.Edge) bool { return f.Less(e) }
		}
		if raw.G.HasPathAvoiding(e.U, e.V, 2*k-1, allow) {
			// Edges() is rank-ordered, so Dormant stays sorted.
			v.Dormant = append(v.Dormant, e)
		}
	}
	inner := nbhd.Extract(raw.G.WithoutEdges(v.Dormant), u, k)
	v.Routing = inner.G
	v.RoutingDist = inner.Dist
	v.Comps = nbhd.ClassifyView(v.Routing, u, k)
	for _, c := range v.Comps {
		if c.Active {
			v.ActiveRoots = append(v.ActiveRoots, c.Roots...)
		}
	}
	sort.Slice(v.ActiveRoots, func(i, j int) bool { return v.ActiveRoots[i] < v.ActiveRoots[j] })
	v.C = referenceCompact(raw.G, v.Routing, u, k)
	return v
}

// referenceCompact encodes the map views through FromView, with one
// NextHopToward BFS per target.
func referenceCompact(raw, routing *graph.Graph, u graph.Vertex, k int) Compact {
	empty := &nbhd.CompactView{Center: u, K: int32(k)}
	c := Compact{Raw: empty, Routing: empty}
	sc := nbhd.NewScratch()
	if !sc.FromView(raw, u, k) {
		return c // absent centre: the empty view
	}
	c.Raw = sc.View.Clone()
	c.NextHop = make([]graph.Vertex, sc.View.NV())
	for t := range c.NextHop {
		c.NextHop[t] = graph.NoVertex
		if hop := sc.NextHopToward(sc.View.CenterIdx, int32(t)); hop >= 0 {
			c.NextHop[t] = sc.View.Verts[hop]
		}
	}
	sc.FromView(routing, u, k)
	sc.Classify()
	c.Routing = sc.View.Clone()
	c.CompID = make([]int32, sc.View.NV())
	for i := range c.CompID {
		c.CompID[i] = -1
	}
	for i := range sc.Comps {
		cc := &sc.Comps[i]
		c.Comps = append(c.Comps, nbhd.CompactComponent{
			Verts:       append([]int32(nil), cc.Verts...),
			Roots:       append([]int32(nil), cc.Roots...),
			Constraints: append([]int32(nil), cc.Constraints...),
			Active:      cc.Active,
			Independent: cc.Independent,
			Constrained: cc.Constrained,
		})
		for _, li := range cc.Verts {
			c.CompID[li] = int32(i)
		}
	}
	return c
}

// CompOf returns the local component of G'_k(u) containing w, or nil if w
// is the centre or outside the routing view.
func (v *RefView) CompOf(w graph.Vertex) *nbhd.Component {
	for _, c := range v.Comps {
		if c.Has(w) {
			return c
		}
	}
	return nil
}

// CompRootedAt returns the component having w as a root, or nil.
func (v *RefView) CompRootedAt(w graph.Vertex) *nbhd.Component {
	for _, c := range v.Comps {
		for _, r := range c.Roots {
			if r == w {
				return c
			}
		}
	}
	return nil
}

// Diff reports the first field in which view v differs from want, or
// nil when Center, K, Dormant, ActiveRoots and every compact field are
// equal (a nil slice equals an empty one). It is how the build is
// compared with Reference.
func (v *View) Diff(want *View) error {
	switch {
	case v.Center != want.Center || v.K != want.K:
		return fmt.Errorf("centre/k (%d, %d), want (%d, %d)", v.Center, v.K, want.Center, want.K)
	case !slices.Equal(v.Dormant, want.Dormant):
		return fmt.Errorf("dormant %v, want %v", v.Dormant, want.Dormant)
	case !slices.Equal(v.ActiveRoots, want.ActiveRoots):
		return fmt.Errorf("active roots %v, want %v", v.ActiveRoots, want.ActiveRoots)
	}
	if err := diffCompactView(v.C.Raw, want.C.Raw); err != nil {
		return fmt.Errorf("C.Raw: %w", err)
	}
	if !slices.Equal(v.C.NextHop, want.C.NextHop) {
		return fmt.Errorf("C.NextHop %v, want %v", v.C.NextHop, want.C.NextHop)
	}
	if err := diffCompactView(v.C.Routing, want.C.Routing); err != nil {
		return fmt.Errorf("C.Routing: %w", err)
	}
	if !slices.Equal(v.C.CompID, want.C.CompID) {
		return fmt.Errorf("C.CompID %v, want %v", v.C.CompID, want.C.CompID)
	}
	if len(v.C.Comps) != len(want.C.Comps) {
		return fmt.Errorf("%d components, want %d", len(v.C.Comps), len(want.C.Comps))
	}
	for i := range v.C.Comps {
		a, b := &v.C.Comps[i], &want.C.Comps[i]
		if !slices.Equal(a.Verts, b.Verts) || !slices.Equal(a.Roots, b.Roots) ||
			!slices.Equal(a.Constraints, b.Constraints) || a.Active != b.Active ||
			a.Independent != b.Independent || a.Constrained != b.Constrained {
			return fmt.Errorf("C.Comps[%d] = %+v, want %+v", i, *a, *b)
		}
	}
	return nil
}

func diffCompactView(a, b *nbhd.CompactView) error {
	switch {
	case a.Center != b.Center || a.CenterIdx != b.CenterIdx || a.K != b.K:
		return fmt.Errorf("centre %d@%d k=%d, want %d@%d k=%d", a.Center, a.CenterIdx, a.K, b.Center, b.CenterIdx, b.K)
	case !slices.Equal(a.Verts, b.Verts):
		return fmt.Errorf("verts %v, want %v", a.Verts, b.Verts)
	case !slices.Equal(a.Dist, b.Dist):
		return fmt.Errorf("dist %v, want %v", a.Dist, b.Dist)
	case !slices.Equal(a.AdjStart, b.AdjStart) || !slices.Equal(a.Adj, b.Adj):
		return fmt.Errorf("adjacency %v/%v, want %v/%v", a.AdjStart, a.Adj, b.AdjStart, b.Adj)
	}
	return nil
}
