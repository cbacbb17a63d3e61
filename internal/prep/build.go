package prep

import (
	"slices"
	"sync"

	"klocal/internal/bigraph"
	"klocal/internal/graph"
	"klocal/internal/nbhd"
)

// This file is the preprocessing build: G_k(u) extraction, dormancy,
// the routing view G'_k(u), its classification and the next-hop table,
// all int-indexed in pooled scratch. Local index order is label order,
// so an edge's rank is a compare of its local index pair and every
// canonical tie-break survives the translation. The map-based build it
// replaced survives as Reference (reference.go); the differential tests
// and the klocalcheck compact, delta and csr properties pin the two
// equal field by field.

// builder is the working memory of one view build. It grows to the
// largest view it has seen and is then reused without allocating.
type builder struct {
	// nb extracts G_k(u) into nb.View, then classifies G'_k(u) once the
	// routing view below is installed there.
	nb nbhd.Scratch

	// Bounded BFS state over raw local indices: mark[x] == epoch means
	// x was reached, at distance dist[x].
	mark  []uint32
	dist  []int32
	queue []int32
	epoch uint32

	dormArc []bool       // per raw arc position: its edge is dormant
	dormant []graph.Edge // the dormant edges, in rank order
	first   []int32      // per raw index: lowest first hop on a shortest path, -1 for none
	rdist   []int32      // per raw index: routing distance, -1 outside G'_k(u)
	rloc    []int32      // per raw index: routing local index

	// G'_k(u) in routing local indices.
	rverts []graph.Vertex
	rdists []int32
	rstart []int32
	radj   []int32
}

var builders = sync.Pool{New: func() any { return new(builder) }}

// build computes the view at u over st. Extraction is int-indexed for
// every store: the CSR and graph.Graph ones walk their dense index
// spaces, any other store is read by label.
func build(st bigraph.Store, u graph.Vertex, k int, pol Policy) *View {
	b := builders.Get().(*builder)
	defer builders.Put(b)
	if !b.nb.ExtractStore(st, u, k) {
		// Absent centre or negative k: the empty view.
		return &View{Center: u, K: k, C: Compact{
			Raw:     &nbhd.CompactView{Center: u, K: int32(k)},
			Routing: &nbhd.CompactView{Center: u, K: int32(k)},
		}}
	}
	raw := b.nb.View // aliases nb's extraction buffers, which Classify leaves alone
	b.grow(raw.NV(), len(raw.Adj))
	b.classifyDormancy(&raw, k, pol)
	b.nextHops(&raw)
	b.routingView(&raw, k)
	b.nb.View = nbhd.CompactView{
		Center: u, CenterIdx: b.rloc[raw.CenterIdx], K: int32(k),
		Verts: b.rverts, Dist: b.rdists, AdjStart: b.rstart, Adj: b.radj,
	}
	b.nb.Classify()
	return b.emit(&raw)
}

// grow sizes the per-raw-index and per-arc arrays.
func (b *builder) grow(nv, na int) {
	if len(b.mark) < nv {
		b.mark = make([]uint32, nv)
		b.dist = make([]int32, nv)
		b.first = make([]int32, nv)
		b.rdist = make([]int32, nv)
		b.rloc = make([]int32, nv)
		b.epoch = 0
	}
	if len(b.dormArc) < na {
		b.dormArc = make([]bool, na)
	}
}

// begin starts a bounded BFS at src.
func (b *builder) begin(src int32) {
	b.epoch++
	if b.epoch == 0 { // uint32 wrap: every mark is stale
		clear(b.mark)
		b.epoch = 1
	}
	b.mark[src] = b.epoch
	b.dist[src] = 0
	b.queue = append(b.queue[:0], src)
}

// classifyDormancy marks the dormant arcs of the raw view and lists the
// dormant edges. An edge {a, z} is dormant iff the view has a path from
// a to z of length at most 2k−1 over edges ranked beyond it in the
// policy's order (the package comment's criterion). Rows are ascending
// and only a < z is tried, so the list comes out in rank order.
func (b *builder) classifyDormancy(raw *nbhd.CompactView, k int, pol Policy) {
	clear(b.dormArc[:len(raw.Adj)])
	b.dormant = b.dormant[:0]
	maxLen := int32(2*k - 1)
	for a := int32(0); a < int32(raw.NV()); a++ {
		for p := raw.AdjStart[a]; p < raw.AdjStart[a+1]; p++ {
			z := raw.Adj[p]
			if z < a || !b.shortBypass(raw, a, z, maxLen, pol == PolicyMaxRank) {
				continue
			}
			b.dormArc[p] = true
			b.dormArc[arcPos(raw, z, a)] = true
			b.dormant = append(b.dormant, graph.Edge{U: raw.Verts[a], V: raw.Verts[z]})
		}
	}
}

// shortBypass reports whether the view has a path from a to z (a < z)
// of length at most maxLen that uses only edges ranked after {a, z}, or
// before it when below is set.
func (b *builder) shortBypass(raw *nbhd.CompactView, a, z, maxLen int32, below bool) bool {
	b.begin(a)
	for head := 0; head < len(b.queue); head++ {
		x := b.queue[head]
		d := b.dist[x]
		if d == maxLen {
			break // BFS order: every vertex left in the queue is this deep
		}
		for _, y := range raw.Row(x) {
			if b.mark[y] == b.epoch {
				continue
			}
			lo, hi := x, y
			if lo > hi {
				lo, hi = hi, lo
			}
			after := lo > a || (lo == a && hi > z)
			before := lo < a || (lo == a && hi < z)
			if (below && !before) || (!below && !after) {
				continue
			}
			if y == z {
				return true
			}
			b.mark[y] = b.epoch
			b.dist[y] = d + 1
			b.queue = append(b.queue, y)
		}
	}
	return false
}

// arcPos returns the position of arc x→y in the view's adjacency.
func arcPos(cv *nbhd.CompactView, x, y int32) int32 {
	lo, hi := cv.AdjStart[x], cv.AdjStart[x+1]
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if cv.Adj[mid] < y {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// nextHops fills first with the canonical next hop from the centre
// toward every raw vertex in one BFS: the first hops of the shortest
// paths to y are the union of those to y's predecessors, so the lowest
// one is the minimum over the predecessors, and BFS order finishes
// every predecessor before y.
func (b *builder) nextHops(raw *nbhd.CompactView) {
	first := b.first[:raw.NV()]
	for i := range first {
		first[i] = -1
	}
	c := raw.CenterIdx
	b.queue = append(b.queue[:0], c)
	for head := 0; head < len(b.queue); head++ {
		x := b.queue[head]
		for _, y := range raw.Row(x) {
			if raw.Dist[y] != raw.Dist[x]+1 {
				continue
			}
			f := first[x]
			if x == c {
				f = y
			}
			if first[y] < 0 {
				first[y] = f
				b.queue = append(b.queue, y)
			} else if f < first[y] {
				first[y] = f
			}
		}
	}
}

// routingView builds G'_k(u) into the r* buffers: a BFS from the centre
// over non-dormant arcs to depth k, keeping an edge when one endpoint
// lies at routing distance below k (Extract's rule), re-indexed in
// ascending order.
func (b *builder) routingView(raw *nbhd.CompactView, k int) {
	nv := raw.NV()
	rdist := b.rdist[:nv]
	for i := range rdist {
		rdist[i] = -1
	}
	rdist[raw.CenterIdx] = 0
	b.queue = append(b.queue[:0], raw.CenterIdx)
	for head := 0; head < len(b.queue); head++ {
		x := b.queue[head]
		d := rdist[x]
		if int(d) >= k {
			continue
		}
		for p := raw.AdjStart[x]; p < raw.AdjStart[x+1]; p++ {
			if y := raw.Adj[p]; !b.dormArc[p] && rdist[y] < 0 {
				rdist[y] = d + 1
				b.queue = append(b.queue, y)
			}
		}
	}
	b.rverts, b.rdists = b.rverts[:0], b.rdists[:0]
	for i, d := range rdist {
		if d >= 0 {
			b.rloc[i] = int32(len(b.rverts))
			b.rverts = append(b.rverts, raw.Verts[i])
			b.rdists = append(b.rdists, d)
		}
	}
	b.rstart, b.radj = b.rstart[:0], b.radj[:0]
	for x, dx := range rdist {
		if dx < 0 {
			continue
		}
		b.rstart = append(b.rstart, int32(len(b.radj)))
		for p := raw.AdjStart[x]; p < raw.AdjStart[x+1]; p++ {
			y := raw.Adj[p]
			if dy := rdist[y]; !b.dormArc[p] && dy >= 0 && (int(dx) < k || int(dy) < k) {
				b.radj = append(b.radj, b.rloc[y])
			}
		}
	}
	b.rstart = append(b.rstart, int32(len(b.radj)))
}

// emit copies the build out of scratch into a heap-owned view: one
// block for the view and its two compact views, one arena per element
// type, so a view costs the same few allocations at every k.
func (b *builder) emit(raw *nbhd.CompactView) *View {
	rt := &b.nb.View
	comps := b.nb.Comps
	center := rt.CenterIdx
	nroots, ncomp := 0, 0
	for i := range comps {
		if comps[i].Active {
			nroots += len(comps[i].Roots)
		}
		ncomp += len(comps[i].Verts) + len(comps[i].Roots) + len(comps[i].Constraints)
	}
	nv, rnv := raw.NV(), rt.NV()

	blk := new(struct {
		v        View
		raw, rtg nbhd.CompactView
	})
	v := &blk.v
	v.Center, v.K = raw.Center, int(raw.K)
	if len(b.dormant) > 0 {
		v.Dormant = slices.Clone(b.dormant)
	}
	verts := make([]graph.Vertex, 2*nv+rnv+nroots)
	ints := make([]int32, 2*nv+1+len(raw.Adj)+3*rnv+1+len(rt.Adj)+ncomp)

	blk.raw = nbhd.CompactView{
		Center: raw.Center, CenterIdx: raw.CenterIdx, K: raw.K,
		Verts:    carveCopy(&verts, raw.Verts),
		Dist:     carveCopy(&ints, raw.Dist),
		AdjStart: carveCopy(&ints, raw.AdjStart),
		Adj:      carveCopy(&ints, raw.Adj),
	}
	v.C.Raw = &blk.raw
	v.C.NextHop = carve(&verts, nv)
	for t, f := range b.first[:nv] {
		v.C.NextHop[t] = graph.NoVertex
		if f >= 0 {
			v.C.NextHop[t] = raw.Verts[f]
		}
	}

	blk.rtg = nbhd.CompactView{
		Center: rt.Center, CenterIdx: center, K: rt.K,
		Verts:    carveCopy(&verts, rt.Verts),
		Dist:     carveCopy(&ints, rt.Dist),
		AdjStart: carveCopy(&ints, rt.AdjStart),
		Adj:      carveCopy(&ints, rt.Adj),
	}
	v.C.Routing = &blk.rtg
	v.C.CompID = carve(&ints, rnv)
	for i := range v.C.CompID {
		v.C.CompID[i] = -1
	}
	if len(comps) > 0 {
		v.C.Comps = make([]nbhd.CompactComponent, len(comps))
	}
	for i := range comps {
		cc := &comps[i]
		v.C.Comps[i] = nbhd.CompactComponent{
			Verts:       carveCopy(&ints, cc.Verts),
			Roots:       carveCopy(&ints, cc.Roots),
			Constraints: carveCopy(&ints, cc.Constraints),
			Active:      cc.Active,
			Independent: cc.Independent,
			Constrained: cc.Constrained,
		}
		for _, li := range cc.Verts {
			v.C.CompID[li] = int32(i)
		}
	}

	// The centre's routing row is ascending, so the active roots come
	// out in rank order.
	v.ActiveRoots = carve(&verts, nroots)
	n := 0
	for _, r := range rt.Row(center) {
		if comps[v.C.CompID[r]].Active {
			v.ActiveRoots[n] = rt.Verts[r]
			n++
		}
	}
	return v
}

// carve cuts the next n elements off *buf with their capacity capped,
// so an append on one field can never overwrite the next; nil for n = 0.
func carve[T any](buf *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}

// carveCopy carves len(src) elements and copies src into them.
func carveCopy[T any](buf *[]T, src []T) []T {
	s := carve(buf, len(src))
	copy(s, src)
	return s
}
