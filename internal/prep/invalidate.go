package prep

import (
	"klocal/internal/bigraph"
	"klocal/internal/graph"
)

// This file is the churn-facing side of the view cache. A topology
// delta on edge {x, y} can change G_k(u) only for u within distance k
// of x or y (the locality theorem read as an invalidation bound —
// internal/churn computes that dirty set); every other cached view is
// still byte-identical on the new topology and must survive. Two
// entry points cover the two mutation disciplines:
//
//   - Invalidate evicts the dirty rows in place. Correct when the
//     preprocessor's own store reflects the new topology (a mutable
//     store, or no topology change at all — e.g. cache pressure).
//
//   - Derive builds a NEW preprocessor over the post-delta store that
//     adopts every surviving view and recomputes only the dirty ones
//     lazily. The receiver is left untouched, so in-flight routes keep
//     reading a consistent (old graph, old views) pair — the epoch
//     isolation klocald's PATCH /graph path relies on.

// Invalidate evicts exactly the cached views of the dirty vertices and
// returns how many resident views were actually dropped; absent and
// repeated vertices drop nothing. Untouched views survive, including
// their Compact encodings. It is safe under concurrent At: routing that
// holds an evicted *View keeps a consistent immutable value, and the
// next At on a dirty vertex recomputes through the store.
func (p *Preprocessor) Invalidate(dirty []graph.Vertex) int {
	if len(dirty) == 0 {
		return 0
	}
	if p.ring != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	dropped := 0
	for _, u := range dirty {
		if i, ok := p.st.Index(u); ok && p.table[i].Swap(nil) != nil {
			p.size.Add(-1)
			dropped++
		}
	}
	if dropped > 0 {
		// Free the ring slots of the dropped views.
		for r, i := range p.ring {
			if i >= 0 && p.table[i].Load() == nil {
				p.ring[r] = -1
			}
		}
	}
	return dropped
}

// Derive returns a preprocessor bound to st — the post-delta topology —
// that adopts every cached view of p except those of dirty vertices.
// Cache tuning (capacity, policy, locality) carries over; p is not
// modified and stays fully usable over its own store, so old-epoch
// readers and the derived new epoch never observe a torn
// (graph, views) pair. Adoption copies p's table: a view keeps its
// index where the vertex still has it, and is remapped by label where
// added or removed vertices shifted the indices. Warm hits on the new
// epoch need no lock from the start.
func (p *Preprocessor) Derive(st bigraph.Store, dirty []graph.Vertex) *Preprocessor {
	np := NewPreprocessorStoreOpts(st, p.k, p.pol, CacheOptions{Capacity: p.capacity})
	if p.ring != nil {
		// Hold the residency still, so adoption cannot exceed capacity.
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	n := int32(st.N())
	for i := range p.table {
		v := p.table[i].Load()
		if v == nil {
			continue
		}
		j, ok := int32(i), true
		if j >= n || st.VertexAt(j) != v.Center {
			j, ok = st.Index(v.Center)
		}
		if ok {
			np.table[j].Store(v)
		}
	}
	for _, u := range dirty {
		if j, ok := st.Index(u); ok {
			np.table[j].Store(nil)
		}
	}
	size := 0
	for j := range np.table {
		if np.table[j].Load() == nil {
			continue
		}
		if np.ring != nil {
			np.ring[size] = int32(j)
		}
		size++
	}
	np.size.Store(int64(size))
	if len(np.ring) > 0 {
		np.hand = size % len(np.ring)
	}
	return np
}
