package main

import (
	"fmt"

	"klocal/internal/graph"
)

// edgeSet answers edge membership in the topology that served a walk.
type edgeSet interface {
	HasEdge(u, v graph.Vertex) bool
}

// checkWalk returns nil when walk is a delivered route from s to t whose
// every hop is an edge of top and, when dist > 0 and bound > 0, whose
// length is at most bound·dist (Algorithm 2's Table 2 dilation bound).
func checkWalk(top edgeSet, s, t graph.Vertex, walk []graph.Vertex, delivered bool, dist int, bound float64) error {
	if !delivered {
		return fmt.Errorf("(%d→%d) not delivered after %d hops", s, t, max(len(walk)-1, 0))
	}
	if len(walk) == 0 || walk[0] != s || walk[len(walk)-1] != t {
		return fmt.Errorf("(%d→%d) walk does not run from s to t: %v", s, t, walk)
	}
	for i := 1; i < len(walk); i++ {
		if !top.HasEdge(walk[i-1], walk[i]) {
			return fmt.Errorf("(%d→%d) hop %d→%d is not an edge", s, t, walk[i-1], walk[i])
		}
	}
	if hops := len(walk) - 1; dist > 0 && bound > 0 && float64(hops) > bound*float64(dist) {
		return fmt.Errorf("(%d→%d) %d hops exceed %g·dist = %g", s, t, hops, bound, bound*float64(dist))
	}
	return nil
}

// withoutEdge is a topology with one edge removed: a churn epoch in
// which a flap has taken out gone.
type withoutEdge struct {
	base edgeSet
	gone graph.Edge
}

func (w withoutEdge) HasEdge(u, v graph.Vertex) bool {
	return graph.NewEdge(u, v) != w.gone && w.base.HasEdge(u, v)
}
