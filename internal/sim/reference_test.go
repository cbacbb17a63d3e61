package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"klocal/internal/bigraph"
	"klocal/internal/gen"
	"klocal/internal/graph"
)

// referenceRun is the label-space walk the index walk replaced, kept as
// its oracle: hop legality through Network.HasEdge and loop detection
// through hash maps of visited directed edges (predecessor-aware) or
// nodes (oblivious). dist is the Result's Dist, computed by the caller.
func referenceRun(g Network, f Func, s, t graph.Vertex, opts Options, dist int) *Result {
	type dirEdge struct{ from, to graph.Vertex }
	seenEdges := map[dirEdge]bool{}
	seenNodes := map[graph.Vertex]bool{}
	res := &Result{Route: []graph.Vertex{s}, Dist: dist}
	if s == t {
		res.Outcome = Delivered
		return res
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 4 * (g.N() + 1) * (g.M() + 1)
	}
	u, v := s, graph.NoVertex
	for step := 0; step < maxSteps; step++ {
		next, err := f(s, t, u, v)
		if err != nil {
			res.Outcome = Errored
			res.Err = err
			return res
		}
		if !g.HasEdge(u, next) {
			res.Outcome = Errored
			res.Err = fmt.Errorf("%w: %d -> %d", ErrIllegalHop, u, next)
			return res
		}
		if opts.DetectLoops {
			if opts.PredecessorAware {
				e := dirEdge{from: u, to: next}
				if seenEdges[e] {
					res.Outcome = Looped
					return res
				}
				seenEdges[e] = true
			} else {
				if seenNodes[u] {
					res.Outcome = Looped
					return res
				}
				seenNodes[u] = true
			}
		}
		res.Route = append(res.Route, next)
		u, v = next, u
		if u == t {
			res.Outcome = Delivered
			return res
		}
	}
	res.Outcome = Exhausted
	return res
}

var errWalker = errors.New("walker gave up")

// walker returns a deterministic routing function over g's labels. It
// forwards straight to t when t is a neighbour; otherwise its choice
// hashes (s, t, u, v) — or (s, t, u) when oblivious — onto u's
// neighbours, so walks deliver, loop or run out of steps depending on
// the seed. Faults are keyed on u, since a memoryless function cannot
// count hops: away from s, it returns errWalker at every u ≡ errAt
// (mod 7) and forwards to bad at every u ≡ badAt (mod 5). A negative
// errAt or badAt disables that fault.
func walker(g *graph.Graph, seed uint64, oblivious bool, errAt, badAt int, bad graph.Vertex) Func {
	return func(s, t, u, v graph.Vertex) (graph.Vertex, error) {
		if errAt >= 0 && u != s && int(u)%7 == errAt {
			return graph.NoVertex, errWalker
		}
		if badAt >= 0 && u != s && int(u)%5 == badAt {
			return bad, nil
		}
		nbrs := g.Adj(u)
		if len(nbrs) == 0 {
			return graph.NoVertex, errWalker
		}
		for _, w := range nbrs {
			if w == t {
				return t, nil
			}
		}
		h := seed ^ uint64(s)*0x9E3779B97F4A7C15 ^ uint64(t)*0xC2B2AE3D27D4EB4F ^ uint64(u)*0x165667B19E3779F9
		if !oblivious {
			h ^= uint64(v) * 0xD6E8FEB86659FD93
		}
		h ^= h >> 29
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 32
		return nbrs[h%uint64(len(nbrs))], nil
	}
}

// sparseLabels relabels g onto a sparse label set, so a bigraph CSR
// built from it keeps a labels table and VertexAt is not the identity.
func sparseLabels(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	perm := gen.RandomLabelPermutation(rng, g)
	for v, w := range perm {
		perm[v] = 3*w + 11
	}
	return g.PermuteLabels(perm)
}

// sameResult reports how got differs from want, or "" when it does not.
func sameResult(got, want *Result) string {
	if got.Outcome != want.Outcome {
		return fmt.Sprintf("outcome %v, want %v", got.Outcome, want.Outcome)
	}
	if !slices.Equal(got.Route, want.Route) {
		return fmt.Sprintf("route %v, want %v", got.Route, want.Route)
	}
	if got.Dist != want.Dist {
		return fmt.Sprintf("dist %d, want %d", got.Dist, want.Dist)
	}
	if (got.Err == nil) != (want.Err == nil) {
		return fmt.Sprintf("err %v, want %v", got.Err, want.Err)
	}
	for _, sentinel := range []error{ErrIllegalHop, errWalker} {
		if errors.Is(got.Err, sentinel) != errors.Is(want.Err, sentinel) {
			return fmt.Sprintf("err %v, want %v", got.Err, want.Err)
		}
	}
	if got.Err != nil && got.Err.Error() != want.Err.Error() {
		return fmt.Sprintf("err %q, want %q", got.Err, want.Err)
	}
	return ""
}

// TestRunMatchesReference holds the index walk to the map-based oracle:
// same outcome, route, distance and error on random connected graphs,
// served as *graph.Graph and as a sparse-labelled bigraph CSR, in both
// loop-detection modes and with detection off, under step limits, and
// for routing functions that loop, fail, forward to non-neighbours, or
// are asked about absent endpoints. One scratch serves every walk, so
// stale state from an earlier walk would show up as a divergence.
func TestRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sc := NewScratch()
	walks := 0
	outcomes := map[Outcome]int{}
	for trial := 0; trial < 60; trial++ {
		g := gen.RandomConnected(rng, 3+rng.Intn(14), 0.05+0.3*rng.Float64())
		if trial%2 == 1 {
			g = sparseLabels(rng, g)
		}
		stores := []struct {
			name string
			net  Network
		}{{"graph", g}, {"csr", bigraph.FromGraph(g)}}
		vs := g.Vertices()
		absent := vs[len(vs)-1] + 1
		for rep := 0; rep < 12; rep++ {
			s, tt := vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))]
			switch rep {
			case 0:
				s = absent
			case 1:
				tt = absent
			}
			oblivious := rng.Intn(2) == 0
			errAt, badAt := -1, -1
			bad := vs[rng.Intn(len(vs))] // often a non-neighbour
			switch rng.Intn(4) {
			case 0:
				errAt = rng.Intn(7)
			case 1:
				badAt = rng.Intn(5)
				if rng.Intn(2) == 0 {
					bad = absent
				}
			}
			f := walker(g, rng.Uint64(), oblivious, errAt, badAt, bad)
			for _, opts := range []Options{
				{DetectLoops: true, PredecessorAware: true},
				{DetectLoops: true, PredecessorAware: false},
				{DetectLoops: true, PredecessorAware: !oblivious, MaxSteps: 1 + rng.Intn(6)},
				{MaxSteps: 1 + rng.Intn(40)},
				{}, // no loop detection, default budget
			} {
				for _, st := range stores {
					var got *Result
					dist := 0
					if gg, ok := st.net.(*graph.Graph); ok {
						got = RunScratch(gg, f, s, tt, opts, sc)
						dist = gg.Dist(s, tt)
					} else {
						got = RunStoreScratch(st.net, f, s, tt, opts, sc)
					}
					want := referenceRun(st.net, f, s, tt, opts, dist)
					if diff := sameResult(got, want); diff != "" {
						t.Fatalf("trial %d %s s=%d t=%d opts=%+v: %s", trial, st.name, s, tt, opts, diff)
					}
					walks++
					outcomes[want.Outcome]++
				}
			}
		}
	}
	// The comparison means little unless every outcome occurred.
	for _, o := range []Outcome{Delivered, Looped, Errored, Exhausted} {
		if outcomes[o] == 0 {
			t.Errorf("no walk ended %v across %d walks: the generator lost coverage", o, walks)
		}
	}
	t.Logf("%d walks, outcomes %v", walks, outcomes)
}

// TestRunLoopAcrossStateSetGrowth walks a cycle far enough that the
// state set doubles more than once, then loops back onto the walk's
// first state, inserted before any growth: the loop must still be found,
// at exactly the hop the oracle finds it.
func TestRunLoopAcrossStateSetGrowth(t *testing.T) {
	const n = 5 * minStateSlots
	g := gen.Cycle(n)
	clockwise := func(_, _, u, _ graph.Vertex) (graph.Vertex, error) {
		return (u + 1) % n, nil
	}
	sc := NewScratch()
	for _, aware := range []bool{true, false} {
		opts := Options{DetectLoops: true, PredecessorAware: aware}
		for _, st := range []Network{g, bigraph.FromGraph(g)} {
			got := RunStoreScratch(st, clockwise, 0, graph.NoVertex, opts, sc)
			if got.Outcome != Looped {
				t.Fatalf("aware=%v: outcome %v, want Looped", aware, got.Outcome)
			}
			want := referenceRun(st, clockwise, 0, graph.NoVertex, opts, 0)
			if diff := sameResult(got, want); diff != "" {
				t.Fatalf("aware=%v: %s", aware, diff)
			}
			if got.Len() != n {
				t.Fatalf("aware=%v: looped after %d hops, want one lap of %d", aware, got.Len(), n)
			}
		}
		if len(sc.seen.slots) <= minStateSlots {
			t.Fatalf("the state set never grew (%d slots)", len(sc.seen.slots))
		}
	}
}

// TestStateSetEpochWrap checks that the epoch wrap clears stale stamps
// rather than reviving a state from the walk 2³² resets ago, whose
// epoch the wrapped counter reuses.
func TestStateSetEpochWrap(t *testing.T) {
	var ss stateSet
	key := uint64(42)
	ss.reset()
	ss.insert(key) // stamped with epoch 1
	ss.epoch = ^uint32(0)
	ss.reset() // wraps past 0 back to epoch 1
	if ss.insert(key) {
		t.Fatal("a state from before the epoch wrap survived the reset")
	}
}
