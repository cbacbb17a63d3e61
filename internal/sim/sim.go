// Package sim drives routing functions over networks: it executes the
// sequence of forwarding decisions for a single message, detects
// livelock using the paper's own criteria, and computes route metrics
// (length, dilation).
package sim

import (
	"errors"
	"fmt"

	"klocal/internal/bigraph"
	"klocal/internal/graph"
)

// Func is the routing-function signature sim drives; it is structurally
// identical to route.Func, kept separate so sim stays independent of the
// algorithm implementations.
type Func func(s, t, u, v graph.Vertex) (graph.Vertex, error)

// Outcome classifies the end of a simulated route.
type Outcome int

const (
	// Delivered means the message reached the destination.
	Delivered Outcome = iota + 1
	// Looped means the routing function revisited a decision state, so
	// the deterministic walk can never terminate (Observation 1).
	Looped
	// Errored means the routing function returned an error or an illegal
	// hop (a non-neighbour).
	Errored
	// Exhausted means the step budget ran out before any of the above
	// (only possible for randomized algorithms, whose walks have no
	// repeating-state guarantee).
	Exhausted
)

// String renders the outcome for reports.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Looped:
		return "looped"
	case Errored:
		return "errored"
	case Exhausted:
		return "exhausted"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Result describes a simulated route.
type Result struct {
	Outcome Outcome
	// Route is the walk, starting at s; for Delivered it ends at t.
	Route []graph.Vertex
	// Err carries the routing function's error when Outcome == Errored.
	Err error
	// Dist is dist(s, t) in the network.
	Dist int
}

// Len returns the route length in edges.
func (r *Result) Len() int {
	if len(r.Route) == 0 {
		return 0
	}
	return len(r.Route) - 1
}

// Clone returns an independent deep copy (Route included). Use it to
// retain a scratch-owned Result past the next RunScratch on the same
// scratch.
func (r *Result) Clone() *Result {
	cp := *r
	cp.Route = append([]graph.Vertex(nil), r.Route...)
	return &cp
}

// Dilation returns Len()/Dist. It returns 0 for s == t and +Inf-like
// MaxDilation for undelivered messages.
func (r *Result) Dilation() float64 {
	if r.Dist == 0 {
		return 0
	}
	if r.Outcome != Delivered {
		return MaxDilation
	}
	return float64(r.Len()) / float64(r.Dist)
}

// MaxDilation is the sentinel dilation of an undelivered message.
const MaxDilation = 1e18

// ErrIllegalHop is wrapped into Result.Err when a routing function
// forwards to a non-neighbour.
var ErrIllegalHop = errors.New("sim: routing function returned a non-neighbour")

// Options tune a simulation run.
type Options struct {
	// MaxSteps bounds the walk; 0 means the default 4·n·deg budget (far
	// above any deterministic non-looping walk, which Observation 1
	// bounds by 2·m).
	MaxSteps int
	// DetectLoops enables decision-state repetition detection. It must
	// be disabled for randomized algorithms. Default on (see Run).
	DetectLoops bool
	// PredecessorAware selects the loop-detection state space: directed
	// edges for predecessor-aware functions, nodes for oblivious ones.
	PredecessorAware bool
}

// Network is the topology surface the simulator walks: the bigraph
// Store contract. The walk runs in its dense index space (Index, Row,
// VertexAt), so hop legality is a binary search in the current row and
// loop detection keys on packed indices. Both *graph.Graph and the
// bigraph stores satisfy it.
type Network = bigraph.Store

// Scratch is caller-owned working memory for RunScratch/RunStoreScratch:
// the route buffer, the loop-detection state set (emptied in O(1) per
// run by an epoch bump) and the distance search's banks, all grown to a
// high-water mark and then reused without allocating. The Result
// returned by the scratch-taking entry points is owned by the scratch —
// its Route aliases the internal buffer and the next run overwrites
// both; Clone it to retain it. Not safe for concurrent use; give each
// worker its own.
type Scratch struct {
	route  []graph.Vertex
	seen   stateSet
	search *graph.SearchScratch
	res    Result
}

// NewScratch returns a ready scratch; the first run sizes it.
func NewScratch() *Scratch {
	return &Scratch{search: graph.NewSearchScratch()}
}

// Search returns the scratch's distance-search banks, for callers that
// fill Result.Dist themselves after RunStoreScratch.
func (sc *Scratch) Search() *graph.SearchScratch { return sc.search }

// stateSet is the livelock detector's set of visited decision states,
// keyed by packed dense indices: open addressing with linear probing,
// each slot stamped with the epoch that wrote it. reset empties it in
// O(1) by bumping the epoch, and insert doubles the table once it is
// half full, so its size follows the longest walk seen, not the graph.
type stateSet struct {
	slots []stateSlot
	shift uint // 64 − log2(len(slots)): the Fibonacci hash's shift
	used  int
	epoch uint32
}

type stateSlot struct {
	key   uint64
	epoch uint32
}

// minStateSlots is the set's initial capacity.
const (
	minStateBits  = 6
	minStateSlots = 1 << minStateBits
)

// fibMul is 2⁶⁴/φ, the Fibonacci hashing multiplier.
const fibMul = 0x9E3779B97F4A7C15

// reset empties the set for a new walk.
//
//klocal:hotpath
func (ss *stateSet) reset() {
	if ss.slots == nil {
		//klocal:allow sized once per scratch, then reused; steady state pinned by TestWarmRouteAllocsGate
		ss.slots = make([]stateSlot, minStateSlots)
		ss.shift = 64 - minStateBits
	}
	ss.used = 0
	ss.epoch++
	if ss.epoch == 0 { // uint32 wrap: every stamp is stale garbage
		clear(ss.slots)
		ss.epoch = 1
	}
}

// insert adds key, reporting whether it was already in the set.
//
//klocal:hotpath
func (ss *stateSet) insert(key uint64) bool {
	mask := len(ss.slots) - 1
	for i := int(key * fibMul >> ss.shift); ; i = (i + 1) & mask {
		sl := &ss.slots[i]
		if sl.epoch != ss.epoch {
			if 2*(ss.used+1) > len(ss.slots) {
				ss.grow()
				return ss.insert(key)
			}
			sl.key, sl.epoch = key, ss.epoch
			ss.used++
			return false
		}
		if sl.key == key {
			return true
		}
	}
}

// grow doubles the table and re-inserts this walk's states.
func (ss *stateSet) grow() {
	old := ss.slots
	ss.slots = make([]stateSlot, 2*len(old))
	ss.shift--
	mask := len(ss.slots) - 1
	for _, sl := range old {
		if sl.epoch != ss.epoch {
			continue
		}
		i := int(sl.key * fibMul >> ss.shift)
		for ss.slots[i].epoch == ss.epoch {
			i = (i + 1) & mask
		}
		ss.slots[i] = sl
	}
}

// Run simulates routing a message from s to t on g with the bound routing
// function f. The predecessor-awareness of the algorithm determines the
// livelock criterion:
//
//   - predecessor-aware: the decision at u depends only on (u, v) (plus
//     the fixed s, t), so revisiting a directed edge repeats forever;
//   - predecessor-oblivious: the decision depends only on u, so
//     revisiting any node repeats forever.
func Run(g *graph.Graph, f Func, s, t graph.Vertex, opts Options) *Result {
	return RunScratch(g, f, s, t, opts, NewScratch())
}

// RunScratch is Run allocating only into sc (plus the Result's error on
// failure paths). The returned Result is owned by sc: it is valid until
// the next run with the same scratch; Clone it to retain it.
func RunScratch(g *graph.Graph, f Func, s, t graph.Vertex, opts Options, sc *Scratch) *Result {
	res := run(g, f, s, t, opts, sc)
	res.Dist = g.DistScratch(s, t, sc.search)
	return res
}

// RunStore is Run over any Network. Computing dist(s, t) needs global
// topology knowledge, which a store may be too large to pay for, so
// Result.Dist stays 0 ("unknown"): consumers guard dilation-derived
// metrics with Dist > 0 and are unaffected.
func RunStore(net Network, f Func, s, t graph.Vertex, opts Options) *Result {
	return run(net, f, s, t, opts, NewScratch())
}

// RunStoreScratch is RunStore with caller-owned working memory, under
// RunScratch's ownership contract.
func RunStoreScratch(net Network, f Func, s, t graph.Vertex, opts Options, sc *Scratch) *Result {
	return run(net, f, s, t, opts, sc)
}

//klocal:hotpath
func run(g Network, f Func, s, t graph.Vertex, opts Options, sc *Scratch) *Result {
	res := &sc.res
	*res = Result{}
	sc.route = append(sc.route[:0], s)
	res.Route = sc.route
	if s == t {
		res.Outcome = Delivered
		return res
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 4 * (g.N() + 1) * (g.M() + 1)
		if maxSteps < 0 { // overflow on huge stores: effectively unbounded
			maxSteps = int(^uint(0) >> 1)
		}
	}
	if opts.DetectLoops {
		sc.seen.reset()
	}

	// The walk carries the current vertex's dense index ui beside its
	// label u. An absent s leaves ok false, so its first hop is illegal.
	ui, ok := g.Index(s)
	u, v := s, graph.NoVertex
	for step := 0; step < maxSteps; step++ {
		next, err := f(s, t, u, v)
		if err != nil {
			res.Outcome = Errored
			res.Err = err
			return res
		}
		var ni int32
		if ok {
			ni, ok = rowIndex(g, g.Row(ui), next)
		}
		if !ok {
			res.Outcome = Errored
			//klocal:allow cold error path: an illegal hop aborts the walk
			res.Err = fmt.Errorf("%w: %d -> %d", ErrIllegalHop, u, next)
			return res
		}
		if opts.DetectLoops {
			// The decision state: the directed edge u→next for
			// predecessor-aware walks, the node u for oblivious ones.
			key := uint64(uint32(ui))
			if opts.PredecessorAware {
				key = key<<32 | uint64(uint32(ni))
			}
			if sc.seen.insert(key) {
				res.Outcome = Looped
				return res
			}
		}
		sc.route = append(sc.route, next)
		res.Route = sc.route
		u, v, ui = next, u, ni
		if u == t {
			res.Outcome = Delivered
			return res
		}
	}
	res.Outcome = Exhausted
	return res
}

// rowIndex binary-searches label w among row, a row of g's dense
// indices. Rows ascend and index order is label order, so their labels
// ascend too; a hit returns w's index.
//
//klocal:hotpath
func rowIndex(g Network, row []int32, w graph.Vertex) (int32, bool) {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.VertexAt(row[mid]) < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && g.VertexAt(row[lo]) == w {
		return row[lo], true
	}
	return 0, false
}
