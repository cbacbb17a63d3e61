package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"

	"klocal/internal/bigraph"
	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/route"
)

// GraphSpec describes a topology the daemon can build — one of the
// named generators (the same family cmd/loadgen exposes), an explicit
// edge list, or a graph file on disk (kind "file"). It is the JSON body
// of PUT /graph and the parsed form of klocald's -graph/-size/-seed/-p
// and -graph-file flags.
type GraphSpec struct {
	// Kind selects the generator: lollipop|cycle|path|grid|spider|wheel|
	// barbell|complete|random|tree, "edges" for an explicit topology, or
	// "file" for an on-disk graph (see Path). Empty means lollipop, or
	// "file" when Path is set.
	Kind string `json:"kind,omitempty"`
	// Size is the number of nodes for generated topologies (default 48).
	Size int `json:"size,omitempty"`
	// Seed drives the random generators (default 1).
	Seed int64 `json:"seed,omitempty"`
	// P is the extra-edge probability for Kind "random" (default 0.1).
	P float64 `json:"p,omitempty"`
	// Edges is the explicit topology for Kind "edges" (or whenever
	// non-empty): pairs of vertex labels. The graph must be connected.
	Edges [][2]int64 `json:"edges,omitempty"`
	// Path is the on-disk graph for Kind "file": a binary ".csr" file
	// (mmap'd — the million-node path, see DESIGN.md §12) or an edge
	// list (".txt", ".txt.gz"). File topologies deploy store-backed:
	// routing works as usual but hop traces and exact s–t distances
	// (stretch) are unavailable.
	Path string `json:"path,omitempty"`
}

// withDefaults fills the zero values.
func (sp GraphSpec) withDefaults() GraphSpec {
	if sp.Kind == "" {
		switch {
		case sp.Path != "":
			sp.Kind = "file"
		case len(sp.Edges) > 0:
			sp.Kind = "edges"
		default:
			sp.Kind = "lollipop"
		}
	}
	if sp.Size <= 0 {
		sp.Size = 48
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.P <= 0 {
		sp.P = 0.1
	}
	return sp
}

// String renders the spec for logs and report names.
func (sp GraphSpec) String() string {
	sp = sp.withDefaults()
	switch sp.Kind {
	case "edges":
		return fmt.Sprintf("edges(m=%d)", len(sp.Edges))
	case "file":
		return fmt.Sprintf("file(%s)", sp.Path)
	}
	return fmt.Sprintf("%s(n=%d seed=%d)", sp.Kind, sp.Size, sp.Seed)
}

// BuildStore constructs the graph store the spec describes: a loaded
// (mmap'd when possible) CSR for Kind "file", a materialized
// *graph.Graph for every generator kind. File topologies skip the
// connectivity check — a full-graph BFS at every deploy defeats the
// point of the mmap path; csrgen-produced families are connected by
// construction.
func (sp GraphSpec) BuildStore() (bigraph.Store, error) {
	sp = sp.withDefaults()
	if sp.Kind == "file" {
		if sp.Path == "" {
			return nil, fmt.Errorf("serve: kind \"file\" needs a path")
		}
		return bigraph.LoadFile(sp.Path)
	}
	g, err := sp.Build()
	if err != nil {
		return nil, err
	}
	return g, nil
}

// ErrGraphPathForbidden is wrapped into confine's error when a spec
// names a graph file outside the daemon's graph directory, or any file
// when the daemon has none. PUT /graph answers it 403.
var ErrGraphPathForbidden = errors.New("serve: graph file outside the graph directory")

// confine checks a client-supplied spec against the graph directory
// dir before anything is opened. Specs of kinds other than "file" pass
// unchanged. A file path is taken relative to dir unless absolute, and
// both its cleaned form and its symlink-resolved form must lie inside
// dir's own resolved path; otherwise the error wraps
// ErrGraphPathForbidden, as it does for every file spec when dir is
// empty. The returned spec names the resolved path, so the file opened
// is the file checked.
func (sp GraphSpec) confine(dir string) (GraphSpec, error) {
	if sp.withDefaults().Kind != "file" {
		return sp, nil
	}
	if dir == "" {
		return sp, fmt.Errorf("%w: this daemon has no graph directory (klocald -graph-dir)", ErrGraphPathForbidden)
	}
	root, err := filepath.EvalSymlinks(dir)
	if err == nil {
		root, err = filepath.Abs(root)
	}
	if err != nil {
		return sp, fmt.Errorf("%w: graph directory: %v", ErrGraphPathForbidden, err)
	}
	path := sp.Path
	if !filepath.IsAbs(path) {
		path = filepath.Join(root, path)
	}
	if !within(root, filepath.Clean(path)) {
		return sp, fmt.Errorf("%w: %q", ErrGraphPathForbidden, sp.Path)
	}
	resolved, err := filepath.EvalSymlinks(path)
	if err != nil {
		return sp, fmt.Errorf("serve: graph file %q: %w", sp.Path, err)
	}
	if !within(root, resolved) {
		return sp, fmt.Errorf("%w: %q resolves outside it", ErrGraphPathForbidden, sp.Path)
	}
	sp.Path = resolved
	return sp, nil
}

// within reports whether the clean absolute path lies strictly inside
// the directory root.
func within(root, path string) bool {
	rel, err := filepath.Rel(root, path)
	return err == nil && rel != "." && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator))
}

// Size limits on the topologies Build materializes. A map-based
// graph.Graph costs on the order of 100 bytes per edge, so one build
// stays within a few hundred MB. Million-node graphs are served
// store-backed from a file (kind "file"), which these limits leave alone.
const (
	// MaxGraphVertices caps Size for the generator kinds.
	MaxGraphVertices = 1 << 18
	// MaxGraphEdges caps the edge count a spec implies: the explicit
	// list's length for kind "edges", the generator's count (expected
	// count for "random") otherwise.
	MaxGraphEdges = 1 << 21
)

// ErrGraphTooLarge is wrapped into Build's error when a spec exceeds
// MaxGraphVertices or MaxGraphEdges; PUT /graph answers it with 400.
var ErrGraphTooLarge = errors.New("serve: graph spec exceeds the size limits")

// minSize is the smallest Size each generator kind can build.
func minSize(kind string) int {
	switch kind {
	case "barbell":
		return 6 // two 2-cliques and a 2-vertex bridge
	case "spider":
		return 5 // four arms of one vertex each
	case "lollipop", "wheel":
		return 4
	case "cycle":
		return 3
	default:
		return 2
	}
}

// impliedEdges is the number of edges the spec's generator builds (the
// expected number for "random"), computed in float64 so that no Size
// can overflow it.
func (sp GraphSpec) impliedEdges() float64 {
	n := float64(sp.Size)
	switch sp.Kind {
	case "edges":
		return float64(len(sp.Edges))
	case "complete":
		return n * (n - 1) / 2
	case "random":
		return n - 1 + min(sp.P, 1)*n*(n-1)/2
	case "barbell":
		c := float64((sp.Size - 2) / 2)
		return c*(c-1) + n
	case "wheel", "grid":
		return 2 * n
	default:
		return n
	}
}

// checkSize rejects a spec that is too small for its generator or
// larger than the limits, before anything is allocated.
func (sp GraphSpec) checkSize() error {
	if sp.Kind != "edges" {
		if sp.Size < minSize(sp.Kind) {
			return fmt.Errorf("serve: %s graph size %d too small (minimum %d)", sp.Kind, sp.Size, minSize(sp.Kind))
		}
		if sp.Size > MaxGraphVertices {
			return fmt.Errorf("%w: size %d > %d vertices", ErrGraphTooLarge, sp.Size, MaxGraphVertices)
		}
	}
	if m := sp.impliedEdges(); m > MaxGraphEdges {
		return fmt.Errorf("%w: %s implies %.3g edges > %d", ErrGraphTooLarge, sp, m, MaxGraphEdges)
	}
	return nil
}

// Build constructs the (deterministic) graph the spec describes. Kind
// "file" has no materialized graph — use BuildStore. Specs beyond
// MaxGraphVertices or MaxGraphEdges fail with ErrGraphTooLarge.
func (sp GraphSpec) Build() (*graph.Graph, error) {
	sp = sp.withDefaults()
	if sp.Kind == "file" {
		return nil, fmt.Errorf("serve: kind \"file\" is store-backed; use BuildStore")
	}
	if err := sp.checkSize(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(sp.Seed))
	var g *graph.Graph
	switch sp.Kind {
	case "edges":
		if len(sp.Edges) == 0 {
			return nil, fmt.Errorf("serve: kind \"edges\" needs a non-empty edge list")
		}
		b := graph.NewBuilder()
		for _, e := range sp.Edges {
			if e[0] == e[1] {
				return nil, fmt.Errorf("serve: self-loop {%d, %d} rejected", e[0], e[1])
			}
			b.AddEdge(graph.Vertex(e[0]), graph.Vertex(e[1]))
		}
		g = b.Build()
	case "lollipop":
		g = gen.Lollipop(sp.Size-sp.Size/3, sp.Size/3)
	case "cycle":
		g = gen.Cycle(sp.Size)
	case "path":
		g = gen.Path(sp.Size)
	case "grid":
		side := 1
		for side*side < sp.Size {
			side++
		}
		g = gen.Grid(side, side)
	case "spider":
		g = gen.Spider(4, (sp.Size-1)/4)
	case "wheel":
		g = gen.Wheel(sp.Size)
	case "barbell":
		c := (sp.Size - 2) / 2
		g = gen.Barbell(c, sp.Size-2*c)
	case "complete":
		g = gen.Complete(sp.Size)
	case "random":
		g = gen.RandomConnected(rng, sp.Size, sp.P)
	case "tree":
		g = gen.RandomTree(rng, sp.Size)
	default:
		return nil, fmt.Errorf("serve: unknown graph kind %q", sp.Kind)
	}
	if !g.Connected() {
		return nil, fmt.Errorf("serve: %s is not connected", sp)
	}
	return g, nil
}

// AlgorithmByName resolves one of the paper's Table 2 algorithms.
func AlgorithmByName(name string) (route.Algorithm, error) {
	switch name {
	case "alg1":
		return route.Algorithm1(), nil
	case "alg1b":
		return route.Algorithm1B(), nil
	case "alg2":
		return route.Algorithm2(), nil
	case "alg3":
		return route.Algorithm3(), nil
	default:
		return route.Algorithm{}, fmt.Errorf("serve: unknown algorithm %q (alg1|alg1b|alg2|alg3)", name)
	}
}

// DilationBound returns the paper's dilation guarantee for a Table 2
// algorithm at or above its threshold (Theorems 5–8), or 0 when no
// finite bound applies.
func DilationBound(name string) float64 {
	switch name {
	case "alg1":
		return 7
	case "alg1b":
		return 6
	case "alg2":
		return 3
	case "alg3":
		return 1
	default:
		return 0
	}
}
