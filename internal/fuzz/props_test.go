package fuzz

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"klocal/internal/gen"
	"klocal/internal/graph"
	"klocal/internal/route"
	"klocal/internal/verify"
)

// scenarioOn builds a concrete scenario for property unit tests.
func scenarioOn(t *testing.T, algo string, g *graph.Graph, k int, s, tt graph.Vertex) *Scenario {
	t.Helper()
	mk, ok := Algorithms()[algo]
	if !ok {
		t.Fatalf("unknown algo %q", algo)
	}
	return &Scenario{Algo: algo, Alg: mk(), G: g, K: k, S: s, T: tt, Seed: 5, Family: "test"}
}

func TestPropertiesHoldOnCycleAtThreshold(t *testing.T) {
	g := gen.Cycle(12)
	for _, algo := range AlgorithmNames() {
		sc := scenarioOn(t, algo, g, 0, 0, 6)
		sc.K = sc.Alg.MinK(g.N())
		for _, p := range AllProperties() {
			if err := p.Check(sc); err != nil {
				t.Errorf("%s/%s: %v", algo, p.Name, err)
			}
		}
	}
}

func TestDeliveryPropertySkipsBelowThreshold(t *testing.T) {
	// Algorithm 1 on a large cycle at k = T(n)−1: below the guarantee,
	// whatever happens is not a violation.
	g := gen.Cycle(16)
	sc := scenarioOn(t, "alg1", g, route.MinK1(16)-1, 0, 8)
	if err := checkDelivery(sc); err != nil {
		t.Fatalf("below-threshold scenario must be vacuously fine, got %v", err)
	}
}

func TestDeliveryPropertyCatchesBrokenVariant(t *testing.T) {
	// The broken variant loops on a plain cycle at its own threshold
	// whenever the lowest-rank active root points backward somewhere.
	g := gen.Cycle(9)
	rng := rand.New(rand.NewSource(3))
	g = g.PermuteLabels(gen.RandomLabelPermutation(rng, g))
	vs := g.Vertices()
	var failed bool
	for _, s := range vs {
		for _, tt := range vs {
			if s == tt {
				continue
			}
			sc := scenarioOn(t, "broken2", g, route.MinK2(g.N()), s, tt)
			if err := checkDelivery(sc); err != nil {
				failed = true
			}
		}
	}
	if !failed {
		t.Fatal("broken2 delivered every pair on a relabeled 9-cycle; the hook is not broken enough")
	}
}

func TestDilationPropertyViaCheckDilation(t *testing.T) {
	// A scenario whose algorithm delivers but with a walk longer than
	// the bound must surface a typed DilationViolation. Use the walk
	// check directly: a path graph routed by alg2 is shortest, so no
	// violation; then check the typed error plumbing with a fake bound.
	g := gen.Path(9)
	sc := scenarioOn(t, "alg2", g, route.MinK2(9), 0, 8)
	if err := checkDilation(sc); err != nil {
		t.Fatalf("alg2 on a path is shortest-path, got %v", err)
	}
	res := routeScenario(sc)
	err := verify.CheckDilation(res.Route, g, 0, 8, 0.5)
	var dv *verify.DilationViolation
	if !errors.As(err, &dv) {
		t.Fatalf("want *verify.DilationViolation, got %v", err)
	}
	if dv.Hops != 8 || dv.Dist != 8 || dv.Dilation() != 1 {
		t.Fatalf("bad violation payload: %+v", dv)
	}
}

func TestDifferentialSkipsLargeGraphs(t *testing.T) {
	g := gen.Cycle(DifferentialMaxN + 2)
	sc := scenarioOn(t, "alg3", g, g.N()/2, 0, 3)
	if err := checkDifferential(sc); err != nil {
		t.Fatalf("oversized scenario must skip, got %v", err)
	}
}

func TestDifferentialAgreesOnLollipop(t *testing.T) {
	g := gen.Lollipop(9, 4)
	sc := scenarioOn(t, "alg1", g, route.MinK1(g.N()), 2, graph.Vertex(g.N()-1))
	if err := checkDifferential(sc); err != nil {
		t.Fatalf("engine and netsim disagree on a fault-free lollipop: %v", err)
	}
}

func TestRelabelPropertyUsesScenarioSeed(t *testing.T) {
	g := gen.Spider(3, 4)
	sc := scenarioOn(t, "alg1b", g, route.MinK1(g.N()), 1, 12)
	if err := checkRelabel(sc); err != nil {
		t.Fatalf("relabel property failed on a spider: %v", err)
	}
	// Determinism of the property itself: same scenario, same verdict.
	for i := 0; i < 3; i++ {
		if err := checkRelabel(sc); err != nil {
			t.Fatalf("relabel verdict changed on re-run: %v", err)
		}
	}
}

func TestGenerateProducesValidScenarios(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	families := map[string]bool{}
	for i := 0; i < 300; i++ {
		algo := AlgorithmNames()[i%4]
		sc, err := Generate(rng, algo, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !sc.G.Connected() {
			t.Fatalf("disconnected graph from family %s", sc.Family)
		}
		if sc.S == sc.T || !sc.G.HasVertex(sc.S) || !sc.G.HasVertex(sc.T) {
			t.Fatalf("bad endpoints %d -> %d", sc.S, sc.T)
		}
		if sc.K < 1 || sc.K > sc.G.N() {
			t.Fatalf("locality %d out of range for n=%d", sc.K, sc.G.N())
		}
		families[sc.Family] = true
	}
	if len(families) < 10 {
		t.Fatalf("generator only hit %d families in 300 draws", len(families))
	}
}

func TestDecodeScenarioTotality(t *testing.T) {
	if _, ok := DecodeScenario([]byte{1, 2, 3}); ok {
		t.Fatal("short input must not decode")
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		data := make([]byte, 6+rng.Intn(12))
		rng.Read(data)
		sc, ok := DecodeScenario(data)
		if !ok {
			t.Fatalf("input of %d bytes failed to decode", len(data))
		}
		if !sc.G.Connected() || sc.S == sc.T || sc.K < 1 || sc.K > sc.G.N() {
			t.Fatalf("decoded invalid scenario: %s", sc)
		}
	}
	// Determinism: equal bytes, equal scenario.
	data := []byte{3, 1, 7, 2, 5, 9, 1, 2, 3, 4, 5, 6, 7, 8}
	a, _ := DecodeScenario(data)
	b, _ := DecodeScenario(data)
	if a.String() != b.String() || !a.G.Equal(b.G) {
		t.Fatalf("decoder is not deterministic: %s vs %s", a, b)
	}
}

func TestPropertyDocsMentionContracts(t *testing.T) {
	for _, p := range AllProperties() {
		if p.Doc == "" || p.Name == "" || p.Check == nil {
			t.Fatalf("registry entry incomplete: %+v", p.Name)
		}
		if strings.ContainsAny(p.Name, " \t") {
			t.Fatalf("property name %q must be flag-friendly", p.Name)
		}
	}
}

func TestCSRPropertyAcrossFamiliesAndK(t *testing.T) {
	// The store differential has no threshold precondition: views must
	// match at every k, including far below T(n).
	rng := rand.New(rand.NewSource(11))
	graphs := []*graph.Graph{
		gen.Cycle(14),
		gen.Grid(4, 4),
		gen.Lollipop(8, 5),
		gen.RandomConnected(rng, 18, 0.15),
		gen.RandomTree(rng, 15),
	}
	for _, g := range graphs {
		for _, k := range []int{0, 1, 2, 5, g.N()} {
			for _, algo := range []string{"alg1", "alg2", "alg3"} {
				sc := scenarioOn(t, algo, g, k, 0, graph.Vertex(g.N()/2))
				if err := checkCSR(sc); err != nil {
					t.Errorf("%s k=%d n=%d: %v", algo, k, g.N(), err)
				}
			}
		}
	}
}

// TestDeltaPropertyAcrossFamilies replays the churn differential on
// every generator family at threshold locality and at k=1: derived
// views must equal the map-based oracle after every schedule prefix
// regardless of the topology's shape.
func TestDeltaPropertyAcrossFamilies(t *testing.T) {
	fams := families()
	if len(fams) < 15 {
		t.Fatalf("generator pool shrank to %d families, want >= 15", len(fams))
	}
	for _, fam := range fams {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			g := fam.build(rng, (fam.minN+fam.maxN)/2)
			vs := g.Vertices()
			for _, algo := range []string{"alg2", "alg3"} {
				sc := scenarioOn(t, algo, g, 0, vs[0], vs[len(vs)-1])
				for _, k := range []int{sc.Alg.MinK(g.N()), 1} {
					if k < 1 {
						k = 1
					}
					sc.K = k
					sc.Seed = 11
					if err := checkDelta(sc); err != nil {
						t.Errorf("%s k=%d: %v", algo, k, err)
					}
				}
			}
		})
	}
}
