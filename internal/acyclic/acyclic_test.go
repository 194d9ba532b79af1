package acyclic

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/hypergraph"
)

func TestPaperExamples(t *testing.T) {
	cases := []struct {
		name  string
		h     *hypergraph.Hypergraph
		alpha bool
	}{
		{"fig1", hypergraph.Fig1(), true},
		{"fig5", hypergraph.Fig5(), true},
		{"fig1 minus ACE", hypergraph.Fig1MinusACE(), false},
		{"counterexample", hypergraph.CyclicCounterexample(), false},
		{"triangle", hypergraph.Triangle(), false},
	}
	for _, c := range cases {
		if got := IsAcyclic(c.h); got != c.alpha {
			t.Errorf("%s: IsAcyclic = %v, want %v", c.name, got, c.alpha)
		}
		def, err := IsAcyclicByDefinition(c.h)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if def != c.alpha {
			t.Errorf("%s: ByDefinition = %v, want %v", c.name, def, c.alpha)
		}
	}
}

// TestDefinitionAgreesWithGYOExhaustively is the BFMY equivalence on the
// complete corpus of reduced connected hypergraphs over <= 4 nodes.
func TestDefinitionAgreesWithGYOExhaustively(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for _, h := range gen.AllConnectedReduced(n) {
			fast := IsAcyclic(h)
			slow, err := IsAcyclicByDefinition(h)
			if err != nil {
				t.Fatal(err)
			}
			if fast != slow {
				t.Fatalf("disagreement on %v: GYO=%v definition=%v", h, fast, slow)
			}
		}
	}
}

func TestDefinitionAgreesWithGYORandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		h := gen.Random(rng, gen.RandomSpec{Nodes: 6, Edges: 5, MinArity: 2, MaxArity: 4})
		fast := IsAcyclic(h)
		slow, err := IsAcyclicByDefinition(h)
		if err != nil {
			t.Fatal(err)
		}
		if fast != slow {
			t.Fatalf("disagreement on %v: GYO=%v definition=%v", h, fast, slow)
		}
	}
}

func TestCyclicWitness(t *testing.T) {
	h := hypergraph.Fig1MinusACE()
	w, found, err := CyclicWitnessByDefinition(h)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("cyclic hypergraph must have a witness")
	}
	// The witness node set generates a connected, articulation-free,
	// multi-edge hypergraph.
	f := h.NodeGenerated(w)
	if f.NumEdges() < 2 || f.HasArticulationSet() {
		t.Fatalf("witness %v generates %v, which is not a valid witness", h.NodeNames(w), f)
	}

	if _, found, _ := CyclicWitnessByDefinition(hypergraph.Fig1()); found {
		t.Fatal("acyclic hypergraph must have no witness")
	}
}

func TestDefinitionCapEnforced(t *testing.T) {
	h := gen.AcyclicChain(25, 3, 1) // > 20 nodes
	if _, err := IsAcyclicByDefinition(h); err == nil {
		t.Fatal("expected node-count cap error")
	}
}

func TestBerge(t *testing.T) {
	cases := []struct {
		name  string
		h     *hypergraph.Hypergraph
		berge bool
	}{
		{"path", gen.PathGraph(5), true},
		{"star", gen.Star(5), true},
		{"single edge", hypergraph.New([][]string{{"A", "B", "C"}}), true},
		{"disjoint-ish tree", hypergraph.New([][]string{{"A", "B", "C"}, {"C", "D"}, {"D", "E", "F"}}), true},
		{"two edges sharing two nodes", hypergraph.New([][]string{{"A", "B", "C"}, {"A", "B", "D"}}), false},
		{"triangle", hypergraph.Triangle(), false},
		{"fig1", hypergraph.Fig1(), false}, // the paper: α-acyclic yet Berge-cyclic
	}
	for _, c := range cases {
		if got := IsBergeAcyclic(c.h); got != c.berge {
			t.Errorf("%s: IsBergeAcyclic = %v, want %v", c.name, got, c.berge)
		}
	}
}

func TestBeta(t *testing.T) {
	fan := hypergraph.New([][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}, {"A", "B", "C"}})
	if !IsAcyclic(fan) {
		t.Fatal("fan triangle is α-acyclic")
	}
	if IsBetaAcyclic(fan) {
		t.Fatal("fan triangle is not β-acyclic (the triangle subfamily is cyclic)")
	}
	if got, _ := IsBetaAcyclicByDefinition(fan); got {
		t.Fatal("definition disagrees on fan triangle")
	}
	if !IsBetaAcyclic(gen.PathGraph(6)) {
		t.Fatal("paths are β-acyclic")
	}
	if !IsBetaAcyclic(hypergraph.New([][]string{{"A", "B"}, {"A", "B", "C"}, {"B", "C"}})) {
		t.Fatal("{AB, ABC, BC} is β-acyclic")
	}
}

// TestBetaEliminationAgreesWithDefinition differentially validates the
// nest-point elimination against the executable specification.
func TestBetaEliminationAgreesWithDefinition(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for _, h := range gen.AllConnectedReduced(n) {
			if h.NumEdges() > 8 {
				continue // keep the 2^m specification affordable
			}
			fast := IsBetaAcyclic(h)
			slow, err := IsBetaAcyclicByDefinition(h)
			if err != nil {
				t.Fatal(err)
			}
			if fast != slow {
				t.Fatalf("β disagreement on %v: elimination=%v definition=%v", h, fast, slow)
			}
		}
	}
}

func TestBetaDefinitionCap(t *testing.T) {
	h := gen.AcyclicChain(17, 3, 1)
	if _, err := IsBetaAcyclicByDefinition(h); err == nil {
		t.Fatal("expected edge-count cap error")
	}
}

func TestGamma(t *testing.T) {
	cases := []struct {
		name  string
		h     *hypergraph.Hypergraph
		gamma bool
	}{
		{"path", gen.PathGraph(4), true},
		{"two edges sharing two nodes", hypergraph.New([][]string{{"A", "B", "C"}, {"A", "B", "D"}}), true},
		{"AB ABC BC", hypergraph.New([][]string{{"A", "B"}, {"A", "B", "C"}, {"B", "C"}}), false},
		{"triangle", hypergraph.Triangle(), false},
		{"star", gen.Star(4), true},
	}
	for _, c := range cases {
		if got := IsGammaAcyclic(c.h); got != c.gamma {
			t.Errorf("%s: IsGammaAcyclic = %v, want %v", c.name, got, c.gamma)
		}
	}
}

// TestHierarchy verifies Berge ⇒ γ ⇒ β ⇒ α on the exhaustive corpus plus
// assorted fixtures — the inclusion chain the paper's §1 remark relies on.
func TestHierarchy(t *testing.T) {
	var all []*hypergraph.Hypergraph
	for n := 1; n <= 4; n++ {
		all = append(all, gen.AllConnectedReduced(n)...)
	}
	all = append(all,
		hypergraph.Fig1(), hypergraph.Fig5(),
		hypergraph.New([][]string{{"A", "B"}, {"A", "B", "C"}, {"B", "C"}}),
	)
	for _, h := range all {
		alpha, beta, gamma, berge := IsAcyclic(h), IsBetaAcyclic(h), IsGammaAcyclic(h), IsBergeAcyclic(h)
		if berge && !gamma {
			t.Fatalf("%v: Berge-acyclic but not γ-acyclic", h)
		}
		if gamma && !beta {
			t.Fatalf("%v: γ-acyclic but not β-acyclic", h)
		}
		if beta && !alpha {
			t.Fatalf("%v: β-acyclic but not α-acyclic", h)
		}
	}
}

func TestHierarchyStrictness(t *testing.T) {
	// One witness for the strictness of each inclusion.
	fig1 := hypergraph.Fig1() // α yes, Berge no
	if !IsAcyclic(fig1) || IsBergeAcyclic(fig1) {
		t.Fatal("fig1: want α-acyclic but not Berge-acyclic")
	}
	fan := hypergraph.New([][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}, {"A", "B", "C"}})
	if !IsAcyclic(fan) || IsBetaAcyclic(fan) {
		t.Fatal("fan: want α only")
	}
	sandwich := hypergraph.New([][]string{{"A", "B"}, {"A", "B", "C"}, {"B", "C"}})
	if !IsBetaAcyclic(sandwich) || IsGammaAcyclic(sandwich) {
		t.Fatal("sandwich: want β but not γ")
	}
	twoShared := hypergraph.New([][]string{{"A", "B", "C"}, {"A", "B", "D"}})
	if !IsGammaAcyclic(twoShared) || IsBergeAcyclic(twoShared) {
		t.Fatal("two-shared: want γ but not Berge")
	}
}
