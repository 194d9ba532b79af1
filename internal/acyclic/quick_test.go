package acyclic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/gyo"
	"repro/internal/mcs"
)

// Three-way agreement on α-acyclicity: the MCS engine behind IsAcyclic, the
// Graham reduction it replaced on the hot path, and the exponential
// definition-based specification.

// TestQuickAlphaThreeWayExhaustive: every reduced connected hypergraph on
// up to 4 nodes.
func TestQuickAlphaThreeWayExhaustive(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for i, h := range gen.AllConnectedReduced(n) {
			m := mcs.IsAcyclic(h)
			g := gyo.IsAcyclic(h)
			d, err := IsAcyclicByDefinition(h)
			if err != nil {
				t.Fatalf("n=%d #%d: %v", n, i, err)
			}
			if m != g || m != d {
				t.Fatalf("n=%d #%d %v: mcs=%v gyo=%v definition=%v", n, i, h, m, g, d)
			}
			if IsAcyclic(h) != m {
				t.Fatalf("n=%d #%d: facade disagrees with mcs", n, i)
			}
		}
	}
}

// TestQuickAlphaThreeWayRandom: random small instances, where the
// definition-based test is still feasible.
func TestQuickAlphaThreeWayRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := gen.Random(rng, gen.RandomSpec{Nodes: 7, Edges: 6, MinArity: 2, MaxArity: 4})
		m := mcs.IsAcyclic(h)
		d, err := IsAcyclicByDefinition(h)
		if err != nil {
			return false
		}
		return m == d && m == gyo.IsAcyclic(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHierarchyMonotone: classifications respect the inclusion chain
// Berge ⊆ γ ⊆ β ⊆ α on random instances (and Alpha matches the engine).
func TestQuickHierarchyMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := gen.Random(rng, gen.RandomSpec{Nodes: 6, Edges: 5, MinArity: 2, MaxArity: 3})
		alpha, beta, gamma, berge := IsAcyclic(h), IsBetaAcyclic(h), IsGammaAcyclic(h), IsBergeAcyclic(h)
		if berge && !gamma {
			return false
		}
		if gamma && !beta {
			return false
		}
		if beta && !alpha {
			return false
		}
		return alpha == mcs.IsAcyclic(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
