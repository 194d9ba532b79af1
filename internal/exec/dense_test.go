package exec

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/mcs"
)

// TestDenseSemijoinMatchesHash pins the dense stamp kernel against the hash
// kernel on every single-shared-column pair of objects across the acyclic
// corpus: identical rows in identical order, and an unfiltered input shared
// (returned as is) by both or by neither. One scratch serves every pair, as
// it serves every step of a task, so stale epochs are exercised too.
func TestDenseSemijoinMatchesHash(t *testing.T) {
	ctx := context.Background()
	var corpus []*hypergraph.Hypergraph
	for _, h := range gen.AllConnectedReduced(4) {
		if mcs.IsAcyclic(h) {
			corpus = append(corpus, h)
		}
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		corpus = append(corpus, gen.RandomAcyclic(rng, gen.RandomSpec{
			Edges:    3 + int(seed)%10,
			MinArity: 2,
			MaxArity: 4,
		}))
	}
	var st stamps
	pairs, shared := 0, 0
	for i, h := range corpus {
		rng := rand.New(rand.NewSource(int64(5000 + i)))
		// Alternate a small domain (most semijoins filter nothing) with a
		// wide one (most filter something).
		domain := 3 + 9*(i%2)
		dict := NewDict()
		tables := make([]*Table, h.NumEdges())
		for e := range tables {
			attrs := h.EdgeNodes(e)
			rows := make([][]string, 40)
			for r := range rows {
				rows[r] = make([]string, len(attrs))
				for c := range rows[r] {
					rows[r][c] = strconv.Itoa(rng.Intn(domain))
				}
			}
			tables[e] = mustTable(t, dict, attrs, rows...)
		}
		for a, r := range tables {
			for b, s := range tables {
				rIdx, sIdx := sharedCols(r, s)
				if a == b || len(rIdx) != 1 {
					continue
				}
				pairs++
				want, err := Semijoin(ctx, r, s)
				if err != nil {
					t.Fatal(err)
				}
				got, err := semijoinSingle(ctx, r, s, rIdx[0], sIdx[0], &st)
				if err != nil {
					t.Fatal(err)
				}
				if (want == r) != (got == r) {
					t.Fatalf("schema %d objects %d⋉%d: input sharing differs: hash %v, dense %v", i, a, b, want == r, got == r)
				}
				if want == r {
					shared++
				}
				if got.rows != want.rows {
					t.Fatalf("schema %d objects %d⋉%d: %d dense rows, %d hash rows", i, a, b, got.rows, want.rows)
				}
				for c := range want.cols {
					for k := range want.cols[c] {
						if got.cols[c][k] != want.cols[c][k] {
							t.Fatalf("schema %d objects %d⋉%d: cell (%d,%d) differs", i, a, b, k, c)
						}
					}
				}
			}
		}
	}
	if pairs == 0 || shared == 0 || shared == pairs {
		t.Fatalf("corpus exercised %d single-column pairs, %d unfiltered: need both kinds", pairs, shared)
	}
}
