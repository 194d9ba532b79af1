package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/gendb"
	"repro/internal/hypergraph"
	"repro/internal/relation"
)

// eval_join: data-heavy evaluation. A small pool of acyclic schemas with
// 10³-row tables is reduced and evaluated over and over; the schemas are
// warmed in setup, so request decoding, table loading and the exec kernels
// carry the time.

const (
	evalPool      = 16
	evalMinEdges  = 8
	evalMaxEdges  = 12
	evalMinRows   = 1000
	evalMaxRows   = 1100
	evalMaxAnswer = 10000
	evalMaxBody   = 900 << 10 // hgserved caps bodies at 1 MiB
)

// evalInstance is one schema with one database, rendered as a request body,
// and the reference answers computed by internal/db over internal/relation.
type evalInstance struct {
	family  string
	body    []byte
	edges   int
	rowsIn  int
	rowsOut int
	attrs   []string   // projection of the eval query
	answer  [][]string // reference rows over attrs, sorted

	mu       sync.Mutex
	verified map[[32]byte]bool // eval bodies already compared in full
}

// genEvalInstance draws one pool member. Chains whose semijoins share one
// attribute exercise the dense kernel; random acyclic schemas with
// multi-attribute keys the hash kernel. Dangling instances are independent
// random tables; consistent ones project a single universal relation.
//
// The schema population is the same for every seed — drawn from shape, a
// source fixed by the pool slot — as a deployment's schemas would be; the
// seed draws the data. Key widths, and with them how much each semijoin
// keeps, would otherwise swing the workload's cost from seed to seed.
func genEvalInstance(shape, rng *rand.Rand, chain, consistent bool, m, rows int) (*evalInstance, error) {
	var h *hypergraph.Hypergraph
	in := &evalInstance{verified: map[[32]byte]bool{}}
	if chain {
		h = gen.AcyclicChain(m, 3, 1)
		in.family = "chain"
	} else {
		h = gen.RandomAcyclic(shape, gen.RandomSpec{Edges: m, MinArity: 3, MaxArity: 4})
		in.family = "random_acyclic"
	}
	if consistent {
		in.family += "/consistent"
	} else {
		in.family += "/dangling"
	}
	for {
		// Domains: a dangling chain keeps about 63% of a table per
		// semijoin; multi-attribute keys need smaller domains to match at
		// all; a consistent instance needs near-unique values, or the join
		// of its projections fans out far past the universal relation.
		spec := gen.InstanceSpec{Rows: rows, DomainSize: rows}
		switch {
		case consistent:
			spec.DomainSize = 64 * rows
		case !chain:
			spec.DomainSize = int(2 * math.Cbrt(float64(rows)))
		}
		var rels []*relation.Relation
		if consistent {
			rels = gendb.Consistent(rng, h, spec).Relations()
		} else {
			rels = gendb.Random(rng, h, spec).Relations()
		}
		tables := make([]map[string]any, len(rels))
		for i, r := range rels {
			tables[i] = map[string]any{"attrs": r.Attrs(), "rows": r.Rows()}
		}
		// The projection spans the first and the last edge; when that
		// answer is too large the query falls back to the first edge alone.
		first, last := h.EdgeNodes(0), h.EdgeNodes(m-1)
		attrs := []string{first[0], last[len(last)-1]}
		ref, err := db.New(h, rels)
		if err != nil {
			return nil, err
		}
		ans, err := ref.QueryYannakakis(attrs)
		if err != nil {
			return nil, err
		}
		if ans.Card() > evalMaxAnswer {
			attrs = first
			if ans, err = ref.QueryYannakakis(attrs); err != nil {
				return nil, err
			}
		}
		body := mustJSON(map[string]any{"schema": h.Format(), "tables": tables, "attrs": attrs})
		if len(body) > evalMaxBody {
			rows = rows * 4 / 5
			continue
		}
		reduced, _ := ref.SemijoinFixpoint()
		in.body, in.edges, in.attrs = body, m, attrs
		for i := range rels {
			in.rowsIn += rels[i].Card()
			in.rowsOut += reduced[i].Card()
		}
		in.answer = sortedRows(ans, attrs)
		return in, nil
	}
}

func buildEvalJoin(rng *rand.Rand, n int) (*workload, error) {
	w := &workload{name: "eval_join"}
	// Each instance draws from its own seeded source, so the pool can be
	// generated in parallel and still depend on the seed alone.
	pool := make([]*evalInstance, evalPool)
	seeds := make([]int64, evalPool)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	errs := make([]error, evalPool)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < evalPool; i = int(next.Add(1) - 1) {
				// Sizes are fixed by the slot, not drawn, so the pool's cost
				// hardly moves with the seed; only the contents do.
				k, strata := i/4, evalPool/4-1
				m := evalMinEdges + k*(evalMaxEdges-evalMinEdges)/strata
				rows := evalMinRows + k*(evalMaxRows-evalMinRows)/strata
				shape := rand.New(rand.NewSource(int64(i)))
				r := rand.New(rand.NewSource(seeds[i]))
				pool[i], errs[i] = genEvalInstance(shape, r, i%2 == 0, (i/2)%2 == 1, m, rows)
			}
		}()
	}
	wg.Wait()
	for i, in := range pool {
		if errs[i] != nil {
			return nil, fmt.Errorf("eval_join instance %d: %w", i, errs[i])
		}
		w.warm = append(w.warm, evalCall("eval", in))
	}
	// Requests walk the pool in shuffled rounds, each instance once a round.
	for len(w.shared) < n {
		for _, i := range rng.Perm(len(pool)) {
			op := "eval"
			if rng.Float64() < 0.3 {
				op = "reduce"
			}
			w.shared = append(w.shared, evalCall(op, pool[i]))
		}
	}
	return w, nil
}

// sortedRows renders r's rows in attrs column order, sorted.
func sortedRows(r *relation.Relation, attrs []string) [][]string {
	rows := r.Rows()
	out := make([][]string, len(rows))
	for i, t := range rows {
		row := make([]string, len(attrs))
		for j, a := range attrs {
			row[j], _ = r.Value(t, a)
		}
		out[i] = row
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i], "\x00") < strings.Join(out[j], "\x00")
	})
	return out
}

func evalCall(op string, in *evalInstance) call {
	c := call{method: http.MethodPost, path: "/v1/" + op, body: in.body, op: op}
	if op == "reduce" {
		c.check = func(status int, body []byte) (func() error, error) {
			if err := wantStatus(status, http.StatusOK, body); err != nil {
				return nil, err
			}
			var r struct {
				RowsIn  int `json:"rowsIn"`
				RowsOut int `json:"rowsOut"`
				Steps   int `json:"steps"`
			}
			if err := json.Unmarshal(body, &r); err != nil {
				return nil, err
			}
			if r.RowsIn != in.rowsIn || r.RowsOut != in.rowsOut || r.Steps != 2*(in.edges-1) {
				return nil, fmt.Errorf("reduce: rows %d->%d in %d steps, want %d->%d in %d",
					r.RowsIn, r.RowsOut, r.Steps, in.rowsIn, in.rowsOut, 2*(in.edges-1))
			}
			return nil, nil
		}
		return c
	}
	c.check = func(status int, body []byte) (func() error, error) {
		if err := wantStatus(status, http.StatusOK, body); err != nil {
			return nil, err
		}
		sum := sha256.Sum256(body)
		in.mu.Lock()
		seen := in.verified[sum]
		in.mu.Unlock()
		if seen {
			return nil, nil
		}
		if err := in.checkEval(body); err != nil {
			return nil, err
		}
		in.mu.Lock()
		in.verified[sum] = true
		in.mu.Unlock()
		return nil, nil
	}
	return c
}

// checkEval compares an eval answer in full against the reference.
func (in *evalInstance) checkEval(body []byte) error {
	var r struct {
		Attrs   []string   `json:"attrs"`
		Rows    [][]string `json:"rows"`
		RowsIn  int        `json:"rowsIn"`
		RowsOut int        `json:"rowsOut"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.RowsIn != in.rowsIn || r.RowsOut != in.rowsOut {
		return fmt.Errorf("eval: rows %d->%d, want %d->%d", r.RowsIn, r.RowsOut, in.rowsIn, in.rowsOut)
	}
	if !sameSet(r.Attrs, in.attrs) {
		return fmt.Errorf("eval: answer attributes %v, want %v", r.Attrs, in.attrs)
	}
	got, err := relation.New(r.Attrs, r.Rows...)
	if err != nil {
		return fmt.Errorf("eval: answer: %w", err)
	}
	if got.Card() != len(r.Rows) {
		return fmt.Errorf("eval: answer repeats rows")
	}
	rows := sortedRows(got, in.attrs)
	if len(rows) != len(in.answer) {
		return fmt.Errorf("eval: %d answer rows, want %d", len(rows), len(in.answer))
	}
	for i := range rows {
		if strings.Join(rows[i], "\x00") != strings.Join(in.answer[i], "\x00") {
			return fmt.Errorf("eval: answer row %v, want %v", rows[i], in.answer[i])
		}
	}
	return nil
}

func sameSet(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}
