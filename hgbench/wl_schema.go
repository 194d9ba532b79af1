package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/gen"
	"repro/internal/gyo"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
)

// schema_analyze: read-only analysis over large schemas. Half the requests
// name one of a warmed hot set (memo hits), half a schema never sent before
// (memo misses that grow the unbounded memo).

const (
	hotSchemas     = 16
	schemaMinEdges = 1000
	schemaMaxEdges = 5000
)

// Schema families, in generation order.
var schemaFamilies = []string{"chain", "random_acyclic", "gamma_acyclic", "random_raw"}

// schemaInput is one generated schema with the facts its answers are
// checked against. The verdicts come from how the family is built, or from
// gyo (Graham reduction) for the cyclic-leaning random_raw family.
type schemaInput struct {
	body    []byte // {"schema": text}
	edges   int
	nodes   int
	acyclic bool
	gamma   bool // γ-acyclic by construction
}

// genSchema builds a family member with m edges. tag prefixes every node
// name, so distinct tags give schemas hgserved has never seen.
func genSchema(rng *rand.Rand, fam, m int, tag string) *schemaInput {
	var h *hypergraph.Hypergraph
	in := &schemaInput{acyclic: true}
	switch schemaFamilies[fam] {
	case "chain":
		arity := 2 + rng.Intn(3)
		h = gen.AcyclicChain(m, arity, 1+rng.Intn(arity-1))
	case "random_acyclic":
		h = gen.RandomAcyclic(rng, gen.RandomSpec{Edges: m, MinArity: 2, MaxArity: 4})
	case "gamma_acyclic":
		h = gen.GammaAcyclic(rng, m, m)
		in.gamma = true
	default:
		h = gen.RandomRawIDs(rng, gen.RandomSpec{Nodes: m, Edges: m, MinArity: 2, MaxArity: 4})
		in.acyclic = gyo.IsAcyclic(h)
	}
	var sb strings.Builder
	seen := make([]bool, h.Universe())
	for i := 0; i < h.NumEdges(); i++ {
		first := true
		h.EdgeView(i).ForEach(func(id int) {
			if !first {
				sb.WriteByte(' ')
			}
			first = false
			sb.WriteString(tag)
			sb.WriteString(base36(id))
			if !seen[id] {
				seen[id] = true
				in.nodes++
			}
		})
		sb.WriteByte('\n')
	}
	in.edges = h.NumEdges()
	in.body = mustJSON(map[string]string{"schema": sb.String()})
	return in
}

func buildSchemaAnalyze(rng *rand.Rand, n int) *workload {
	w := &workload{name: "schema_analyze"}
	hot := make([]*schemaInput, hotSchemas)
	for i := range hot {
		fam := i % len(schemaFamilies)
		m := stratum(rng, i/len(schemaFamilies), hotSchemas/len(schemaFamilies), schemaMinEdges, schemaMaxEdges)
		hot[i] = genSchema(rng, fam, m, "h"+base36(i)+"_")
	}
	verified := map[verifiedKey]bool{}
	for _, s := range hot {
		for _, op := range []string{"analyze", "jointree", "classify"} {
			w.warm = append(w.warm, schemaCall(op, s, verified))
		}
	}
	// The list is laid out first; the fresh schemas, each from its own
	// seeded source, are then generated in parallel.
	type slot struct {
		op   string
		hot  int // index into hot, or -1 for the next fresh schema
		fam  int
		m    int
		seed int64
	}
	slots := make([]slot, n)
	var freshSlots []int
	for i := range slots {
		sl := slot{op: "classify", hot: -1}
		switch r := rng.Float64(); {
		case r < 0.4:
			sl.op = "analyze"
		case r < 0.7:
			sl.op = "jointree"
		}
		if rng.Intn(2) == 0 {
			sl.hot = rng.Intn(hotSchemas)
		} else {
			k := len(freshSlots)
			sl.fam = k % len(schemaFamilies)
			sl.m = stratum(rng, (k/len(schemaFamilies))%8, 8, schemaMinEdges, schemaMaxEdges)
			sl.seed = rng.Int63()
			freshSlots = append(freshSlots, i)
		}
		slots[i] = sl
	}
	fresh := make([]*schemaInput, len(freshSlots))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(fresh); k = int(next.Add(1) - 1) {
				sl := slots[freshSlots[k]]
				fresh[k] = genSchema(rand.New(rand.NewSource(sl.seed)), sl.fam, sl.m, "f"+base36(k)+"_")
			}
		}()
	}
	wg.Wait()
	k := 0
	for _, sl := range slots {
		var s *schemaInput
		if sl.hot >= 0 {
			s = hot[sl.hot]
		} else {
			s, k = fresh[k], k+1
		}
		w.shared = append(w.shared, schemaCall(sl.op, s, verified))
	}
	return w
}

// verifiedKey names one answer body proven correct for one input.
type verifiedKey struct {
	input any
	body  [32]byte
}

// schemaCall builds one request over s with the check of its answer.
// verified remembers join-tree bodies already proven, so the hot set's
// identical answers are verified once; it is touched only by later checks,
// which run serially.
func schemaCall(op string, s *schemaInput, verified map[verifiedKey]bool) call {
	c := call{method: http.MethodPost, path: "/v1/" + op, body: s.body, op: op}
	switch op {
	case "analyze":
		c.check = func(status int, body []byte) (func() error, error) {
			if err := wantStatus(status, http.StatusOK, body); err != nil {
				return nil, err
			}
			var r struct {
				Acyclic bool `json:"acyclic"`
				Nodes   int  `json:"nodes"`
				Edges   int  `json:"edges"`
			}
			if err := json.Unmarshal(body, &r); err != nil {
				return nil, err
			}
			if r.Acyclic != s.acyclic || r.Nodes != s.nodes || r.Edges != s.edges {
				return nil, fmt.Errorf("analyze: got acyclic=%v nodes=%d edges=%d, want %v %d %d",
					r.Acyclic, r.Nodes, r.Edges, s.acyclic, s.nodes, s.edges)
			}
			return nil, nil
		}
	case "jointree":
		c.check = func(status int, body []byte) (func() error, error) {
			if !s.acyclic {
				if status != http.StatusUnprocessableEntity || errorCode(body) != "cyclic" {
					return nil, fmt.Errorf("jointree on a cyclic schema: status %d code %q, want 422 cyclic", status, errorCode(body))
				}
				return nil, nil
			}
			if err := wantStatus(status, http.StatusOK, body); err != nil {
				return nil, err
			}
			var r struct {
				Parent  []int             `json:"parent"`
				Roots   []int             `json:"roots"`
				Program []json.RawMessage `json:"program"`
			}
			if err := json.Unmarshal(body, &r); err != nil {
				return nil, err
			}
			if len(r.Parent) != s.edges || len(r.Program) != 2*(s.edges-len(r.Roots)) {
				return nil, fmt.Errorf("jointree: %d parents, %d roots, %d steps for %d edges",
					len(r.Parent), len(r.Roots), len(r.Program), s.edges)
			}
			key := verifiedKey{s, sha256.Sum256(body)}
			return func() error {
				if verified[key] {
					return nil
				}
				var req struct {
					Schema string `json:"schema"`
				}
				if err := json.Unmarshal(s.body, &req); err != nil {
					return err
				}
				h, _, err := hypergraph.Parse(req.Schema)
				if err != nil {
					return err
				}
				if err := (&jointree.JoinTree{H: h, Parent: r.Parent}).Verify(); err != nil {
					return fmt.Errorf("jointree: returned tree fails Verify: %w", err)
				}
				verified[key] = true
				return nil
			}, nil
		}
	case "classify":
		c.check = func(status int, body []byte) (func() error, error) {
			if err := wantStatus(status, http.StatusOK, body); err != nil {
				return nil, err
			}
			var r struct {
				Alpha  bool   `json:"alpha"`
				Beta   bool   `json:"beta"`
				Gamma  bool   `json:"gamma"`
				Berge  bool   `json:"berge"`
				Degree string `json:"degree"`
			}
			if err := json.Unmarshal(body, &r); err != nil {
				return nil, err
			}
			switch {
			case r.Alpha != s.acyclic:
				return nil, fmt.Errorf("classify: alpha=%v, want %v", r.Alpha, s.acyclic)
			case (r.Berge && !r.Gamma) || (r.Gamma && !r.Beta) || (r.Beta && !r.Alpha):
				return nil, fmt.Errorf("classify: verdicts not nested: %s", body)
			case s.gamma && !r.Gamma:
				return nil, fmt.Errorf("classify: degree %q below gamma for a gamma-acyclic schema", r.Degree)
			}
			return nil, nil
		}
	}
	return c
}
