package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/hypergraph"
	"repro/internal/jointree"
)

// workspace_session: each client owns one durable session seeded with ~5×10³
// edges in ~50 acyclic components plus one cyclic ring, then mixes edits
// with queries. Every answer is predicted by sessionModel, the benchmark's
// own model of the session's edges.

const (
	sessionComponents = 50
	sessionCompEdges  = 100 // mean edges per acyclic component
	ringEdges         = 8
	sessionSnapEvery  = 256
)

var queryOps = []string{"verdict", "jointree", "fullreducer", "classification"}

// edit is one acknowledged change to a session, replayable on a model.
type edit struct {
	kind     string // add, remove, rename
	nodes    []string
	cover    bool // the added edge is the ring's cover
	slot     int
	old, new string
}

type mslot struct {
	alive bool
	gen   uint32
	nodes []string // sorted; never mutated in place (snapshots share them)
	ring  bool     // ring edge or cover: excluded from tree edits
}

// sessionModel mirrors a dynamic.Workspace: edge ids are slot|gen<<32 with
// dead slots reused last-freed-first, every edit bumps the epoch, and the
// snapshot lists alive edges in slot order. Acyclic components grow by
// edges that touch exactly one existing node, so they stay Berge-acyclic
// under any edit; the ring (ringEdges binary edges) is cyclic until its
// cover edge is added. Hence the session is α-acyclic exactly while the
// cover is present, and never β-acyclic.
type sessionModel struct {
	slots []mslot
	free  []int
	epoch uint64
	cover int // slot of the ring's cover edge, -1 when absent

	inc       map[string][]int // node -> alive slots holding it
	treeNodes []string         // alive nodes of acyclic components
	treeAt    map[string]int
	treeSlots []int // alive slots of acyclic components
	slotAt    map[int]int
	treeInc   int // node-edge incidences of acyclic components
	live      int // alive edges
	ring      []string
	names     int // fresh-name counter
}

func newSessionModel() *sessionModel {
	return &sessionModel{cover: -1, inc: map[string][]int{}, treeAt: map[string]int{}, slotAt: map[int]int{}}
}

func (m *sessionModel) freshName(prefix string) string {
	m.names++
	return prefix + base36(m.names)
}

func (m *sessionModel) alive() int { return m.live }

// apply performs e and returns the id the workspace assigns (adds only).
func (m *sessionModel) apply(e *edit) int {
	m.epoch++
	switch e.kind {
	case "add":
		m.live++
		slot, gen := len(m.slots), uint32(0)
		if n := len(m.free); n > 0 {
			slot, m.free = m.free[n-1], m.free[:n-1]
			gen = m.slots[slot].gen
		} else {
			m.slots = append(m.slots, mslot{})
		}
		ring := e.cover || strings.HasPrefix(e.nodes[0], "q")
		m.slots[slot] = mslot{alive: true, gen: gen, nodes: e.nodes, ring: ring}
		if e.cover {
			m.cover = slot
		}
		for _, v := range e.nodes {
			if len(m.inc[v]) == 0 && !ring {
				m.treeAt[v] = len(m.treeNodes)
				m.treeNodes = append(m.treeNodes, v)
			}
			m.inc[v] = append(m.inc[v], slot)
		}
		if !ring {
			m.slotAt[slot] = len(m.treeSlots)
			m.treeSlots = append(m.treeSlots, slot)
			m.treeInc += len(e.nodes)
		}
		return slot | int(gen)<<32
	case "remove":
		m.live--
		s := &m.slots[e.slot]
		for _, v := range s.nodes {
			m.inc[v] = dropInt(m.inc[v], e.slot)
			if len(m.inc[v]) == 0 {
				delete(m.inc, v)
				if !s.ring {
					dropAt(&m.treeNodes, m.treeAt, v)
				}
			}
		}
		if s.ring {
			m.cover = -1
		} else {
			i := m.slotAt[e.slot]
			last := m.treeSlots[len(m.treeSlots)-1]
			m.treeSlots[i], m.slotAt[last] = last, i
			m.treeSlots = m.treeSlots[:len(m.treeSlots)-1]
			delete(m.slotAt, e.slot)
			m.treeInc -= len(s.nodes)
		}
		s.alive, s.nodes = false, nil
		s.gen++
		m.free = append(m.free, e.slot)
	case "rename":
		for _, slot := range m.inc[e.old] {
			nodes := make([]string, 0, len(m.slots[slot].nodes))
			for _, v := range m.slots[slot].nodes {
				if v == e.old {
					v = e.new
				}
				nodes = append(nodes, v)
			}
			sort.Strings(nodes)
			m.slots[slot].nodes = nodes
		}
		m.inc[e.new] = m.inc[e.old]
		delete(m.inc, e.old)
		i := m.treeAt[e.old]
		m.treeNodes[i] = e.new
		m.treeAt[e.new] = i
		delete(m.treeAt, e.old)
	}
	return 0
}

func dropInt(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i:i], s[i+1:]...)
		}
	}
	return s
}

func dropAt(s *[]string, at map[string]int, v string) {
	i := at[v]
	last := (*s)[len(*s)-1]
	(*s)[i], at[last] = last, i
	*s = (*s)[:len(*s)-1]
	delete(at, v)
}

// snapshot lists the alive edges in slot order: the workspace's snapshot.
func (m *sessionModel) snapshot() [][]string {
	var out [][]string
	for _, s := range m.slots {
		if s.alive {
			out = append(out, s.nodes)
		}
	}
	return out
}

// components counts the connected components of the alive edges. The
// acyclic components are Berge-acyclic — their node-edge incidence graph is
// a forest — so they number nodes + edges - incidences; the ring, with or
// without its cover, is one more.
func (m *sessionModel) components() int {
	return len(m.treeNodes) + len(m.treeSlots) - m.treeInc + 1
}

// seedEdits generates the initial schema of one session.
func seedEdits(rng *rand.Rand, m *sessionModel) []*edit {
	var out []*edit
	add := func(nodes ...string) {
		sort.Strings(nodes)
		e := &edit{kind: "add", nodes: nodes}
		m.apply(e)
		out = append(out, e)
	}
	for c := 0; c < sessionComponents; c++ {
		size := stratum(rng, c%10, 10, sessionCompEdges/2, sessionCompEdges*3/2)
		var comp []string
		for i := 0; i < size; i++ {
			var nodes []string
			if i > 0 {
				nodes = append(nodes, comp[rng.Intn(len(comp))])
			}
			for k := 1 + rng.Intn(2); k > 0 || len(nodes) < 2; k-- {
				v := m.freshName("n")
				comp = append(comp, v)
				nodes = append(nodes, v)
			}
			add(nodes...)
		}
	}
	for i := 0; i < ringEdges; i++ {
		m.ring = append(m.ring, m.freshName("q"))
	}
	for i := range m.ring {
		add(m.ring[i], m.ring[(i+1)%len(m.ring)])
	}
	return out
}

func schemaText(edits []*edit) string {
	var sb strings.Builder
	for _, e := range edits {
		sb.WriteString(strings.Join(e.nodes, " "))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// sessionLane generates the creation body and n calls of one client's
// session. Edits are ~50% of calls (add 30%, remove 15%, rename 5%);
// queries come in pairs of the same op at the same epoch, so the second of
// each pair can hit the epoch-keyed response cache.
func sessionLane(rng *rand.Rand, n int) (create []byte, lane []call) {
	model := newSessionModel()
	seeds := seedEdits(rng, model)
	create = mustJSON(map[string]string{"schema": schemaText(seeds)})
	verified := map[verifiedKey]bool{}
	cur := &laneCursor{create: create, lane: &lane}
	for len(lane) < n {
		var e *edit
		switch r := rng.Float64(); {
		case r < 0.4:
			if model.cover < 0 && rng.Float64() < 0.25 {
				nodes := append([]string(nil), model.ring...)
				sort.Strings(nodes)
				e = &edit{kind: "add", nodes: nodes, cover: true}
			} else {
				nodes := []string{model.treeNodes[rng.Intn(len(model.treeNodes))]}
				for k := 1 + rng.Intn(2); k > 0; k-- {
					nodes = append(nodes, model.freshName("n"))
				}
				sort.Strings(nodes)
				e = &edit{kind: "add", nodes: nodes}
			}
		case r < 0.6:
			slot := model.cover
			if slot < 0 || rng.Float64() >= 0.05 {
				slot = model.treeSlots[rng.Intn(len(model.treeSlots))]
			}
			e = &edit{kind: "remove", slot: slot}
		case r < 2.0/3:
			e = &edit{kind: "rename", old: model.treeNodes[rng.Intn(len(model.treeNodes))], new: model.freshName("r")}
		default:
			op := queryOps[rng.Intn(len(queryOps))]
			for k := 0; k < 2 && len(lane) < n; k++ {
				lane = append(lane, queryCall(op, model, cur, len(lane), verified))
			}
			continue
		}
		lane = append(lane, editCall(e, model))
	}
	return create, lane
}

// editCall applies e to the model and returns the request that performs it,
// checked against the id and epoch the model predicts.
func editCall(e *edit, m *sessionModel) call {
	var c call
	switch e.kind {
	case "add":
		c = call{method: http.MethodPost, path: "/edges", body: mustJSON(map[string][]string{"nodes": e.nodes})}
	case "remove":
		id := e.slot | int(m.slots[e.slot].gen)<<32 // before apply bumps the generation
		c = call{method: http.MethodDelete, path: "/edges/" + strconv.Itoa(id)}
	case "rename":
		c = call{method: http.MethodPost, path: "/rename", body: mustJSON(map[string]string{"old": e.old, "new": e.new})}
	}
	c.op = e.kind
	wantID := m.apply(e)
	wantEpoch := m.epoch
	c.check = func(status int, body []byte) (func() error, error) {
		if err := wantStatus(status, http.StatusOK, body); err != nil {
			return nil, err
		}
		var r struct {
			Edge  *int   `json:"edge"`
			Epoch uint64 `json:"epoch"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		if r.Epoch != wantEpoch || (e.kind == "add" && (r.Edge == nil || *r.Edge != wantID)) {
			return nil, fmt.Errorf("%s: answer %s, want edge %d epoch %d", e.kind, body, wantID, wantEpoch)
		}
		return nil, nil
	}
	c.edit = e
	return c
}

// laneCursor rebuilds a lane's model at increasing positions for the
// deferred join-tree checks, which run in lane order after the measured
// phase: each check advances the model from where the last one stopped.
type laneCursor struct {
	create []byte
	lane   *[]call
	m      *sessionModel
	pos    int
}

func (c *laneCursor) snapshotAt(k int) ([][]string, error) {
	if c.m == nil || k < c.pos {
		m, err := modelAt(c.create, *c.lane, k)
		if err != nil {
			return nil, err
		}
		c.m, c.pos = m, k
	}
	for ; c.pos < k; c.pos++ {
		if e := (*c.lane)[c.pos].edit; e != nil {
			c.m.apply(e)
		}
	}
	return c.m.snapshot(), nil
}

// queryCall is a session query at the model's current epoch, the k-th call
// of its lane.
func queryCall(op string, m *sessionModel, cur *laneCursor, k int, verified map[verifiedKey]bool) call {
	c := call{method: http.MethodPost, path: "/query", body: mustJSON(map[string]string{"op": op}), op: "query"}
	epoch, acyclic := m.epoch, m.cover >= 0
	comps, edges := m.components(), m.alive()
	c.check = func(status int, body []byte) (func() error, error) {
		if !acyclic && (op == "jointree" || op == "fullreducer") {
			if status != http.StatusUnprocessableEntity || errorCode(body) != "cyclic" {
				return nil, fmt.Errorf("%s on a cyclic session: status %d code %q, want 422 cyclic", op, status, errorCode(body))
			}
			return nil, nil
		}
		if err := wantStatus(status, http.StatusOK, body); err != nil {
			return nil, err
		}
		var r struct {
			Epoch   uint64            `json:"epoch"`
			Acyclic bool              `json:"acyclic"`
			Parent  []int             `json:"parent"`
			Roots   []int             `json:"roots"`
			Program []json.RawMessage `json:"program"`
			Alpha   bool              `json:"alpha"`
			Beta    bool              `json:"beta"`
			Gamma   bool              `json:"gamma"`
			Berge   bool              `json:"berge"`
			Degree  string            `json:"degree"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		if r.Epoch != epoch {
			return nil, fmt.Errorf("%s: epoch %d, want %d", op, r.Epoch, epoch)
		}
		switch op {
		case "verdict":
			if r.Acyclic != acyclic {
				return nil, fmt.Errorf("verdict: acyclic=%v, want %v", r.Acyclic, acyclic)
			}
		case "fullreducer":
			if len(r.Program) != 2*(edges-comps) {
				return nil, fmt.Errorf("fullreducer: %d steps, want %d", len(r.Program), 2*(edges-comps))
			}
		case "classification":
			degree := "cyclic"
			if acyclic {
				degree = "alpha-acyclic"
			}
			if r.Alpha != acyclic || r.Beta || r.Gamma || r.Berge || r.Degree != degree {
				return nil, fmt.Errorf("classification: %s, want degree %s", body, degree)
			}
		case "jointree":
			if len(r.Parent) != edges || len(r.Roots) != comps {
				return nil, fmt.Errorf("jointree: %d parents, %d roots; want %d edges in %d components",
					len(r.Parent), len(r.Roots), edges, comps)
			}
			key := verifiedKey{epoch, sha256.Sum256(body)}
			return func() error {
				if verified[key] {
					return nil
				}
				snap, err := cur.snapshotAt(k)
				if err != nil {
					return err
				}
				if err := (&jointree.JoinTree{H: hypergraph.New(snap), Parent: r.Parent}).Verify(); err != nil {
					return fmt.Errorf("jointree at epoch %d fails Verify: %w", epoch, err)
				}
				verified[key] = true
				return nil
			}, nil
		}
		return nil, nil
	}
	return c
}

func buildWorkspaceSession(rng *rand.Rand, n int) *workload {
	w := &workload{name: "workspace_session", snapEvery: sessionSnapEvery}
	for c := 0; c < numClients; c++ {
		create, lane := sessionLane(rng, n)
		w.creates = append(w.creates, create)
		w.lanes = append(w.lanes, lane)
	}
	return w
}

// modelAt rebuilds a lane's model after its first k calls.
func modelAt(create []byte, lane []call, k int) (*sessionModel, error) {
	var req struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(create, &req); err != nil {
		return nil, err
	}
	m := newSessionModel()
	for _, line := range strings.Split(strings.TrimSpace(req.Schema), "\n") {
		m.apply(&edit{kind: "add", nodes: strings.Fields(line)})
	}
	for _, c := range lane[:k] {
		if c.edit != nil {
			m.apply(c.edit)
		}
	}
	return m, nil
}
