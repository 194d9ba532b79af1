package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/spectrum"
	"repro/internal/store"
)

// span is one timed call in the traced replay. Parent indexes the
// enclosing span (-1 for a request's root); Req is the replayed request's
// index, negative for setup requests.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory. The replay is serial, so the open spans
// form a stack. A tracer that is off records nothing and only runs f.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int
	req   int
}

func (t *tracer) span(name string, f func() error) error {
	if !t.on {
		return f()
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: t.req})
	t.open = append(t.open, i)
	err := f()
	t.spans[i].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
	return err
}

// replayer sends a workload's calls through the layers' public functions
// in-process, the way hgserved's handlers make them, with a span around
// each call. The engine and workspaces are built as the server builds them.
type replayer struct {
	tr        *tracer
	eng       *engine.Engine
	workers   int
	dir       string
	snapEvery int
	spaces    []*dynamic.Workspace
	sessions  []*store.Session
	pending   []int // WAL records since each session's last compaction
	counts    map[string]int64
	execBusy  time.Duration
	execWait  time.Duration
	failures  tally
}

func newReplayer(traced bool, dir string, snapEvery int) *replayer {
	workers := runtime.GOMAXPROCS(0)
	return &replayer{
		tr:        &tracer{on: traced, t0: time.Now()},
		eng:       engine.New(engine.WithWorkers(workers)),
		workers:   workers,
		dir:       dir,
		snapEvery: snapEvery,
		counts:    map[string]int64{},
	}
}

// Wire shapes of hgserved's requests, mirrored.
type schemaReq struct {
	Schema string `json:"schema"`
}

type tableReq struct {
	Attrs []string   `json:"attrs"`
	Rows  [][]string `json:"rows"`
}

type evalReq struct {
	Schema string     `json:"schema"`
	Tables []tableReq `json:"tables"`
	Attrs  []string   `json:"attrs"`
}

// setup mirrors the end-to-end setup: sessions are created and seeded, or
// the warm-up calls are made.
func (r *replayer) setup(w *workload) error {
	for i, body := range w.creates {
		r.tr.req = -1 - i
		err := r.tr.span("request", func() error { return r.createSession(body) })
		if err != nil {
			return err
		}
	}
	for i, c := range w.warm {
		r.tr.req = -1 - len(w.creates) - i
		r.replay(c, 0)
	}
	return nil
}

func (r *replayer) createSession(body []byte) error {
	var req schemaReq
	if err := r.tr.span("server.decode", func() error { return json.Unmarshal(body, &req) }); err != nil {
		return err
	}
	var h *hypergraph.Hypergraph
	err := r.tr.span("hypergraph.parse", func() (err error) {
		h, _, err = hypergraph.Parse(req.Schema)
		return err
	})
	if err != nil {
		return err
	}
	var sess *store.Session
	var ws *dynamic.Workspace
	err = r.tr.span("store.create", func() (err error) {
		dir := filepath.Join(r.dir, "ws-"+strconv.Itoa(len(r.spaces)+1))
		sess, ws, err = store.Create(dir, store.Options{SnapshotEvery: -1}, r.wsOptions()...)
		return err
	})
	if err != nil {
		return err
	}
	r.spaces = append(r.spaces, ws)
	r.sessions = append(r.sessions, sess)
	r.pending = append(r.pending, 0)
	lane := len(r.spaces) - 1
	for i := 0; i < h.NumEdges(); i++ {
		names := h.EdgeNodes(i)
		if err := r.edit(lane, func() error { _, err := ws.AddEdge(names...); return err }); err != nil {
			return err
		}
	}
	return r.encode(map[string]any{"id": "ws-" + strconv.Itoa(lane+1), "epoch": ws.Epoch()})
}

func (r *replayer) wsOptions() []dynamic.Option {
	return []dynamic.Option{dynamic.WithEngine(r.eng), dynamic.WithParallelism(r.workers)}
}

// edit makes one journaled workspace change. hgserved compacts a session in
// the background once snapEvery records pile up; the replay compacts at the
// same points, in line, under its own span.
func (r *replayer) edit(lane int, f func() error) error {
	if err := r.tr.span("dynamic.edit", f); err != nil {
		return err
	}
	r.counts["dynamic.edits"]++
	if r.pending[lane]++; r.snapEvery > 0 && r.pending[lane] >= r.snapEvery {
		r.pending[lane] = 0
		r.counts["store.compactions"]++
		return r.tr.span("store.compact", r.sessions[lane].Compact)
	}
	return nil
}

// replay makes one call, checks its answer like the end-to-end run does,
// and counts a wrong one.
func (r *replayer) replay(c call, lane int) {
	var status int
	var body []byte
	_ = r.tr.span("request", func() error {
		status, body = r.handle(c, lane)
		return nil
	})
	r.counts["requests."+c.op]++
	later, err := c.check(status, body)
	if err == nil && later != nil {
		err = later()
	}
	if err != nil {
		r.failures.fail(fmt.Errorf("replay %s: %w", c.op, err))
	}
}

// handle runs the handler logic of c's endpoint, returning hgserved's status
// and body for it.
func (r *replayer) handle(c call, lane int) (int, []byte) {
	ctx := context.Background()
	var res any
	var err error
	switch c.op {
	case "analyze", "jointree", "classify":
		res, err = r.schemaOp(ctx, c)
	case "reduce", "eval":
		res, err = r.execOp(ctx, c)
	case "add", "remove", "rename":
		res, err = r.sessionEdit(c, lane)
	case "query":
		res, err = r.sessionQuery(ctx, c, lane)
	default:
		err = fmt.Errorf("unknown op %q", c.op)
	}
	status := http.StatusOK
	if err != nil {
		status, res = http.StatusInternalServerError, map[string]any{"error": map[string]string{"code": "internal", "message": err.Error()}}
		if errors.Is(err, hypergraph.ErrCyclic) {
			status, res = http.StatusUnprocessableEntity, map[string]any{"error": map[string]string{"code": "cyclic", "message": err.Error()}}
		}
	}
	var out []byte
	_ = r.tr.span("server.encode", func() error {
		out, _ = json.Marshal(res)
		return nil
	})
	return status, out
}

func (r *replayer) encode(v any) error {
	return r.tr.span("server.encode", func() error { _, err := json.Marshal(v); return err })
}

// parse is the decode, parse and fingerprint prefix every schema endpoint
// shares. The fingerprint is computed under its own span; the engine's memo
// probe then reuses it.
func (r *replayer) parse(text string) (*hypergraph.Hypergraph, error) {
	var h *hypergraph.Hypergraph
	err := r.tr.span("hypergraph.parse", func() (err error) {
		h, _, err = hypergraph.Parse(text)
		return err
	})
	if err != nil {
		return nil, err
	}
	_ = r.tr.span("hypergraph.fingerprint", func() error { h.Fingerprint128(); return nil })
	r.counts["hypergraph.edges"] += int64(h.NumEdges())
	return h, nil
}

func (r *replayer) lookup(ctx context.Context, h *hypergraph.Hypergraph) *analysis.Analysis {
	var a *analysis.Analysis
	_ = r.tr.span("engine.lookup", func() error { a = r.eng.AnalyzeCtx(ctx, h); return nil })
	return a
}

func (r *replayer) schemaOp(ctx context.Context, c call) (any, error) {
	var req schemaReq
	if err := r.tr.span("server.decode", func() error { return json.Unmarshal(c.body, &req) }); err != nil {
		return nil, err
	}
	h, err := r.parse(req.Schema)
	if err != nil {
		return nil, err
	}
	a := r.lookup(ctx, h)
	switch c.op {
	case "analyze":
		var acyclic bool
		err := r.tr.span("mcs.run", func() (err error) { acyclic, err = a.VerdictCtx(ctx); return err })
		return map[string]any{"acyclic": acyclic, "nodes": h.NumNodes(), "edges": h.NumEdges()}, err
	case "jointree":
		var jt *jointree.JoinTree
		if err := r.tr.span("mcs.run", func() (err error) { jt, err = a.JoinTreeCtx(ctx); return err }); err != nil {
			return nil, err
		}
		var prog []jointree.SemijoinStep
		err := r.tr.span("jointree.reducer", func() (err error) { prog, err = a.FullReducerCtx(ctx); return err })
		return map[string]any{"parent": jt.Parent, "roots": jt.Roots(), "program": stepsJSON(prog)}, err
	default:
		var res *spectrum.Result
		err := r.tr.span("spectrum.classify", func() (err error) { res, err = a.SpectrumCtx(ctx); return err })
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"alpha": res.Alpha, "beta": res.Beta.Acyclic, "gamma": res.Gamma.Acyclic, "berge": res.Berge,
			"degree": res.Degree.String(),
		}, nil
	}
}

func stepsJSON(prog []jointree.SemijoinStep) []map[string]int {
	out := make([]map[string]int, len(prog))
	for i, s := range prog {
		out[i] = map[string]int{"target": s.Target, "source": s.Source}
	}
	return out
}

func (r *replayer) execOp(ctx context.Context, c call) (any, error) {
	var req evalReq
	if err := r.tr.span("server.decode", func() error { return json.Unmarshal(c.body, &req) }); err != nil {
		return nil, err
	}
	h, err := r.parse(req.Schema)
	if err != nil {
		return nil, err
	}
	var d *exec.Database
	err = r.tr.span("exec.load", func() error {
		rels := make([]*relation.Relation, len(req.Tables))
		for i, t := range req.Tables {
			rel, err := relation.New(t.Attrs, t.Rows...)
			if err != nil {
				return err
			}
			rels[i] = rel
		}
		var err error
		d, err = exec.FromRelations(h, rels)
		return err
	})
	if err != nil {
		return nil, err
	}
	a := r.lookup(ctx, h)
	r.counts["exec.calls"]++
	if c.op == "reduce" {
		var res *exec.ReduceResult
		if err := r.tr.span("exec.reduce", func() (err error) { res, err = a.Reduce(ctx, d); return err }); err != nil {
			return nil, err
		}
		r.countSteps(res)
		return map[string]any{"rowsIn": res.RowsIn, "rowsOut": res.RowsOut, "steps": len(res.Steps)}, nil
	}
	var res *exec.EvalResult
	if err := r.tr.span("exec.eval", func() (err error) { res, err = a.Eval(ctx, d, req.Attrs); return err }); err != nil {
		return nil, err
	}
	r.countSteps(res.Reduce)
	r.counts["exec.join_rows"] += int64(res.JoinRows)
	return map[string]any{
		"attrs": res.Out.Attrs(), "rows": res.Out.ToRelation().Rows(),
		"joinRows": res.JoinRows, "rowsIn": res.Reduce.RowsIn, "rowsOut": res.Reduce.RowsOut,
	}, nil
}

func (r *replayer) countSteps(res *exec.ReduceResult) {
	r.counts["exec.rows_in"] += int64(res.RowsIn)
	r.counts["exec.rows_out"] += int64(res.RowsOut)
	r.counts["exec.steps"] += int64(len(res.Steps))
	for _, s := range res.Steps {
		r.execBusy += s.Elapsed
		r.execWait += s.Wait
	}
}

func (r *replayer) sessionEdit(c call, lane int) (any, error) {
	ws := r.spaces[lane]
	e := c.edit
	var res map[string]any
	var decoded map[string]any
	var id int
	if e.kind == "remove" {
		var err error
		if id, err = strconv.Atoi(strings.TrimPrefix(c.path, "/edges/")); err != nil {
			return nil, err
		}
	}
	if c.body != nil {
		if err := r.tr.span("server.decode", func() error { return json.Unmarshal(c.body, &decoded) }); err != nil {
			return nil, err
		}
	}
	err := r.edit(lane, func() error {
		switch e.kind {
		case "add":
			id, err := ws.AddEdge(e.nodes...)
			res = map[string]any{"edge": id}
			return err
		case "remove":
			return ws.RemoveEdge(id)
		default:
			return ws.RenameNode(e.old, e.new)
		}
	})
	if err != nil {
		return nil, err
	}
	if res == nil {
		res = map[string]any{}
	}
	res["epoch"] = ws.Epoch()
	return res, nil
}

func (r *replayer) sessionQuery(ctx context.Context, c call, lane int) (any, error) {
	var req struct {
		Op string `json:"op"`
	}
	if err := r.tr.span("server.decode", func() error { return json.Unmarshal(c.body, &req) }); err != nil {
		return nil, err
	}
	ws := r.spaces[lane]
	var a *dynamic.Analysis
	if err := r.tr.span("dynamic.settle", func() (err error) { a, err = ws.AnalysisCtx(ctx); return err }); err != nil {
		return nil, err
	}
	r.counts["dynamic.queries"]++
	res := map[string]any{"epoch": a.Epoch()}
	if req.Op == "verdict" {
		res["acyclic"] = a.Verdict()
		return res, nil
	}
	// The snapshot is materialized once per epoch; taking it under its own
	// span leaves the forest and classification spans their own work.
	if err := r.tr.span("dynamic.snapshot", func() error { _, err := a.Snapshot(); return err }); err != nil {
		return nil, err
	}
	switch req.Op {
	case "jointree":
		var jt *jointree.JoinTree
		if err := r.tr.span("dynamic.forest", func() (err error) { jt, err = a.JoinTree(); return err }); err != nil {
			return nil, err
		}
		res["parent"], res["roots"] = jt.Parent, jt.Roots()
	case "fullreducer":
		var prog []jointree.SemijoinStep
		if err := r.tr.span("dynamic.forest", func() (err error) { prog, err = a.FullReducer(); return err }); err != nil {
			return nil, err
		}
		res["program"] = stepsJSON(prog)
	case "classification":
		err := r.tr.span("dynamic.classify", func() error {
			cl, err := a.ClassificationCtx(ctx)
			degree := spectrum.DegreeCyclic
			switch {
			case cl.Alpha && cl.Beta && cl.Gamma && cl.Berge:
				degree = spectrum.DegreeBerge
			case cl.Alpha && cl.Beta && cl.Gamma:
				degree = spectrum.DegreeGamma
			case cl.Alpha && cl.Beta:
				degree = spectrum.DegreeBeta
			case cl.Alpha:
				degree = spectrum.DegreeAlpha
			}
			res["alpha"], res["beta"], res["gamma"], res["berge"] = cl.Alpha, cl.Beta, cl.Gamma, cl.Berge
			res["degree"] = degree.String()
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// close releases the sessions; their directories stay for reopening.
func (r *replayer) close() {
	for _, s := range r.sessions {
		_ = s.Close() // the replay has no further use for a close error
	}
}

// replayResult is what one replay pass yields.
type replayResult struct {
	wall     time.Duration // the replayed requests, setup excluded
	requests int
	counts   map[string]int64
	spans    []span
	execBusy time.Duration
	execWait time.Duration
	memoHit  float64
	failures *tally
	recover  time.Duration // median store.Open of the replay's sessions
}

// runReplay replays the first n requests of w serially, after the same
// setup the end-to-end run makes.
func runReplay(w *workload, n int, traced bool, dir string) (*replayResult, error) {
	r := newReplayer(traced, dir, w.snapEvery)
	if err := r.setup(w); err != nil {
		return nil, fmt.Errorf("replay setup: %w", err)
	}
	before := r.eng.Stats()
	calls, lanes := w.replayOrder(n)
	start := time.Now()
	for i, c := range calls {
		r.tr.req = i
		r.replay(c, lanes[i])
	}
	wall := time.Since(start)
	after := r.eng.Stats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	r.counts["engine.memo_hits"] = hits
	r.counts["engine.memo_misses"] = misses
	r.close()
	res := &replayResult{
		wall: wall, requests: len(calls), counts: r.counts, spans: r.tr.spans,
		execBusy: r.execBusy, execWait: r.execWait,
		memoHit:  ratio(float64(hits), float64(hits+misses)),
		failures: &r.failures,
	}
	if len(r.sessions) > 0 {
		var opens []float64
		for k := 0; k < 3; k++ {
			start := time.Now()
			for i := range r.sessions {
				r.tr.req = -1000 - k
				err := r.tr.span("store.open", func() error {
					s, _, err := store.Open(filepath.Join(dir, "ws-"+strconv.Itoa(i+1)), store.Options{SnapshotEvery: -1}, r.wsOptions()...)
					if err == nil {
						err = s.Close()
					}
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("replay recovery: %w", err)
				}
			}
			opens = append(opens, float64(time.Since(start)))
		}
		res.recover = time.Duration(median(opens))
		res.spans = r.tr.spans
	}
	return res, nil
}

// handlerReplay sends the same requests through hgserved's handler
// in-process (no sockets), built with the same configuration, and returns
// the duration of each ServeHTTP call.
func handlerReplay(w *workload, n int, cfg server.Config) ([]time.Duration, *tally, error) {
	s := server.New(cfg, nil)
	defer s.FlushSessions()
	h := s.Handler()
	t := &tally{}
	serve := func(method, path string, body []byte, tenant string) (int, []byte) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.Header.Set("X-Tenant", tenant)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	sids := make([]string, len(w.creates))
	for i, body := range w.creates {
		status, out := serve(http.MethodPost, "/v1/workspaces", body, "tenant-"+strconv.Itoa(i))
		var r struct {
			ID string `json:"id"`
		}
		if status != http.StatusOK || json.Unmarshal(out, &r) != nil {
			return nil, nil, fmt.Errorf("handler replay: create session: %d %s", status, out)
		}
		sids[i] = r.ID
	}
	for _, c := range w.warm {
		status, out := serve(c.method, c.path, c.body, "tenant-0")
		if _, err := c.check(status, out); err != nil {
			t.fail(err)
		}
	}
	calls, lanes := w.replayOrder(n)
	durs := make([]time.Duration, 0, len(calls))
	for i, c := range calls {
		path := c.path
		if len(sids) > 0 {
			path = "/v1/workspaces/" + sids[lanes[i]] + path
		}
		start := time.Now()
		status, out := serve(c.method, path, c.body, "tenant-"+strconv.Itoa(lanes[i]))
		durs = append(durs, time.Since(start))
		later, err := c.check(status, out)
		if err == nil && later != nil {
			err = later()
		}
		if err != nil {
			t.fail(fmt.Errorf("handler replay %s: %w", c.op, err))
		}
	}
	return durs, t, nil
}

// selfTimes sums each span name's self time — its duration minus the time
// its children cover — over the replayed requests (setup excluded), with
// the number of spans of that name.
func selfTimes(spans []span) (self map[string]time.Duration, calls map[string]int, total time.Duration) {
	self, calls = map[string]time.Duration{}, map[string]int{}
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	for i, s := range spans {
		if s.Req < 0 {
			continue
		}
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d - child[i]
		calls[s.Name]++
		if s.Parent < 0 {
			total += d
		}
	}
	return self, calls, total
}

func writeTrace(path string, doc any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
