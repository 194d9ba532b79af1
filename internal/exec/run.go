package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/jointree"
	"repro/internal/obs"
	"repro/internal/pool"
)

// StepStats records one semijoin statement of a reduction run.
type StepStats struct {
	Step    jointree.SemijoinStep
	RowsIn  int // target rows before the semijoin
	RowsOut int // target rows after
	Elapsed time.Duration
	// Wait is the queueing delay before the step's kernel started: in a
	// parallel reduction, the time between a level's dispatch and the
	// moment a worker picked the step's node up (charged to the node's
	// first step). Serial runs never queue, so Wait is 0 there. Elapsed is
	// pure kernel time and never includes Wait.
	Wait time.Duration
}

// ReduceResult is the outcome of running a full-reducer program: the
// reduced database (untouched tables are shared with the input, shrunk ones
// are fresh), per-step statistics, and totals.
type ReduceResult struct {
	DB      *Database
	Steps   []StepStats
	RowsIn  int // total rows across objects before reduction
	RowsOut int // total rows across objects after
	Elapsed time.Duration
}

// Reduce runs tree's two-pass full reducer over d as a streaming semijoin
// program: objects are replaced by their semijoin with a neighbour, without
// ever materializing a join. For acyclic schemas this leaves every object
// globally consistent (Bernstein–Goodman), the precondition Eval's
// output-sensitivity rests on. d is not mutated, and tree must belong to
// d's schema (same content; fingerprints are compared).
//
// The reducer is scheduled on jointree.Levels: every node of an up-level
// folds its children into itself (in child order) as one task, and the
// down pass mirrors it by depth, so a node's fold consumes only final child
// tables and writes only its own slot. A nil or 1-worker pool runs the
// tasks inline; a larger one runs a level's tasks concurrently and chunks
// big hash semijoins over its workers. Either way the result — reduced
// tables, Steps in tree.FullReducer() program order, per-step row counts —
// is the same. Each step picks its kernel from its inputs (semijoinStep).
// Cancellation is observed inside the kernels every ~4096 rows; on
// cancellation the partial work is discarded and ctx.Err() returned.
func Reduce(ctx context.Context, d *Database, tree *jointree.JoinTree, p *pool.Pool) (*ReduceResult, error) {
	if len(tree.Parent) != len(d.Tables) || tree.H.Fingerprint128() != d.Schema.Fingerprint128() {
		return nil, fmt.Errorf("exec: join tree belongs to a different schema")
	}
	ctx, rsp := obs.StartSpan(ctx, "exec.reduce")
	defer rsp.End()
	start := time.Now()
	m := len(d.Tables)
	work := make([]*Table, m)
	copy(work, d.Tables)

	// Pre-assign every step its slot in program order, so concurrent
	// completion can't scramble the Steps slice.
	post := tree.PostOrder()
	upIdx := make([]int, m)
	downIdx := make([]int, m)
	nUp := 0
	for _, v := range post {
		if tree.Parent[v] >= 0 {
			upIdx[v] = nUp
			nUp++
		}
	}
	k := nUp
	for i := len(post) - 1; i >= 0; i-- {
		if v := post[i]; tree.Parent[v] >= 0 {
			downIdx[v] = k
			k++
		}
	}
	steps := make([]StepStats, k)

	var perr parErr
	// step runs work[target] ⋉ work[source] into slot, reporting success.
	step := func(target, source, slot int, wait time.Duration, st *stamps) bool {
		sctx, ssp := obs.StartSpan(ctx, "exec.step")
		stepStart := time.Now()
		in := work[target].rows
		next, err := semijoinStep(sctx, work[target], work[source], p, st)
		if err != nil {
			ssp.SetAttr("error", err.Error())
			ssp.End()
			perr.set(err)
			return false
		}
		work[target] = next
		steps[slot] = StepStats{
			Step:    jointree.SemijoinStep{Target: target, Source: source},
			RowsIn:  in,
			RowsOut: next.rows,
			Elapsed: time.Since(stepStart),
			Wait:    wait,
		}
		ssp.SetInt("target", int64(target))
		ssp.SetInt("source", int64(source))
		ssp.SetInt("rowsIn", int64(in))
		ssp.SetInt("rowsOut", int64(next.rows))
		ssp.SetInt("waitNs", wait.Nanoseconds())
		ssp.End()
		return true
	}
	// Dense-kernel scratch belongs to one task at a time, so concurrent
	// sibling steps never share it; a serial run reuses a single one.
	scratch := sync.Pool{New: func() any { return new(stamps) }}
	serial := p.Parallelism() == 1
	runLevel := func(level []int, task func(v int, wait time.Duration, st *stamps)) {
		// A level is dispatched all at once, so the time between dispatch
		// and a task starting is pure pool queueing (0 when serial).
		dispatch := time.Now()
		p.Do(len(level), func(i int) {
			var wait time.Duration
			if !serial {
				wait = time.Since(dispatch)
			}
			if perr.get() != nil {
				return
			}
			st := scratch.Get().(*stamps)
			defer scratch.Put(st)
			task(level[i], wait, st)
		})
	}
	ch := tree.Children()
	up, down := tree.Levels()
	for _, level := range up {
		if perr.get() != nil {
			break
		}
		runLevel(level, func(v int, wait time.Duration, st *stamps) {
			// Each child's own fold finished in a lower level, so work[c]
			// is final, and no other task touches work[v]. Queueing is
			// charged to the node's first step.
			for _, c := range ch[v] {
				if !step(v, c, upIdx[c], wait, st) {
					return
				}
				wait = 0
			}
		})
	}
	for _, level := range down {
		if perr.get() != nil {
			break
		}
		runLevel(level, func(v int, wait time.Duration, st *stamps) {
			if pv := tree.Parent[v]; pv >= 0 {
				step(v, pv, downIdx[v], wait, st)
			}
		})
	}
	if err := perr.get(); err != nil {
		return nil, err
	}
	res := &ReduceResult{Steps: steps, RowsIn: d.NumRows()}
	res.DB = &Database{Schema: d.Schema, Tables: work}
	res.RowsOut = res.DB.NumRows()
	res.Elapsed = time.Since(start)
	rsp.SetInt("rowsIn", int64(res.RowsIn))
	rsp.SetInt("rowsOut", int64(res.RowsOut))
	rsp.SetInt("steps", int64(len(res.Steps)))
	return res, nil
}

// EvalResult is the outcome of a full Yannakakis evaluation.
type EvalResult struct {
	// Out is π_attrs(⋈ all objects).
	Out *Table
	// Reduce is the embedded reduction phase with its per-step stats.
	Reduce *ReduceResult
	// JoinRows counts the rows materialized by the bottom-up join phase
	// across all intermediates — the output-sensitivity metric: after full
	// reduction it is bounded by rows that contribute to the output, not by
	// the largest intermediate a naive plan would build.
	JoinRows int
	Elapsed  time.Duration
}

// Eval answers π_attrs(⋈ all objects) with the classic Yannakakis strategy
// over a join tree of the schema: Reduce, then join bottom-up along the
// tree, projecting every intermediate onto the query attributes plus the
// connection to its parent. The tree must belong to d's schema (same
// content; fingerprints are compared). Disconnected schemas cross-join
// their component results, and every requested attribute must appear in
// some edge. With a multi-worker pool, sibling subtrees build concurrently
// (token-gated, inline when the pool is saturated) while each node still
// applies its child joins in child order, so the output table is the same
// for every pool.
func Eval(ctx context.Context, d *Database, tree *jointree.JoinTree, attrs []string, p *pool.Pool) (*EvalResult, error) {
	ctx, esp := obs.StartSpan(ctx, "exec.eval")
	defer esp.End()
	// Chaos site: head of the Yannakakis pipeline, hit once per evaluation.
	if err := fault.HitCtx(ctx, fault.ExecEvalJoin); err != nil {
		return nil, err
	}
	start := time.Now()
	if len(d.Tables) == 0 {
		return nil, fmt.Errorf("exec: empty schema")
	}
	want := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		id, ok := d.Schema.NodeID(a)
		if !ok {
			return nil, fmt.Errorf("exec: unknown query attribute %q", a)
		}
		covered := false
		for i := 0; i < d.Schema.NumEdges() && !covered; i++ {
			covered = d.Schema.EdgeView(i).Contains(id)
		}
		if !covered {
			return nil, fmt.Errorf("exec: query attribute %q occurs in no object", a)
		}
		want[a] = true
	}
	red, err := Reduce(ctx, d, tree, p)
	if err != nil {
		return nil, err
	}
	res := &EvalResult{Reduce: red}
	reduced := red.DB.Tables

	var joinRows atomic.Int64
	ch := tree.Children()
	// buildAll computes the subtree tables of vs concurrently when tokens
	// allow: vs[0] runs inline (the caller is a worker), the rest spawn
	// only if TryAcquire grants a token, so recursion cannot oversubscribe.
	var build func(v int) (*Table, error)
	buildAll := func(vs []int) ([]*Table, error) {
		subs := make([]*Table, len(vs))
		errs := make([]error, len(vs))
		var wg sync.WaitGroup
		for i := len(vs) - 1; i >= 1; i-- {
			if p.TryAcquire() {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					defer p.Release()
					subs[i], errs[i] = build(vs[i])
				}(i)
			} else {
				subs[i], errs[i] = build(vs[i])
			}
		}
		if len(vs) > 0 {
			subs[0], errs[0] = build(vs[0])
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		return subs, nil
	}
	// Bottom-up join with projection pushdown: each subtree result keeps
	// only the query attributes and the attributes shared with its parent.
	build = func(v int) (*Table, error) {
		subs, err := buildAll(ch[v])
		if err != nil {
			return nil, err
		}
		acc := reduced[v]
		for _, sub := range subs {
			if acc, err = joinPar(ctx, acc, sub, p); err != nil {
				return nil, err
			}
			joinRows.Add(int64(acc.rows))
		}
		keep := make([]string, 0, acc.NumAttrs())
		pv := tree.Parent[v]
		for i := 0; i < acc.NumAttrs(); i++ {
			a := acc.Attr(i)
			if want[a] {
				keep = append(keep, a)
				continue
			}
			if pv >= 0 {
				if id, ok := d.Schema.NodeID(a); ok && d.Schema.EdgeView(pv).Contains(id) {
					keep = append(keep, a)
				}
			}
		}
		return projectPar(ctx, acc, keep, p)
	}
	subs, err := buildAll(tree.Roots())
	if err != nil {
		return nil, err
	}
	acc := subs[0]
	for _, sub := range subs[1:] {
		if acc, err = joinPar(ctx, acc, sub, p); err != nil {
			return nil, err
		}
		joinRows.Add(int64(acc.rows))
	}
	out, err := projectPar(ctx, acc, attrs, p)
	if err != nil {
		return nil, err
	}
	res.JoinRows = int(joinRows.Load())
	res.Out = out
	res.Elapsed = time.Since(start)
	esp.SetInt("joinRows", int64(res.JoinRows))
	esp.SetInt("rowsOut", int64(out.rows))
	return res, nil
}
