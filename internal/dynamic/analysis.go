package dynamic

import (
	"context"
	"sync"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gyo"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/spectrum"
)

// Analysis is the epoch-bound analysis handle of a Workspace: a view of the
// workspace at the epoch Workspace.Analysis was called. The incremental
// facets (Verdict) are settled at creation from the per-component state the
// edits maintained. The derived facets (Snapshot, JoinTree, FullReducer,
// Classification, GrahamTrace, Witness, Reduce, Eval) delegate to one
// analysis.Analysis of the epoch snapshot, opened on first use with
// analysis.NewFromForest: the join forest assembled from the per-component
// fragments seeds it, so no facet re-runs the acyclicity search, and the
// traversals that remain (spectrum, Graham trace, witness search) coalesce
// and observe each caller's deadline exactly as on a frozen session.
//
// Consistency is explicit: every derived facet checks on every call that
// the workspace is still at the handle's epoch and reports *ErrStaleEpoch
// otherwise — even when the artifact was already materialized — so an edit
// invalidates downstream plans loudly instead of letting a join tree or
// execution plan of a hypergraph that no longer exists be served silently.
// Values a caller already holds (a returned *JoinTree, a snapshot) stay
// valid for the epoch they describe; recover from staleness by taking a
// fresh handle with Workspace.Analysis. Only Verdict, Epoch, and NumEdges —
// plain facts about the epoch, settled at creation — stay readable forever.
//
// Handles are safe for concurrent use.
type Analysis struct {
	ws      *Workspace
	epoch   uint64
	acyclic bool // conjunction of the per-component verdicts at the epoch
	edges   int  // alive edges at the epoch

	mu    sync.Mutex
	inner *analysis.Analysis // session over the epoch snapshot; nil until first use
}

// Epoch returns the workspace epoch this handle describes.
func (a *Analysis) Epoch() uint64 { return a.epoch }

// NumEdges returns the number of alive edges at the handle's epoch.
func (a *Analysis) NumEdges() int { return a.edges }

// Verdict reports α-acyclicity at the handle's epoch: the conjunction of
// the per-component verdicts the workspace maintains under edits. No
// traversal runs here — edits already paid for the components they
// touched — and the value stays readable after further edits (it is a
// fact about this epoch).
func (a *Analysis) Verdict() bool { return a.acyclic }

// session returns the wrapped analysis of the epoch snapshot after the
// epoch check, materializing it on first use (Workspace.materialize). The
// handle's lock covers only that materialization, never a traversal.
func (a *Analysis) session() (*analysis.Analysis, error) {
	if err := a.ws.stale(a.epoch); err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inner == nil {
		snap, forest, err := a.ws.materialize(a.epoch)
		if err != nil {
			return nil, err
		}
		a.inner = analysis.NewFromForest(snap, forest, analysis.WithPool(a.ws.pool))
	}
	return a.inner, nil
}

// Snapshot returns the immutable hypergraph of the handle's epoch,
// materializing it on first use; *ErrStaleEpoch if the workspace has moved
// on before anything forced the snapshot.
func (a *Analysis) Snapshot() (*hypergraph.Hypergraph, error) {
	s, err := a.session()
	if err != nil {
		return nil, err
	}
	return s.Hypergraph(), nil
}

// JoinTree returns the join forest of the handle's epoch: the union of the
// per-component join-tree fragments the workspace maintains, assembled over
// the epoch snapshot — no search re-runs. It reports ErrCyclic when any
// component is cyclic and *ErrStaleEpoch when the workspace has moved on.
// The tree is shared across callers and must be treated as read-only.
func (a *Analysis) JoinTree() (*jointree.JoinTree, error) {
	s, err := a.session()
	if err != nil {
		return nil, err
	}
	return s.JoinTree()
}

// FullReducer derives the two-pass semijoin program from the epoch's join
// forest (Bernstein–Goodman). Cyclic epochs report ErrCyclicSchema (which
// also matches ErrCyclic under errors.Is); edited-away epochs report
// *ErrStaleEpoch.
func (a *Analysis) FullReducer() ([]jointree.SemijoinStep, error) {
	s, err := a.session()
	if err != nil {
		return nil, err
	}
	return s.FullReducer()
}

// Classification places the epoch's hypergraph in the acyclicity hierarchy
// (α ⊇ β ⊇ γ ⊇ Berge). It is ClassificationCtx without cancellation.
func (a *Analysis) Classification() (spectrum.Classification, error) {
	return a.ClassificationCtx(context.Background())
}

// ClassificationCtx places the epoch's hypergraph in the acyclicity
// hierarchy, backed by the polynomial spectrum testers over the epoch
// snapshot — the α component is the incremental verdict, the stricter
// notions run at most once per handle and observe ctx every ~4096 work
// units (see analysis.Analysis.SpectrumCtx). A cancelled run leaves the
// facet uncomputed for a later retry.
func (a *Analysis) ClassificationCtx(ctx context.Context) (spectrum.Classification, error) {
	s, err := a.session()
	if err != nil {
		return spectrum.Classification{}, err
	}
	return s.ClassificationCtx(ctx)
}

// GrahamTrace returns the Graham (GYO) reduction of the epoch snapshot with
// no sacred nodes, including the full step trace (see
// analysis.Analysis.GrahamTraceCtx). A cancelled run leaves the facet
// uncomputed for a later retry; a completed run is cached.
func (a *Analysis) GrahamTrace(ctx context.Context) (*gyo.Result, error) {
	s, err := a.session()
	if err != nil {
		return nil, err
	}
	return s.GrahamTraceCtx(ctx)
}

// Witness returns the Theorem 6.1 independent-path witness when the epoch
// is cyclic: the path, the node-generated core it lives in, and found =
// true. On the acyclic side it short-circuits on the incremental verdict —
// no search runs. The results are shared and must be treated as read-only.
func (a *Analysis) Witness() (path *core.Path, coreGraph *hypergraph.Hypergraph, found bool, err error) {
	s, err := a.session()
	if err != nil {
		return nil, nil, false, err
	}
	return s.Witness()
}

// Reduce applies the epoch's full reducer to the columnar database d over
// the workspace's pool (see analysis.Analysis.Reduce for the execution
// contract). The plan is epoch-checked; the reduction itself runs per call.
func (a *Analysis) Reduce(ctx context.Context, d *exec.Database) (*exec.ReduceResult, error) {
	s, err := a.session()
	if err != nil {
		return nil, err
	}
	return s.Reduce(ctx, d)
}

// Eval answers π_attrs(⋈ all objects) over d with the full Yannakakis
// strategy, using the epoch's join forest (see analysis.Analysis.Eval for
// the execution contract). Plans are epoch-checked like Reduce.
func (a *Analysis) Eval(ctx context.Context, d *exec.Database, attrs []string) (*exec.EvalResult, error) {
	s, err := a.session()
	if err != nil {
		return nil, err
	}
	return s.Eval(ctx, d, attrs)
}

// --- workspace-side epoch-checked reads ---

// stale reports *ErrStaleEpoch when the workspace has moved past epoch.
// The epoch is atomic, so the check runs lock-free; materialize re-checks
// under ws.mu, which is authoritative.
func (ws *Workspace) stale(epoch uint64) error {
	if cur := ws.epoch.Load(); cur != epoch {
		return &ErrStaleEpoch{Handle: epoch, Current: cur}
	}
	return nil
}

// materialize returns the snapshot of epoch and its join forest, or
// *ErrStaleEpoch. The forest is assembled from the per-component fragments:
// each fragment's canonical-order parent links are rebased onto snapshot
// edge positions, and the roots of all fragments stay roots of the forest;
// it is nil when any component is cyclic. The check and both builds happen
// under one ws.mu acquisition, so they describe exactly the requested
// epoch.
func (ws *Workspace) materialize(epoch uint64) (*hypergraph.Hypergraph, *jointree.JoinTree, error) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.stale(epoch); err != nil {
		return nil, nil, err
	}
	snap := ws.snapshotLocked()
	if ws.cyclic > 0 {
		return snap, nil, nil
	}
	parent := make([]int, snap.NumEdges())
	for i := range parent {
		parent[i] = -1
	}
	for _, c := range ws.comps {
		if c == nil {
			continue
		}
		for j, eid := range c.order {
			if p := c.parent[j]; p >= 0 {
				parent[ws.snapPos[eid]] = int(ws.snapPos[c.order[p]])
			}
		}
	}
	return snap, &jointree.JoinTree{H: snap, Parent: parent}, nil
}
