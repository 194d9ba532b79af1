package dynamic

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/gendb"
	"repro/internal/hypergraph"
)

// gatedCtx is a never-cancelled context whose first Err call — the entry
// check of the traversal it is handed to — announces that the traversal is
// in flight and parks it there until release is closed. It pins the
// interleaving without timing: the runner is provably mid-traversal while
// the other callers arrive.
type gatedCtx struct {
	context.Context
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func newGatedCtx() *gatedCtx {
	return &gatedCtx{Context: context.Background(), started: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedCtx) Err() error {
	g.once.Do(func() {
		close(g.started)
		<-g.release
	})
	return nil
}

// TestFacetWaiterObservesOwnDeadline is the regression test for the
// facet-lock cancellation bug on the workspace handle: a caller arriving
// while another caller's classification (or Graham trace) is in flight
// must return its own ctx.Err() on its own deadline instead of blocking
// until the runner finishes and then being served the runner's result,
// and a JoinTree call on the same handle must not wait behind the runner
// at all. The runner has no deadline; only the waiters are bounded.
func TestFacetWaiterObservesOwnDeadline(t *testing.T) {
	facets := []struct {
		name string
		run  func(a *Analysis, ctx context.Context) error
	}{
		{"classification", func(a *Analysis, ctx context.Context) error { _, err := a.ClassificationCtx(ctx); return err }},
		{"graham", func(a *Analysis, ctx context.Context) error { _, err := a.GrahamTrace(ctx); return err }},
	}
	const patience = 5 * time.Second // far above the waiter's 10ms deadline
	for _, f := range facets {
		t.Run(f.name, func(t *testing.T) {
			ws, err := NewFrom(gen.AcyclicChain(2000, 3, 1))
			if err != nil {
				t.Fatal(err)
			}
			a := ws.Analysis()
			gate := newGatedCtx()
			runnerErr := make(chan error, 1)
			go func() { runnerErr <- f.run(a, gate) }()
			<-gate.started

			waiterErr := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
				defer cancel()
				waiterErr <- f.run(a, ctx)
			}()
			select {
			case err := <-waiterErr:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("waiter returned %v, want context.DeadlineExceeded", err)
				}
			case <-time.After(patience):
				t.Errorf("waiter blocked past its deadline behind an in-flight %s", f.name)
			}

			jtErr := make(chan error, 1)
			go func() { _, err := a.JoinTree(); jtErr <- err }()
			select {
			case err := <-jtErr:
				if err != nil {
					t.Errorf("JoinTree: %v", err)
				}
			case <-time.After(patience):
				t.Errorf("JoinTree waited behind an in-flight %s", f.name)
			}

			close(gate.release)
			if err := <-runnerErr; err != nil {
				t.Fatalf("runner: %v", err)
			}
		})
	}
}

// TestFacetsRunNoSearch: the handle's session is seeded with the forest the
// workspace assembled from its per-component fragments, so no facet —
// verdict, join tree, full reducer, classification, Graham trace, witness,
// Reduce, Eval — runs an MCS over the snapshot, on either side of the
// verdict. Only the session's own MCS facet searches.
func TestFacetsRunNoSearch(t *testing.T) {
	schema, db := gendb.Chain(rand.New(rand.NewSource(3)), 5, 2, 1, gen.InstanceSpec{Rows: 50, DomainSize: 10})
	for _, tc := range []struct {
		h  *hypergraph.Hypergraph
		db *exec.Database // nil: no execution facets (cyclic)
	}{{schema, db}, {hypergraph.Triangle(), nil}} {
		ws, err := NewFrom(tc.h)
		if err != nil {
			t.Fatal(err)
		}
		a := ws.Analysis()
		ctx := context.Background()
		a.Snapshot()
		a.JoinTree()
		a.FullReducer()
		if _, err := a.ClassificationCtx(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := a.GrahamTrace(ctx); err != nil {
			t.Fatal(err)
		}
		if _, _, found, err := a.Witness(); err != nil || found == a.Verdict() {
			t.Fatalf("Witness found=%v err=%v on a verdict-%v epoch", found, err, a.Verdict())
		}
		if tc.db != nil {
			if _, err := a.Reduce(ctx, tc.db); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Eval(ctx, tc.db, tc.h.Nodes()[:2]); err != nil {
				t.Fatal(err)
			}
		}
		if runs := a.inner.Stats().MCSRuns; runs != 0 {
			t.Fatalf("facets ran %d MCS traversals over the snapshot, want 0", runs)
		}
		if a.inner.Verdict() != a.Verdict() {
			t.Fatalf("seeded session verdict %v, workspace verdict %v", a.inner.Verdict(), a.Verdict())
		}
		if r := a.inner.MCS(); r.Acyclic != a.Verdict() || a.inner.Stats().MCSRuns != 1 {
			t.Fatalf("MCS facet: acyclic=%v runs=%d", r.Acyclic, a.inner.Stats().MCSRuns)
		}
	}
}
