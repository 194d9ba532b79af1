package repro

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/acyclic"
	"repro/internal/core"
	"repro/internal/gyo"
	"repro/internal/jointree"
	"repro/internal/mcs"
)

// facadeCorpus: paper fixtures exercising both verdicts through the facade.
func facadeCorpus() []*Hypergraph {
	return []*Hypergraph{
		Fig1(),
		Fig5(),
		NewHypergraph([][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}}),
		NewHypergraph([][]string{{"A", "B"}, {"A", "C"}, {"B", "C"}, {"A", "D"}}),
		NewHypergraph([][]string{{"A", "B", "C"}, {"C", "D", "E"}, {"A", "E", "F"}}),
		NewHypergraphFromIDs(6, [][]int32{{0, 1, 2}, {2, 3}, {3, 4, 5}}),
	}
}

// TestAnalysisMatchesReferences: every Analysis facet must agree with the
// implementation package it is read off or checked against — the Graham
// reduction, a fresh MCS run, the GYO join-tree construction, the
// acyclicity testers of internal/acyclic, and the Theorem 6.1 witness
// search.
func TestAnalysisMatchesReferences(t *testing.T) {
	for i, h := range facadeCorpus() {
		a := Analyze(h)
		want := mcs.Run(h)
		if a.Verdict() != want.Acyclic || a.Verdict() != gyo.IsAcyclic(h) {
			t.Fatalf("instance %d: verdict mismatch", i)
		}
		if a.MCS().Acyclic != want.Acyclic || !reflect.DeepEqual(a.MCS().Parent, want.Parent) {
			t.Fatalf("instance %d: MCS mismatch", i)
		}
		jt, err := a.JoinTree()
		gyoJT, ok := jointree.Build(h)
		if (err == nil) != ok {
			t.Fatalf("instance %d: join tree mismatch (err=%v ok=%v)", i, err, ok)
		}
		if ok {
			if !reflect.DeepEqual(jt.Parent, want.Parent) {
				t.Fatalf("instance %d: join tree is not the MCS run's", i)
			}
			if err := jt.Verify(); err != nil {
				t.Fatalf("instance %d: join tree: %v", i, err)
			}
			if err := gyoJT.Verify(); err != nil {
				t.Fatalf("instance %d: GYO join tree: %v", i, err)
			}
		}
		ref := Classification{
			Alpha: acyclic.IsAcyclic(h),
			Beta:  acyclic.IsBetaAcyclic(h),
			Gamma: acyclic.IsGammaAcyclic(h),
			Berge: acyclic.IsBergeAcyclic(h),
		}
		if cl := a.Classification(); cl != ref {
			t.Fatalf("instance %d: classification %v != %v", i, cl, ref)
		}
		gr, err := GrahamReductionTrace(h)
		if err != nil {
			t.Fatal(err)
		}
		if a.GrahamTrace().Vanished() != gr.Vanished() {
			t.Fatalf("instance %d: graham trace mismatch", i)
		}
		p1, c1, f1, e1 := a.Witness()
		p2, f2, e2 := core.IndependentPathWitness(h)
		if f1 != f2 || (e1 == nil) != (e2 == nil) {
			t.Fatalf("instance %d: witness mismatch", i)
		}
		if c2, _ := core.WitnessCore(h); f1 && (len(p1.Sets) != len(p2.Sets) || !c1.EqualEdges(c2)) {
			t.Fatalf("instance %d: witness artifacts diverge", i)
		}
		fr, err := a.FullReducer()
		if a.Verdict() {
			if err != nil || !reflect.DeepEqual(fr, jt.FullReducer()) {
				t.Fatalf("instance %d: full reducer mismatch (err=%v)", i, err)
			}
		} else if !errors.Is(err, ErrCyclicSchema) {
			t.Fatalf("instance %d: full reducer err = %v, want ErrCyclicSchema", i, err)
		}
	}
}

// TestAnalysisComputesOncePerHandle: the acceptance criterion — each
// underlying traversal runs at most once per handle, counted by Stats.
func TestAnalysisComputesOncePerHandle(t *testing.T) {
	a := Analyze(Fig1(), WithVerify())
	for i := 0; i < 5; i++ {
		a.Verdict()
		a.MCS()
		a.JoinTree()
		a.Classification()
		a.GrahamTrace()
		a.FullReducer()
		a.Witness()
	}
	st := a.Stats()
	if st.MCSRuns != 1 {
		t.Fatalf("MCS ran %d times across all facets, want exactly 1", st.MCSRuns)
	}
	if st.GrahamRuns != 1 || st.HierarchyRuns != 1 || st.VerifyRuns != 1 || st.WitnessRuns != 0 {
		t.Fatalf("stats = %+v, want one run per queried traversal", st)
	}
}

// TestAnalysisConcurrentFacade: GOMAXPROCS goroutines hammer one handle
// (run with -race in CI).
func TestAnalysisConcurrentFacade(t *testing.T) {
	a := Analyze(Fig5())
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if !a.Verdict() {
					t.Error("Fig5 must be acyclic")
					return
				}
				if _, err := a.JoinTree(); err != nil {
					t.Error(err)
					return
				}
				if _, err := a.FullReducer(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := a.Stats(); st.MCSRuns != 1 {
		t.Fatalf("concurrent MCS runs = %d, want 1", st.MCSRuns)
	}
}

// TestEngineAnalyzeMemoized: content-equal hypergraphs share one session
// through the engine, and batches honor an already-cancelled context.
func TestEngineAnalyzeMemoized(t *testing.T) {
	e := NewEngine(0)
	a1 := e.Analyze(Fig1())
	a2 := e.Analyze(Fig1())
	if a1 != a2 {
		t.Fatal("engine must share one Analysis per identity")
	}
	if !a1.Verdict() {
		t.Fatal("Fig1 is acyclic")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.IsAcyclicBatch(ctx, facadeCorpus()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch err = %v, want context.Canceled", err)
	}
	if _, _, err := e.JoinTreeBatch(ctx, facadeCorpus()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled JoinTreeBatch err = %v", err)
	}
	if _, err := e.ClassifyBatch(ctx, facadeCorpus()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ClassifyBatch err = %v", err)
	}
}

// TestStructuredErrors: the taxonomy is matchable with errors.Is/errors.As
// from every facade entry point.
func TestStructuredErrors(t *testing.T) {
	tri := NewHypergraph([][]string{{"A", "B"}, {"B", "C"}, {"C", "A"}})

	if _, err := Analyze(tri).JoinTree(); !errors.Is(err, ErrCyclic) {
		t.Fatalf("JoinTree err = %v, want ErrCyclic", err)
	}
	if _, err := JoinTreeMVDs(tri); !errors.Is(err, ErrCyclicSchema) || !errors.Is(err, ErrCyclic) {
		t.Fatalf("JoinTreeMVDs err = %v, want ErrCyclicSchema wrapping ErrCyclic", err)
	}

	_, err := GrahamReduction(Fig1(), "A", "Z")
	var unknown *ErrUnknownNode
	if !errors.As(err, &unknown) || unknown.Name != "Z" {
		t.Fatalf("GrahamReduction err = %v, want ErrUnknownNode{Z}", err)
	}
	if _, err := NewTableau(Fig1(), "Q"); !errors.As(err, &unknown) || unknown.Name != "Q" {
		t.Fatalf("NewTableau err = %v, want ErrUnknownNode{Q}", err)
	}

	_, _, err = ParseHypergraph("A B\n: C\n")
	var pe *ErrParse
	if !errors.As(err, &pe) || pe.Line != 2 {
		t.Fatalf("ParseHypergraph err = %v, want ErrParse at line 2", err)
	}
}

// TestBuilderFacade: the construction Builder through the facade.
func TestBuilderFacade(t *testing.T) {
	h, err := NewBuilder().
		NamedEdge("R1", "A", "B", "C").
		Edge("C", "D", "E").
		Edge("A", "E", "F").
		Edge("A", "C", "E").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if !h.Equal(Fig1()) {
		t.Fatalf("builder = %v, want Fig1", h)
	}
	if !Analyze(h).Verdict() {
		t.Fatal("Fig1 via builder must be acyclic")
	}
}
