package exec_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/gendb"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/pool"
)

// identicalTables asserts byte-identical equality — same schema, same rows,
// in the same order — the determinism contract of the parallel executors
// (not just the set equality Table.Equal checks).
func identicalTables(tb testing.TB, label string, want, got *exec.Table) {
	tb.Helper()
	if want.NumRows() != got.NumRows() || want.NumAttrs() != got.NumAttrs() {
		tb.Fatalf("%s: shape differs: serial %dx%d, parallel %dx%d",
			label, want.NumRows(), want.NumAttrs(), got.NumRows(), got.NumAttrs())
	}
	for c := 0; c < want.NumAttrs(); c++ {
		if want.Attr(c) != got.Attr(c) {
			tb.Fatalf("%s: attr %d differs: serial %q, parallel %q", label, c, want.Attr(c), got.Attr(c))
		}
	}
	for r := 0; r < want.NumRows(); r++ {
		for c := 0; c < want.NumAttrs(); c++ {
			if want.Value(r, c) != got.Value(r, c) {
				tb.Fatalf("%s: cell (%d,%d) differs: serial %q, parallel %q — parallel output is not order-identical",
					label, r, c, want.Value(r, c), got.Value(r, c))
			}
		}
	}
}

// identicalSteps asserts the parallel reduction reports the serial program's
// per-step statistics verbatim: same steps in the same order with the same
// row counts (Elapsed excluded — wall-clock is the one thing allowed to
// differ).
func identicalSteps(tb testing.TB, label string, want, got []exec.StepStats) {
	tb.Helper()
	if len(want) != len(got) {
		tb.Fatalf("%s: %d serial steps, %d parallel steps", label, len(want), len(got))
	}
	for i := range want {
		if want[i].Step != got[i].Step || want[i].RowsIn != got[i].RowsIn || want[i].RowsOut != got[i].RowsOut {
			tb.Fatalf("%s: step %d differs: serial {%v in=%d out=%d}, parallel {%v in=%d out=%d}",
				label, i,
				want[i].Step, want[i].RowsIn, want[i].RowsOut,
				got[i].Step, got[i].RowsIn, got[i].RowsOut)
		}
	}
}

// gomaxprocsValues are the scheduler widths the differential suite pins;
// parallel-vs-serial equivalence must hold at every one of them.
var gomaxprocsValues = []int{1, 2, 4}

// workerValues are the pool sizes swept per schema.
var workerValues = []int{1, 2, 4, 8}

// parallelCorpus is the acyclic corpus plus a star whose six leaves each
// share one attribute with the hub: the leaves' down steps are dense
// single-column semijoins in one level, so sibling dense steps run
// concurrently (under -race in CI) at every worker count.
func parallelCorpus(tb testing.TB) []*hypergraph.Hypergraph {
	return append(acyclicCorpus(tb), hypergraph.New([][]string{
		{"A", "B", "C", "D", "E", "F"},
		{"A", "U"}, {"B", "V"}, {"C", "W"}, {"D", "X"}, {"E", "Y"}, {"F", "Z"},
	}))
}

// TestReduceParallelMatchesSerial pins a pooled Reduce against a serial one
// (nil pool) across the corpus, every pool size, and several GOMAXPROCS
// values:
// reduced tables must be byte-identical (content and row order) and the
// per-step statistics must be the serial program's, step for step.
func TestReduceParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	for _, gmp := range gomaxprocsValues {
		t.Run(fmt.Sprintf("gomaxprocs=%d", gmp), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(gmp)
			defer runtime.GOMAXPROCS(prev)
			for i, h := range parallelCorpus(t) {
				rng := rand.New(rand.NewSource(int64(3000 + i)))
				d := gendb.Random(rng, h, gen.InstanceSpec{Rows: 40, DomainSize: 3})
				jt, ok := jointree.BuildMCS(h)
				if !ok {
					t.Fatalf("corpus schema %d not acyclic", i)
				}
				serial, err := exec.Reduce(ctx, d, jt, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range workerValues {
					par, err := exec.Reduce(ctx, d, jt, pool.New(w))
					if err != nil {
						t.Fatalf("schema %d workers %d: %v", i, w, err)
					}
					label := fmt.Sprintf("schema %d workers %d", i, w)
					identicalSteps(t, label, serial.Steps, par.Steps)
					if par.RowsIn != serial.RowsIn || par.RowsOut != serial.RowsOut {
						t.Fatalf("%s: totals differ: serial %d->%d, parallel %d->%d",
							label, serial.RowsIn, serial.RowsOut, par.RowsIn, par.RowsOut)
					}
					for j := range serial.DB.Tables {
						identicalTables(t, fmt.Sprintf("%s object %d", label, j),
							serial.DB.Tables[j], par.DB.Tables[j])
					}
				}
			}
		})
	}
}

// TestEvalParallelMatchesSerial pins a pooled Eval against a serial one the
// same way:
// identical output tables (row order included), identical reduction stats,
// and an identical JoinRows output-sensitivity metric.
func TestEvalParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	for _, gmp := range gomaxprocsValues {
		t.Run(fmt.Sprintf("gomaxprocs=%d", gmp), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(gmp)
			defer runtime.GOMAXPROCS(prev)
			for i, h := range parallelCorpus(t) {
				rng := rand.New(rand.NewSource(int64(4000 + i)))
				d := gendb.Random(rng, h, gen.InstanceSpec{Rows: 30, DomainSize: 3})
				jt, ok := jointree.BuildMCS(h)
				if !ok {
					t.Fatalf("corpus schema %d not acyclic", i)
				}
				nodes := h.Nodes()
				attrs := []string{nodes[rng.Intn(len(nodes))]}
				for _, n := range nodes {
					if rng.Float64() < 0.4 {
						attrs = append(attrs, n)
					}
				}
				serial, err := exec.Eval(ctx, d, jt, attrs, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range workerValues {
					par, err := exec.Eval(ctx, d, jt, attrs, pool.New(w))
					if err != nil {
						t.Fatalf("schema %d workers %d: %v", i, w, err)
					}
					label := fmt.Sprintf("schema %d workers %d", i, w)
					identicalTables(t, label+" output", serial.Out, par.Out)
					identicalSteps(t, label, serial.Reduce.Steps, par.Reduce.Steps)
					if par.JoinRows != serial.JoinRows {
						t.Fatalf("%s: JoinRows differs: serial %d, parallel %d",
							label, serial.JoinRows, par.JoinRows)
					}
				}
			}
		})
	}
}

// TestParallelLargeInstance exercises the chunked kernels past their serial
// fallback threshold (parThreshold rows) so the radix-partitioned index,
// chunked semijoin/join, and keep-flag projection paths actually run, then
// pins them against the serial twins.
func TestParallelLargeInstance(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))
	h := gen.AcyclicChain(4, 2, 1)
	d := gendb.Random(rng, h, gen.InstanceSpec{Rows: 40000, DomainSize: 40})
	jt, ok := jointree.BuildMCS(h)
	if !ok {
		t.Fatal("chain schema must be acyclic")
	}
	attrs := h.Nodes()[:3]

	serial, err := exec.Eval(ctx, d, jt, attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := exec.Eval(ctx, d, jt, attrs, pool.New(8))
	if err != nil {
		t.Fatal(err)
	}
	identicalTables(t, "large instance output", serial.Out, par.Out)
	identicalSteps(t, "large instance", serial.Reduce.Steps, par.Reduce.Steps)
	if par.JoinRows != serial.JoinRows {
		t.Fatalf("JoinRows differs: serial %d, parallel %d", serial.JoinRows, par.JoinRows)
	}
}

// TestParallelLargeHashInstance is TestParallelLargeInstance on a chain
// whose neighbours share two attributes: no step qualifies for the dense
// kernel, so the chunked hash semijoin runs past parThreshold too.
func TestParallelLargeHashInstance(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(98))
	h := gen.AcyclicChain(4, 3, 2)
	d := gendb.Random(rng, h, gen.InstanceSpec{Rows: 40000, DomainSize: 300})
	jt, ok := jointree.BuildMCS(h)
	if !ok {
		t.Fatal("chain schema must be acyclic")
	}
	attrs := h.Nodes()[:3]

	serial, err := exec.Eval(ctx, d, jt, attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := exec.Eval(ctx, d, jt, attrs, pool.New(8))
	if err != nil {
		t.Fatal(err)
	}
	identicalTables(t, "large instance output", serial.Out, par.Out)
	identicalSteps(t, "large instance", serial.Reduce.Steps, par.Reduce.Steps)
	if serial.Reduce.RowsOut == serial.Reduce.RowsIn {
		t.Fatal("reduction filtered nothing; the chunked gather path did not run")
	}
	if par.JoinRows != serial.JoinRows {
		t.Fatalf("JoinRows differs: serial %d, parallel %d", serial.JoinRows, par.JoinRows)
	}
}

// TestParallelCancellation: an already-cancelled context aborts the parallel
// executors with ctx.Err() instead of returning partial results.
func TestParallelCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := gen.AcyclicChain(4, 2, 1)
	d := gendb.Random(rng, h, gen.InstanceSpec{Rows: 40000, DomainSize: 40})
	jt, _ := jointree.BuildMCS(h)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := exec.Reduce(ctx, d, jt, pool.New(4)); err != context.Canceled {
		t.Fatalf("pooled Reduce on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := exec.Eval(ctx, d, jt, h.Nodes()[:1], pool.New(4)); err != context.Canceled {
		t.Fatalf("pooled Eval on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestAggressiveStrategyCancellation checks that the dense stamp kernel,
// which every step of this single-shared-column chain runs, observes
// cancellation like every other kernel.
func TestAggressiveStrategyCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := gen.AcyclicChainIDs(40, 3, 1)
	d := gendb.Random(rng, h, gen.InstanceSpec{Rows: 3000, DomainSize: 4})
	jt, ok := jointree.BuildMCS(h)
	if !ok {
		t.Fatal("chain schema not acyclic")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := exec.Reduce(ctx, d, jt, nil); err == nil {
		t.Fatal("dense reduce ignored cancelled context")
	}
}
