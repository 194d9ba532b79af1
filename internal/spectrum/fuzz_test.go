package spectrum

import (
	"context"
	"testing"

	"repro/internal/acyclic"
	"repro/internal/hypergraph"
)

// FuzzSpectrum interprets the fuzz input as a hypergraph — one byte per
// edge slot, the low bits selecting up to 6 nodes from an 6-node pool — and
// asserts the two properties the subsystem stands on: the polynomial
// β/γ/Berge verdicts coincide with the exponential / independent
// specifications in internal/acyclic, and both certificates pass the
// independent checker. Sizes stay small so the exponential γ search
// terminates fast.
func FuzzSpectrum(f *testing.F) {
	f.Add([]byte{0x03, 0x06, 0x07})       // ab, bc, abc: beta, not gamma
	f.Add([]byte{0x03, 0x06, 0x05, 0x07}) // ab, bc, ca, abc: alpha, not beta
	f.Add([]byte{0x03, 0x06, 0x0c})       // path: berge
	f.Add([]byte{0x03, 0x06, 0x05})       // triangle: cyclic
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxEdges = 10
		var edges [][]int32
		for i := 0; i < len(data) && len(edges) < maxEdges; i++ {
			var e []int32
			for b := 0; b < 6; b++ {
				if data[i]&(1<<b) != 0 {
					e = append(e, int32(b))
				}
			}
			if len(e) > 0 {
				edges = append(edges, e)
			}
		}
		h := hypergraph.FromIDs(6, edges)
		res, err := Classify(context.Background(), h)
		if err != nil {
			t.Fatalf("Classify: %v", err)
		}
		cl := Classification{
			Alpha: acyclic.IsAcyclic(h),
			Beta:  acyclic.IsBetaAcyclic(h),
			Gamma: acyclic.IsGammaAcyclic(h),
			Berge: acyclic.IsBergeAcyclic(h),
		}
		if res.Alpha != cl.Alpha || res.Beta.Acyclic != cl.Beta ||
			res.Gamma.Acyclic != cl.Gamma || res.Berge != cl.Berge {
			t.Fatalf("verdict mismatch: spectrum=(α%v β%v γ%v B%v) spec=%v\n%s",
				res.Alpha, res.Beta.Acyclic, res.Gamma.Acyclic, res.Berge, cl, h.Format())
		}
		if err := VerifyBeta(h, res.Beta); err != nil {
			t.Fatalf("beta certificate rejected: %v\n%s", err, h.Format())
		}
		if err := VerifyGamma(h, res.Gamma); err != nil {
			t.Fatalf("gamma certificate rejected: %v\n%s", err, h.Format())
		}
	})
}
