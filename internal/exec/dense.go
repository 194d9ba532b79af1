package exec

import "context"

// stamps is the reusable scratch of the dense semijoin: one mark per
// dictionary value id, versioned by epoch so successive steps skip the
// clear. It costs O(dict size) once per scratch, not per step.
type stamps struct {
	epoch uint32
	mark  []uint32
}

// next sizes the mark array for n value ids and returns a fresh epoch.
func (st *stamps) next(n int) uint32 {
	if len(st.mark) < n {
		grown := make([]uint32, n)
		copy(grown, st.mark)
		st.mark = grown
	}
	st.epoch++
	if st.epoch == 0 { // epoch wrapped: stale marks could alias, clear once
		for i := range st.mark {
			st.mark[i] = 0
		}
		st.epoch = 1
	}
	return st.epoch
}

// semijoinSingle is r ⋉ s over exactly one shared attribute (columns rCol /
// sCol), via the dense stamp filter: mark every value id s holds, keep the
// rows of r whose value is marked. O(|r|+|s|) with no hashing, and
// equivalent to the hash kernel on the same inputs (same rows, same order,
// same sharing of an unfiltered input).
func semijoinSingle(ctx context.Context, r, s *Table, rCol, sCol int, st *stamps) (*Table, error) {
	epoch := st.next(r.dict.Len())
	scol := s.cols[sCol]
	for i := 0; i < s.rows; i++ {
		if err := checkEvery(ctx, i); err != nil {
			return nil, err
		}
		st.mark[scol[i]] = epoch
	}
	rcol := r.cols[rCol]
	keep := make([]int32, 0, r.rows)
	for i := 0; i < r.rows; i++ {
		if err := checkEvery(ctx, i); err != nil {
			return nil, err
		}
		if st.mark[rcol[i]] == epoch {
			keep = append(keep, int32(i))
		}
	}
	return takeRows(r, keep), nil
}
