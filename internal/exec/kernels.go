package exec

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/fault"
)

// cancelStride is how many rows a kernel processes between context checks.
// Coarse enough that the check never shows up in profiles, fine enough that
// cancellation latency is bounded by ~4096 rows of work.
const cancelStride = 4096

// checkEvery polls ctx.Err() when row is a multiple of cancelStride.
func checkEvery(ctx context.Context, row int) error {
	if row&(cancelStride-1) == 0 {
		return ctx.Err()
	}
	return nil
}

// sharedCols returns the positions of the attributes common to r and s, as
// parallel index slices (rIdx[k] in r matches sIdx[k] in s). Both attribute
// lists are sorted, so one merge pass suffices.
func sharedCols(r, s *Table) (rIdx, sIdx []int) {
	i, j := 0, 0
	for i < len(r.attrs) && j < len(s.attrs) {
		switch {
		case r.attrs[i] == s.attrs[j]:
			rIdx = append(rIdx, i)
			sIdx = append(sIdx, j)
			i++
			j++
		case r.attrs[i] < s.attrs[j]:
			i++
		default:
			j++
		}
	}
	return rIdx, sIdx
}

// keyIndex hashes the key cells of every row of t (columns idx) into a
// probe structure: hash -> row indices. Collisions are verified by the
// caller through equalCells.
func keyIndex(ctx context.Context, t *Table, idx []int) (map[uint64][]int32, error) {
	m := make(map[uint64][]int32, t.rows)
	for r := 0; r < t.rows; r++ {
		if err := checkEvery(ctx, r); err != nil {
			return nil, err
		}
		h := hashCells(t.cols, idx, r)
		m[h] = append(m[h], int32(r))
	}
	return m, nil
}

// Semijoin returns r ⋉ s: the rows of r that agree with at least one row of
// s on all shared attributes. With no shared attributes it returns r when s
// is nonempty and the empty table otherwise — the internal/relation
// convention the differential suite pins. The two tables must share a Dict.
func Semijoin(ctx context.Context, r, s *Table) (*Table, error) {
	// Chaos site: fires once per semijoin step of a reduction (the parallel
	// kernel hits the same site), so injected failures exercise the
	// mid-program error path, not just the entry validation.
	if err := fault.HitCtx(ctx, fault.ExecReduceStep); err != nil {
		return nil, err
	}
	if r.dict != s.dict {
		return nil, fmt.Errorf("exec: semijoin across distinct dictionaries")
	}
	rIdx, sIdx := sharedCols(r, s)
	if len(rIdx) == 0 {
		if s.rows > 0 {
			return r, nil
		}
		return &Table{dict: r.dict, attrs: r.attrs, cols: make([][]int32, len(r.cols))}, nil
	}
	probe, err := keyIndex(ctx, s, sIdx)
	if err != nil {
		return nil, err
	}
	keep := make([]int32, 0, r.rows)
	for i := 0; i < r.rows; i++ {
		if err := checkEvery(ctx, i); err != nil {
			return nil, err
		}
		h := hashCells(r.cols, rIdx, i)
		for _, j := range probe[h] {
			if equalCells(r.cols, rIdx, i, s.cols, sIdx, int(j)) {
				keep = append(keep, int32(i))
				break
			}
		}
	}
	return takeRows(r, keep), nil
}

// takeRows materializes the subset of r's rows listed in keep (ascending),
// sharing the immutable input when nothing was filtered — the result
// convention of every semijoin kernel.
func takeRows(r *Table, keep []int32) *Table {
	if len(keep) == r.rows {
		return r
	}
	out := &Table{dict: r.dict, attrs: r.attrs, cols: make([][]int32, len(r.cols)), rows: len(keep)}
	for c := range r.cols {
		col := make([]int32, len(keep))
		for k, i := range keep {
			col[k] = r.cols[c][i]
		}
		out.cols[c] = col
	}
	return out
}

// Join returns the natural join r ⋈ s over the sorted union of the
// attribute lists; with no shared attributes it is the cross product. The
// inputs' rows are distinct, so the output rows are distinct too (two
// result rows coincide only if their generating row pairs do). The two
// tables must share a Dict.
func Join(ctx context.Context, r, s *Table) (*Table, error) {
	if r.dict != s.dict {
		return nil, fmt.Errorf("exec: join across distinct dictionaries")
	}
	rIdx, sIdx := sharedCols(r, s)
	outAttrs := make([]string, 0, len(r.attrs)+len(s.attrs)-len(rIdx))
	outAttrs = append(outAttrs, r.attrs...)
	shared := make(map[string]bool, len(rIdx))
	for _, k := range rIdx {
		shared[r.attrs[k]] = true
	}
	for _, a := range s.attrs {
		if !shared[a] {
			outAttrs = append(outAttrs, a)
		}
	}
	sort.Strings(outAttrs)
	out := &Table{dict: r.dict, attrs: outAttrs, cols: make([][]int32, len(outAttrs))}
	// Source of each output column: from r when present, else from s.
	type src struct {
		fromR bool
		col   int
	}
	srcs := make([]src, len(outAttrs))
	for c, a := range outAttrs {
		if i := r.colIndex(a); i >= 0 {
			srcs[c] = src{fromR: true, col: i}
		} else {
			srcs[c] = src{col: s.colIndex(a)}
		}
	}
	probe, err := keyIndex(ctx, s, sIdx)
	if err != nil {
		return nil, err
	}
	emitted := 0
	for i := 0; i < r.rows; i++ {
		if err := checkEvery(ctx, i); err != nil {
			return nil, err
		}
		h := hashCells(r.cols, rIdx, i)
		for _, j := range probe[h] {
			if !equalCells(r.cols, rIdx, i, s.cols, sIdx, int(j)) {
				continue
			}
			// The output can be much larger than either input (cross
			// products), so cancellation is also observed on emitted rows.
			if err := checkEvery(ctx, emitted); err != nil {
				return nil, err
			}
			emitted++
			for c, sc := range srcs {
				if sc.fromR {
					out.cols[c] = append(out.cols[c], r.cols[sc.col][i])
				} else {
					out.cols[c] = append(out.cols[c], s.cols[sc.col][int(j)])
				}
			}
		}
	}
	out.rows = emitted
	return out, nil
}

// Project returns π_attrs(t) with duplicate result rows removed. Unknown
// attributes are an error; duplicate names in attrs collapse.
func Project(ctx context.Context, t *Table, attrs []string) (*Table, error) {
	sorted := append([]string{}, attrs...)
	sort.Strings(sorted)
	uniq := sorted[:0]
	for i, a := range sorted {
		if i == 0 || a != sorted[i-1] {
			uniq = append(uniq, a)
		}
	}
	idx := make([]int, len(uniq))
	for i, a := range uniq {
		c := t.colIndex(a)
		if c < 0 {
			return nil, fmt.Errorf("exec: projection on unknown attribute %q", a)
		}
		idx[i] = c
	}
	if len(idx) == len(t.cols) {
		return t, nil // projection onto all attributes is the identity
	}
	out := &Table{dict: t.dict, attrs: append([]string{}, uniq...), cols: make([][]int32, len(uniq))}
	outIdx := allCols(len(uniq))
	seen := make(map[uint64][]int32, t.rows)
	for r := 0; r < t.rows; r++ {
		if err := checkEvery(ctx, r); err != nil {
			return nil, err
		}
		h := hashCells(t.cols, idx, r)
		dup := false
		for _, p := range seen[h] {
			if equalCells(out.cols, outIdx, int(p), t.cols, idx, r) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		for c, tc := range idx {
			out.cols[c] = append(out.cols[c], t.cols[tc][r])
		}
		seen[h] = append(seen[h], int32(out.rows))
		out.rows++
	}
	return out, nil
}
