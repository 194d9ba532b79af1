package exec

// Intra-query data-parallel twins of the serial hash kernels, used by
// Reduce and Eval when their pool has more than one worker. Every function
// here is pinned to its serial counterpart by the differential suite at the
// result level AND at the representation level: the parallel kernels
// produce byte-identical tables (same rows in the same order), and a
// parallel Reduce produces the exact per-step RowsIn/RowsOut sequence of a
// serial one. That determinism is not an accident of implementation — it
// is engineered:
//
//   - Chunked scans (semijoin keep lists, join emission) concatenate their
//     per-chunk results in chunk order, which is ascending probe-row order,
//     the order the serial loop emits.
//   - The probe index is radix-partitioned by hash into shards, and each
//     shard's hash chains list rows in ascending order (the scatter pass
//     preserves chunk order within a shard), so Join walks each chain in
//     the same order the serial map — which appends rows ascending — does.
//   - Projection dedups shard-locally: duplicate rows have equal cells,
//     hence equal hashes, hence land in the same shard, so a shard-local
//     first-occurrence scan marks exactly the rows the serial
//     first-occurrence scan keeps; materializing the kept rows in ascending
//     row order then reproduces the serial output order.
//   - Reduce schedules whole subtree folds on jointree.Levels: a node's
//     upward fold consumes only final child tables and writes only its own
//     slot, so each step sees the same inputs at every pool size and its
//     stats land in a precomputed slot matching program order.
//
// All fan-out draws tokens from one pool.Pool, shared with the engine's
// inter-query batch workers: nested parallel regions (a batch worker
// running a parallel reduction whose semijoins chunk their probe loops)
// degrade to inline execution instead of oversubscribing.

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/pool"
)

const (
	// parChunk is the scan-chunk granularity of the data-parallel kernels:
	// big enough that per-chunk overhead (a slice header, a closure call)
	// vanishes, small enough that the atomic-cursor scheduler balances
	// skewed chunks.
	parChunk = 8192
	// parThreshold is the input size below which the parallel kernels fall
	// back to their serial twins — under it the fork/merge overhead costs
	// more than the scan.
	parThreshold = 16384
)

// chunks returns how many parChunk-sized pieces cover n rows.
func chunks(n int) int {
	return (n + parChunk - 1) / parChunk
}

// chunkBounds returns the row range [lo, hi) of chunk c.
func chunkBounds(c, n int) (lo, hi int) {
	lo = c * parChunk
	hi = lo + parChunk
	if hi > n {
		hi = n
	}
	return lo, hi
}

// parErr latches the first error of a fan-out region; later workers observe
// it and turn into no-ops, so a cancelled parallel kernel drains quickly.
type parErr struct {
	p atomic.Pointer[error]
}

func (e *parErr) set(err error) {
	if err != nil {
		e.p.CompareAndSwap(nil, &err)
	}
}

func (e *parErr) get() error {
	if p := e.p.Load(); p != nil {
		return *p
	}
	return nil
}

// probeIndex is the hash index the parallel kernels probe: either a single
// map (small inputs, serial build) or hash-radix shards built in parallel.
// In both forms a chain lists its rows in ascending order — the invariant
// Join's emission-order determinism rests on.
type probeIndex struct {
	single map[uint64][]int32
	shards []map[uint64][]int32
	mask   uint64
	hashes []uint64 // per-row key hash (sharded form only)
}

func (ix *probeIndex) rows(h uint64) []int32 {
	if ix.single != nil {
		return ix.single[h]
	}
	return ix.shards[h&ix.mask][h]
}

// buildIndex indexes the key cells (columns idx) of t. The parallel path is
// a three-pass radix partition: (1) chunked parallel hashing with per-chunk
// per-shard counts, (2) serial prefix sums laying every (chunk, shard)
// segment out so shard segments are contiguous and chunk-ordered, (3)
// parallel scatter then per-shard map builds. Pass 2 is O(chunks·shards) on
// one core but touches no row data; passes 1 and 3 are the O(n) work and
// fan out.
func buildIndex(ctx context.Context, t *Table, idx []int, p *pool.Pool) (*probeIndex, error) {
	n := t.rows
	if p.Parallelism() == 1 || n < parThreshold {
		m, err := keyIndex(ctx, t, idx)
		if err != nil {
			return nil, err
		}
		return &probeIndex{single: m}, nil
	}
	nChunks := chunks(n)
	nShards := 1
	for nShards < 2*p.Parallelism() {
		nShards <<= 1
	}
	mask := uint64(nShards - 1)

	hashes := make([]uint64, n)
	counts := make([]int32, nChunks*nShards)
	var perr parErr
	p.Do(nChunks, func(c int) {
		if perr.get() != nil {
			return
		}
		lo, hi := chunkBounds(c, n)
		cnt := counts[c*nShards : (c+1)*nShards]
		for r := lo; r < hi; r++ {
			if err := checkEvery(ctx, r); err != nil {
				perr.set(err)
				return
			}
			h := hashCells(t.cols, idx, r)
			hashes[r] = h
			cnt[h&mask]++
		}
	})
	if err := perr.get(); err != nil {
		return nil, err
	}

	// Shard segment offsets, then per-(chunk, shard) scatter cursors laid
	// out chunk-major within each shard: chunk c's shard-s rows precede
	// chunk c+1's, so a shard segment lists rows ascending.
	shardOff := make([]int32, nShards+1)
	for c := 0; c < nChunks; c++ {
		for s := 0; s < nShards; s++ {
			shardOff[s+1] += counts[c*nShards+s]
		}
	}
	for s := 0; s < nShards; s++ {
		shardOff[s+1] += shardOff[s]
	}
	cursor := make([]int32, nChunks*nShards)
	next := make([]int32, nShards)
	copy(next, shardOff[:nShards])
	for c := 0; c < nChunks; c++ {
		for s := 0; s < nShards; s++ {
			cursor[c*nShards+s] = next[s]
			next[s] += counts[c*nShards+s]
		}
	}
	scattered := make([]int32, n)
	p.Do(nChunks, func(c int) {
		lo, hi := chunkBounds(c, n)
		cur := cursor[c*nShards : (c+1)*nShards]
		for r := lo; r < hi; r++ {
			s := hashes[r] & mask
			scattered[cur[s]] = int32(r)
			cur[s]++
		}
	})

	shards := make([]map[uint64][]int32, nShards)
	p.Do(nShards, func(s int) {
		seg := scattered[shardOff[s]:shardOff[s+1]]
		m := make(map[uint64][]int32, len(seg))
		for _, r := range seg {
			h := hashes[r]
			m[h] = append(m[h], r)
		}
		shards[s] = m
	})
	return &probeIndex{shards: shards, mask: mask, hashes: hashes}, nil
}

// semijoinStep is one reduction step r ⋉ s, with the kernel chosen from
// its inputs: exactly one shared column over one dictionary takes the dense
// stamp filter (semijoinSingle) on the caller's scratch st; every other
// shape takes the hash kernel, chunked over p's workers once r reaches
// parThreshold rows. Every path returns the table Semijoin would (same
// rows, same order, same sharing of an unfiltered input) and hits
// fault.ExecReduceStep exactly once.
func semijoinStep(ctx context.Context, r, s *Table, p *pool.Pool, st *stamps) (*Table, error) {
	rIdx, sIdx := sharedCols(r, s)
	dense := len(rIdx) == 1 && r.dict != nil && r.dict == s.dict
	if !dense && (p.Parallelism() == 1 || r.rows < parThreshold) {
		return Semijoin(ctx, r, s)
	}
	if err := fault.HitCtx(ctx, fault.ExecReduceStep); err != nil {
		return nil, err
	}
	if dense {
		return semijoinSingle(ctx, r, s, rIdx[0], sIdx[0], st)
	}
	if r.dict != s.dict {
		return nil, fmt.Errorf("exec: semijoin across distinct dictionaries")
	}
	if len(rIdx) == 0 {
		if s.rows > 0 {
			return r, nil
		}
		return &Table{dict: r.dict, attrs: r.attrs, cols: make([][]int32, len(r.cols))}, nil
	}
	probe, err := buildIndex(ctx, s, sIdx, p)
	if err != nil {
		return nil, err
	}
	nChunks := chunks(r.rows)
	keeps := make([][]int32, nChunks)
	var perr parErr
	p.Do(nChunks, func(c int) {
		if perr.get() != nil {
			return
		}
		lo, hi := chunkBounds(c, r.rows)
		keep := make([]int32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if err := checkEvery(ctx, i); err != nil {
				perr.set(err)
				return
			}
			h := hashCells(r.cols, rIdx, i)
			for _, j := range probe.rows(h) {
				if equalCells(r.cols, rIdx, i, s.cols, sIdx, int(j)) {
					keep = append(keep, int32(i))
					break
				}
			}
		}
		keeps[c] = keep
	})
	if err := perr.get(); err != nil {
		return nil, err
	}
	total := 0
	for _, k := range keeps {
		total += len(k)
	}
	if total == r.rows {
		return r, nil // nothing filtered: share the immutable input
	}
	// Flatten the chunk keep lists (ascending row order by construction)
	// and gather the surviving rows, chunked over the output.
	keep := make([]int32, 0, total)
	for _, k := range keeps {
		keep = append(keep, k...)
	}
	out := &Table{dict: r.dict, attrs: r.attrs, cols: make([][]int32, len(r.cols)), rows: total}
	for c := range out.cols {
		out.cols[c] = make([]int32, total)
	}
	p.Do(chunks(total), func(c int) {
		lo, hi := chunkBounds(c, total)
		for col := range out.cols {
			src, dst := r.cols[col], out.cols[col]
			for k := lo; k < hi; k++ {
				dst[k] = src[keep[k]]
			}
		}
	})
	return out, nil
}

// joinPar is Join with chunked emission: each chunk of r emits into local
// column buffers, concatenated in chunk order, which reproduces the serial
// r-row × probe-chain emission order exactly.
func joinPar(ctx context.Context, r, s *Table, p *pool.Pool) (*Table, error) {
	if p.Parallelism() == 1 || r.rows < parThreshold {
		return Join(ctx, r, s)
	}
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
	probe, err := buildIndex(ctx, s, sIdx, p)
	if err != nil {
		return nil, err
	}
	nChunks := chunks(r.rows)
	parts := make([][][]int32, nChunks)
	partRows := make([]int, nChunks)
	var perr parErr
	p.Do(nChunks, func(c int) {
		if perr.get() != nil {
			return
		}
		lo, hi := chunkBounds(c, r.rows)
		local := make([][]int32, len(outAttrs))
		emitted := 0
		for i := lo; i < hi; i++ {
			if err := checkEvery(ctx, i); err != nil {
				perr.set(err)
				return
			}
			h := hashCells(r.cols, rIdx, i)
			for _, j := range probe.rows(h) {
				if !equalCells(r.cols, rIdx, i, s.cols, sIdx, int(j)) {
					continue
				}
				if err := checkEvery(ctx, emitted); err != nil {
					perr.set(err)
					return
				}
				emitted++
				for cc, sc := range srcs {
					if sc.fromR {
						local[cc] = append(local[cc], r.cols[sc.col][i])
					} else {
						local[cc] = append(local[cc], s.cols[sc.col][int(j)])
					}
				}
			}
		}
		parts[c] = local
		partRows[c] = emitted
	})
	if err := perr.get(); err != nil {
		return nil, err
	}
	total := 0
	for _, n := range partRows {
		total += n
	}
	out := &Table{dict: r.dict, attrs: outAttrs, cols: make([][]int32, len(outAttrs)), rows: total}
	for c := range out.cols {
		col := make([]int32, 0, total)
		for _, part := range parts {
			if part != nil {
				col = append(col, part[c]...)
			}
		}
		out.cols[c] = col
	}
	return out, nil
}

// projectPar is Project with shard-local deduplication. Duplicate rows have
// equal projected cells, hence equal hashes, hence land in one shard, so a
// per-shard first-occurrence scan over ascending chains marks exactly the
// rows the serial scan keeps; materializing them in ascending row order
// reproduces the serial output.
func projectPar(ctx context.Context, t *Table, attrs []string, p *pool.Pool) (*Table, error) {
	if p.Parallelism() == 1 || t.rows < parThreshold {
		return Project(ctx, t, attrs)
	}
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
	probe, err := buildIndex(ctx, t, idx, p)
	if err != nil {
		return nil, err
	}
	keepFlag := make([]bool, t.rows)
	markChain := func(chain []int32) {
		// chain rows are ascending; the first of each distinct cell tuple
		// is the global first occurrence.
		var reps []int32
		for _, r := range chain {
			dup := false
			for _, q := range reps {
				if equalCells(t.cols, idx, int(q), t.cols, idx, int(r)) {
					dup = true
					break
				}
			}
			if !dup {
				reps = append(reps, r)
				keepFlag[r] = true
			}
		}
	}
	if probe.single != nil {
		for _, chain := range probe.single {
			markChain(chain)
		}
	} else {
		p.Do(len(probe.shards), func(s int) {
			for _, chain := range probe.shards[s] {
				markChain(chain)
			}
		})
	}
	// Prefix-sum the kept counts per chunk, then gather in parallel; output
	// rows appear in ascending input-row order (= serial first-occurrence
	// order).
	nChunks := chunks(t.rows)
	kept := make([]int32, nChunks+1)
	p.Do(nChunks, func(c int) {
		lo, hi := chunkBounds(c, t.rows)
		n := int32(0)
		for r := lo; r < hi; r++ {
			if keepFlag[r] {
				n++
			}
		}
		kept[c+1] = n
	})
	for c := 0; c < nChunks; c++ {
		kept[c+1] += kept[c]
	}
	total := int(kept[nChunks])
	out := &Table{dict: t.dict, attrs: append([]string{}, uniq...), cols: make([][]int32, len(uniq)), rows: total}
	for c := range out.cols {
		out.cols[c] = make([]int32, total)
	}
	p.Do(nChunks, func(c int) {
		lo, hi := chunkBounds(c, t.rows)
		pos := kept[c]
		for r := lo; r < hi; r++ {
			if !keepFlag[r] {
				continue
			}
			for cc, tc := range idx {
				out.cols[cc][pos] = t.cols[tc][r]
			}
			pos++
		}
	})
	return out, nil
}
