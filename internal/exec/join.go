package exec

import (
	"fmt"
	"io"

	"repro/internal/plan"
	"repro/internal/types"
)

// batchHashJoinIter is the vectorized hash join: the right (build/inner)
// side is drained batch-at-a-time and fully materialized before the first
// probe batch is pulled. The prefetch is not just a performance choice: it is
// Greenplum's defence against interconnect deadlock (paper Appendix B) — the
// inner motion is drained completely before any outer tuple is requested.
//
// The build side spills Grace-style: when it outgrows the spill budget,
// build rows are scattered by key hash into fanout partition files (the
// in-memory table is flushed first), probe rows follow into matching probe
// partitions, and after the probe input ends each partition pair is joined
// in turn — build partition loaded into a fresh table, probe partition
// streamed against it. Rows with NULL keys never join and are resolved
// immediately in either mode.
type batchHashJoinIter struct {
	ctx         *Context
	node        *plan.HashJoin
	left, right BatchIterator
	mem         opMem
	table       map[uint64][]types.Row
	rwidth      int
	built       bool
	draining    bool
	tick        cpuTick
	out         *types.RowBatch

	spilled    bool
	buildParts []*spillFile
	probeParts []*spillFile

	// Batch-build scratch (addBuildBatch), reused across batches.
	hashScratch []uint64
	rowScratch  []types.Row

	// Spilled-partition drain state.
	drainPart int
	curProbe  *spillFile
	pending   []types.Row
}

func newBatchHashJoinIter(ctx *Context, node *plan.HashJoin, left, right BatchIterator) *batchHashJoinIter {
	return &batchHashJoinIter{
		ctx: ctx, node: node,
		left: left, right: right,
		mem:    opMem{ctx: ctx, stat: ctx.opStat(node)},
		table:  make(map[uint64][]types.Row),
		rwidth: node.Right.Schema().Len(),
		tick:   cpuTick{ctx: ctx},
		out:    types.NewRowBatch(ctx.batchSize()),
	}
}

func (j *batchHashJoinIter) build() error {
	for {
		b, err := j.right.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := j.tick.tickRows(b.Len()); err != nil {
			return err
		}
		if err := j.addBuildBatch(b); err != nil {
			return err
		}
	}
	j.built = true
	return nil
}

func (j *batchHashJoinIter) NextBatch() (*types.RowBatch, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, err
		}
	}
	for {
		if j.draining {
			// Spilled partitions are joined pairwise and their output rows
			// re-batched (no-op when the join stayed in memory).
			j.out.Reset()
			size := j.out.Cap()
			for j.out.Len() < size {
				row, err := j.drainNext()
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, err
				}
				j.out.Append(row)
			}
			if j.out.Len() == 0 {
				return nil, io.EOF
			}
			// Charge CPU for the disk-replay pass like the probe pass.
			if err := j.tick.tickRows(j.out.Len()); err != nil {
				return nil, err
			}
			return j.out, nil
		}
		b, err := j.left.NextBatch()
		if err == io.EOF {
			j.draining = true
			continue
		}
		if err != nil {
			return nil, err
		}
		if err := j.tick.tickRows(b.Len()); err != nil {
			return nil, err
		}
		j.out.Reset()
		for i, l := 0, b.Len(); i < l; i++ {
			probe := b.Live(i)
			if err := j.probeRow(probe, func(combined types.Row) {
				j.out.Append(combined)
			}); err != nil {
				return nil, err
			}
		}
		if j.out.Len() > 0 {
			return j.out, nil
		}
	}
}

func (j *batchHashJoinIter) Close() {
	j.mem.closeAll()
	for _, sf := range j.buildParts {
		if sf != nil {
			sf.close()
		}
	}
	for _, sf := range j.probeParts {
		if sf != nil {
			sf.close()
		}
	}
	j.buildParts, j.probeParts = nil, nil
	j.table = nil
	j.left.Close()
	j.right.Close()
}

// addBuildBatch folds a whole build batch with one memory decision per batch
// instead of one per row — grow takes the slot mutex and a budget CAS, which
// the vectorized build must not pay per row. Once spilled, rows route to
// their partition files (no memory is charged on that path).
func (j *batchHashJoinIter) addBuildBatch(b *types.RowBatch) error {
	j.hashScratch = j.hashScratch[:0]
	j.rowScratch = j.rowScratch[:0]
	var total int64
	for i, l := 0, b.Len(); i < l; i++ {
		row := b.Live(i)
		h, ok, err := hashKeys(j.node.RightKeys, row)
		if err != nil {
			return err
		}
		if !ok {
			continue // NULL keys never join
		}
		j.hashScratch = append(j.hashScratch, h)
		j.rowScratch = append(j.rowScratch, row)
		total += row.Size()
	}
	if len(j.rowScratch) == 0 {
		return nil
	}
	if !j.spilled {
		okm, err := j.mem.grow(total)
		if err != nil {
			return err
		}
		// Below the spill-chunk floor (a starved budget or a single batch
		// beyond all of it) the build stays in memory for now.
		if !okm {
			if j.ctx.Spill.Enabled() && j.mem.charged >= spillChunk(j.ctx.Spill.Budget()) {
				if err := j.beginSpill(); err != nil {
					return err
				}
			} else if err := j.mem.forceGrow(total); err != nil {
				return err
			}
		}
	}
	for i, row := range j.rowScratch {
		h := j.hashScratch[i]
		if j.spilled {
			if err := j.buildParts[h%uint64(len(j.buildParts))].writeRow(row); err != nil {
				return err
			}
			continue
		}
		j.table[h] = append(j.table[h], row)
	}
	return nil
}

// beginSpill creates the partition files and flushes the in-memory table.
func (j *batchHashJoinIter) beginSpill() error {
	fanout := spillFanout(j.node.EstMemBytes, j.ctx.Spill.Budget())
	if err := j.mem.growFiles(2 * int64(fanout) * spillFileOverhead); err != nil {
		return err
	}
	j.buildParts = make([]*spillFile, fanout)
	j.probeParts = make([]*spillFile, fanout)
	for i := 0; i < fanout; i++ {
		// Park each file in its slot as soon as it exists: if the paired
		// create fails, Close still owns (and removes) this one.
		bf, err := j.ctx.Spill.newFile(j.ctx.SegID, fmt.Sprintf("seg%d-join-build%d", j.ctx.SegID, i))
		if err != nil {
			return err
		}
		bf.stat = j.mem.stat
		j.buildParts[i] = bf
		pf, err := j.ctx.Spill.newFile(j.ctx.SegID, fmt.Sprintf("seg%d-join-probe%d", j.ctx.SegID, i))
		if err != nil {
			return err
		}
		pf.stat = j.mem.stat
		j.probeParts[i] = pf
	}
	for h, bucket := range j.table {
		sf := j.buildParts[h%uint64(fanout)]
		for _, row := range bucket {
			if err := sf.writeRow(row); err != nil {
				return err
			}
		}
	}
	j.table = make(map[uint64][]types.Row)
	j.mem.freeAll()
	j.spilled = true
	j.ctx.Spill.noteSpill()
	return nil
}

// probeRow handles one probe-side row. In memory it emits matches (and the
// left-join null extension) immediately; once spilled, rows are buffered to
// their probe partition and the matches surface later via drainNext.
func (j *batchHashJoinIter) probeRow(probe types.Row, emit func(types.Row)) error {
	if !j.spilled {
		matched, err := probeHashTable(j.node, j.table, probe, emit)
		if err != nil {
			return err
		}
		if !matched && j.node.Kind == plan.JoinLeft {
			emit(nullExtend(probe, j.rwidth))
		}
		return nil
	}
	h, ok, err := hashKeys(j.node.LeftKeys, probe)
	if err != nil {
		return err
	}
	if !ok {
		// NULL keys match nothing in any partition; resolve now.
		if j.node.Kind == plan.JoinLeft {
			emit(nullExtend(probe, j.rwidth))
		}
		return nil
	}
	return j.probeParts[h%uint64(len(j.probeParts))].writeRow(probe)
}

// drainNext returns the next output row of the spilled partitions, loading
// each build partition into a fresh in-memory table and streaming its probe
// partition against it. io.EOF when every partition is joined. When the join
// never spilled there is nothing to drain.
func (j *batchHashJoinIter) drainNext() (types.Row, error) {
	for {
		if len(j.pending) > 0 {
			row := j.pending[0]
			j.pending = j.pending[1:]
			return row, nil
		}
		if !j.spilled {
			return nil, io.EOF
		}
		if j.curProbe == nil {
			if j.drainPart >= len(j.buildParts) {
				return nil, io.EOF
			}
			if err := j.loadBuildPartition(j.drainPart); err != nil {
				return nil, err
			}
			j.curProbe = j.probeParts[j.drainPart]
			if err := j.curProbe.startRead(); err != nil {
				return nil, err
			}
		}
		probe, err := j.curProbe.readRow()
		if err == io.EOF {
			// Partition pair done: release its table and files.
			j.probeParts[j.drainPart].close()
			j.probeParts[j.drainPart] = nil
			j.table = make(map[uint64][]types.Row)
			j.mem.freeAll()
			j.curProbe = nil
			j.drainPart++
			continue
		}
		if err != nil {
			return nil, err
		}
		matched, err := probeHashTable(j.node, j.table, probe, func(combined types.Row) {
			j.pending = append(j.pending, combined)
		})
		if err != nil {
			return nil, err
		}
		if !matched && j.node.Kind == plan.JoinLeft {
			j.pending = append(j.pending, nullExtend(probe, j.rwidth))
		}
	}
}

// loadBuildPartition reads one build partition into the in-memory table. A
// partition is sized by the fanout to fit the budget; when key skew defeats
// that, the resource group is charged directly rather than re-partitioning
// (one level of Grace partitioning, as in the paper's executor).
func (j *batchHashJoinIter) loadBuildPartition(p int) error {
	sf := j.buildParts[p]
	j.buildParts[p] = nil
	if err := sf.startRead(); err != nil {
		return err
	}
	for {
		row, err := sf.readRow()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		h, ok, err := hashKeys(j.node.RightKeys, row)
		if err != nil || !ok {
			if err != nil {
				return err
			}
			continue
		}
		okm, err := j.mem.grow(row.Size())
		if err != nil {
			return err
		}
		if !okm {
			if err := j.mem.forceGrow(row.Size()); err != nil {
				return err
			}
		}
		j.table[h] = append(j.table[h], row)
	}
	sf.close()
	return nil
}

func hashKeys(keys []plan.Expr, row types.Row) (uint64, bool, error) {
	var h uint64 = 1469598103934665603
	for _, k := range keys {
		v, err := k.Eval(row)
		if err != nil {
			return 0, false, err
		}
		if v.IsNull() {
			return 0, false, nil // NULL keys never join
		}
		h = h*1099511628211 ^ v.Hash()
	}
	return h, true, nil
}

// probeHashTable finds every build row joining with probe, re-checking exact
// key equality (hash collisions) and the residual condition, and hands each
// combined output row to emit. It reports whether the probe matched.
func probeHashTable(node *plan.HashJoin, table map[uint64][]types.Row, probe types.Row, emit func(types.Row)) (bool, error) {
	h, ok, err := hashKeys(node.LeftKeys, probe)
	if err != nil || !ok {
		return false, err
	}
	bucket := table[h]
	if len(bucket) == 0 {
		return false, nil
	}
	// Evaluate the probe-side key values once; only the build side varies
	// across bucket candidates.
	lvals := make([]types.Datum, len(node.LeftKeys))
	for i, k := range node.LeftKeys {
		lv, err := k.Eval(probe)
		if err != nil {
			return false, err
		}
		lvals[i] = lv
	}
	matched := false
	for _, rrow := range bucket {
		eq := true
		for i := range node.LeftKeys {
			rv, err := node.RightKeys[i].Eval(rrow)
			if err != nil {
				return matched, err
			}
			if lvals[i].IsNull() || rv.IsNull() || types.Compare(lvals[i], rv) != 0 {
				eq = false
				break
			}
		}
		if !eq {
			continue
		}
		combined := make(types.Row, 0, len(probe)+len(rrow))
		combined = append(combined, probe...)
		combined = append(combined, rrow...)
		keep, err := plan.EvalBool(node.Extra, combined)
		if err != nil {
			return matched, err
		}
		if keep {
			matched = true
			emit(combined)
		}
	}
	return matched, nil
}

// nullExtend builds the left-join output row for an unmatched probe row.
func nullExtend(probe types.Row, rwidth int) types.Row {
	combined := make(types.Row, 0, len(probe)+rwidth)
	combined = append(combined, probe...)
	for i := 0; i < rwidth; i++ {
		combined = append(combined, types.Null)
	}
	return combined
}

// nestLoopIter materializes (prefetches) the inner side, then streams outer
// batches and rescans the inner rows per outer row — the same deadlock-safe
// order as hash join: the inner motion is drained completely before the
// first outer batch is pulled (paper Appendix B).
type nestLoopIter struct {
	ctx   *Context
	node  *plan.NestLoop
	left  BatchIterator
	right BatchIterator
	inner []types.Row
	bytes int64
	built bool
	done  bool
	// Resume point: the current outer batch (valid until left is pulled
	// again), its next row, and that row's next inner row.
	outer   *types.RowBatch
	opos    int
	ipos    int
	matched bool
	rwidth  int
	tick    cpuTick
	out     *types.RowBatch
}

func newNestLoopIter(ctx *Context, node *plan.NestLoop, left, right BatchIterator) *nestLoopIter {
	return &nestLoopIter{ctx: ctx, node: node, left: left, right: right,
		rwidth: node.Right.Schema().Len(), tick: cpuTick{ctx: ctx},
		out: types.NewRowBatch(ctx.batchSize())}
}

func (j *nestLoopIter) build() error {
	for {
		b, err := j.right.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		var n int64
		for i, l := 0, b.Len(); i < l; i++ {
			n += b.Live(i).Size()
		}
		if err := j.ctx.grow(n); err != nil {
			return err
		}
		j.bytes += n
		for i, l := 0, b.Len(); i < l; i++ {
			j.inner = append(j.inner, b.Live(i))
		}
	}
	j.built = true
	return nil
}

func (j *nestLoopIter) NextBatch() (*types.RowBatch, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, err
		}
	}
	j.out.Reset()
	size := j.out.Cap()
	// Evaluated (outer, inner) pairs are charged as CPU rows every size
	// pairs, not once per output batch: a selective condition can evaluate
	// the whole product before the batch fills, and each charge is where the
	// loop yields to CPU sharing and sees cancellation.
	pairs := 0
	for !j.done && j.out.Len() < size {
		if j.outer == nil || j.opos >= j.outer.Len() {
			b, err := j.left.NextBatch()
			if err == io.EOF {
				j.done, j.outer = true, nil
				break
			}
			if err != nil {
				return nil, err
			}
			j.outer, j.opos, j.ipos, j.matched = b, 0, 0, false
		}
		outer := j.outer.Live(j.opos)
		for j.ipos < len(j.inner) && j.out.Len() < size {
			inner := j.inner[j.ipos]
			j.ipos++
			if pairs++; pairs == size {
				if err := j.tick.tickRows(pairs); err != nil {
					return nil, err
				}
				pairs = 0
			}
			combined := make(types.Row, 0, len(outer)+len(inner))
			combined = append(combined, outer...)
			combined = append(combined, inner...)
			keep, err := plan.EvalBool(j.node.Cond, combined)
			if err != nil {
				return nil, err
			}
			if keep {
				j.matched = true
				j.out.Append(combined)
			}
		}
		if j.ipos < len(j.inner) {
			break // the batch filled mid-row; resume at ipos
		}
		// An unmatched row appended nothing this round, so there is room.
		if !j.matched && j.node.Kind == plan.JoinLeft {
			j.out.Append(nullExtend(outer, j.rwidth))
		}
		j.opos, j.ipos, j.matched = j.opos+1, 0, false
	}
	if err := j.tick.tickRows(pairs); err != nil {
		return nil, err
	}
	if j.out.Len() == 0 {
		return nil, io.EOF
	}
	return j.out, nil
}

func (j *nestLoopIter) Close() {
	j.ctx.shrink(j.bytes)
	j.inner = nil
	j.left.Close()
	j.right.Close()
}
