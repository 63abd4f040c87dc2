package exec

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/plan"
	"repro/internal/types"
)

// emitWindow hands out the next batch of at most size rows from *rows
// without copying: the batch's container is a capacity-capped window of the
// slice, so a consumer appending to it cannot reach rows not yet emitted.
func emitWindow(rows *[]types.Row, size int, out *types.RowBatch) (*types.RowBatch, error) {
	if len(*rows) == 0 {
		return nil, io.EOF
	}
	n := min(size, len(*rows))
	*out = types.RowBatch{Rows: (*rows)[:n:n]}
	*rows = (*rows)[n:]
	return out, nil
}

// bufferedIter runs load once, on the first pull, and emits the rows it
// returns in batches (index scans and materializing table scans).
type bufferedIter struct {
	load   func() ([]types.Row, error)
	size   int
	rows   []types.Row
	out    types.RowBatch
	loaded bool
}

func (b *bufferedIter) NextBatch() (*types.RowBatch, error) {
	if !b.loaded {
		rows, err := b.load()
		if err != nil {
			return nil, err
		}
		b.rows, b.loaded = rows, true
	}
	return emitWindow(&b.rows, b.size, &b.out)
}

func (b *bufferedIter) Close() { b.rows = nil }

// oneRowIter emits one batch holding a single empty row (SELECT without
// FROM).
type oneRowIter struct{ done bool }

func (o *oneRowIter) NextBatch() (*types.RowBatch, error) {
	if o.done {
		return nil, io.EOF
	}
	o.done = true
	return &types.RowBatch{Rows: []types.Row{{}}}, nil
}

func (o *oneRowIter) Close() {}

// emptyIter yields no rows.
type emptyIter struct{}

func (emptyIter) NextBatch() (*types.RowBatch, error) { return nil, io.EOF }
func (emptyIter) Close()                              {}

// errIter reports a construction error lazily.
type errIter struct{ err error }

func (e *errIter) NextBatch() (*types.RowBatch, error) { return nil, e.err }
func (e *errIter) Close()                              {}

func errIterf(format string, args ...any) BatchIterator {
	return &errIter{err: fmt.Errorf(format, args...)}
}

// newScanIter drives StoreAccess.ScanTable by materializing every leaf (the
// storage callback pushes; the iterator re-buffers) and emits the buffer in
// batches. It serves FOR UPDATE scans, which lock each kept row inside the
// storage callback, and stores without the batch scan path; every other scan
// streams through batchScanIter.
func newScanIter(ctx *Context, node *plan.Scan) BatchIterator {
	tick := cpuTick{ctx: ctx}
	return &bufferedIter{size: ctx.batchSize(), load: func() ([]types.Row, error) {
		var rows []types.Row
		for _, leaf := range node.Partitions {
			err := ctx.Store.ScanTable(ctx.Ctx, leaf, node.ForUpdate, func(row types.Row) (bool, bool, error) {
				if err := tick.tick(); err != nil {
					return false, false, err
				}
				keep, err := plan.EvalBool(node.Filter, row)
				if err != nil {
					return false, false, err
				}
				if keep {
					rows = append(rows, row.Clone())
				}
				return keep, true, nil
			})
			if err != nil {
				return nil, err
			}
		}
		return rows, nil
	}}
}

// newIndexScanIter probes the hash index with constant keys.
func newIndexScanIter(ctx *Context, node *plan.IndexScan) BatchIterator {
	return &bufferedIter{size: ctx.batchSize(), load: func() ([]types.Row, error) {
		key := make([]types.Datum, len(node.KeyVals))
		for i, e := range node.KeyVals {
			v, err := e.Eval(nil)
			if err != nil {
				return nil, err
			}
			key[i] = v
		}
		var rows []types.Row
		err := ctx.Store.IndexLookup(ctx.Ctx, node.Table, node.Index, key, node.ForUpdate,
			func(row types.Row) (bool, error) {
				keep, err := plan.EvalBool(node.Filter, row)
				if err != nil {
					return false, err
				}
				if keep {
					rows = append(rows, row.Clone())
				}
				return true, nil
			})
		return rows, err
	}}
}

// sortIter materializes and sorts. Under a spill budget it is an external
// merge sort: when the accumulated rows exceed the budget they are sorted and
// dumped as a run file, and after input is exhausted the run files plus the
// in-memory residual are merged by a loser tree. Runs are numbered in input
// order and ties break toward the lower run, so the merged output is
// byte-identical to the stable in-memory sort.
type sortIter struct {
	ctx    *Context
	child  BatchIterator
	keys   []plan.SortKey
	rows   []types.Row
	loaded bool
	mem    opMem
	runs   []*spillFile
	tree   *loserTree
	out    types.RowBatch
}

func newSortIter(ctx *Context, node *plan.Sort, child BatchIterator) *sortIter {
	return &sortIter{ctx: ctx, child: child, keys: node.Keys, mem: opMem{ctx: ctx, stat: ctx.opStat(node)}}
}

// compareKeys orders two rows under the ORDER BY keys.
func (s *sortIter) compareKeys(a, b types.Row) (int, error) {
	for _, k := range s.keys {
		av, err := k.Expr.Eval(a)
		if err != nil {
			return 0, err
		}
		bv, err := k.Expr.Eval(b)
		if err != nil {
			return 0, err
		}
		c := types.Compare(av, bv)
		if c == 0 {
			continue
		}
		if k.Desc {
			return -c, nil
		}
		return c, nil
	}
	return 0, nil
}

// sortBuffered stably sorts the in-memory rows.
func (s *sortIter) sortBuffered() error {
	var sortErr error
	sort.SliceStable(s.rows, func(i, j int) bool {
		c, err := s.compareKeys(s.rows[i], s.rows[j])
		if err != nil && sortErr == nil {
			sortErr = err
		}
		return c < 0
	})
	return sortErr
}

// spillRun sorts the buffered rows, writes them as one run file, and releases
// their memory.
func (s *sortIter) spillRun() error {
	if err := s.sortBuffered(); err != nil {
		return err
	}
	sf, err := s.ctx.Spill.newFile(s.ctx.SegID, fmt.Sprintf("seg%d-sort-run%d", s.ctx.SegID, len(s.runs)))
	if err != nil {
		return err
	}
	sf.stat = s.mem.stat
	if err := s.mem.growFiles(spillFileOverhead); err != nil {
		sf.close()
		return err
	}
	for _, row := range s.rows {
		if err := sf.writeRow(row); err != nil {
			// The run is not in s.runs yet, so Close would never see it.
			sf.close()
			return err
		}
	}
	s.runs = append(s.runs, sf)
	s.rows = nil
	s.mem.freeAll()
	s.ctx.Spill.noteSpill()
	return nil
}

// add buffers one input row, spilling the buffer as a sorted run first when
// the row would not fit the budget.
func (s *sortIter) add(row types.Row) error {
	sz := row.Size()
	ok, err := s.mem.grow(sz)
	if err != nil {
		return err
	}
	if !ok && s.mem.charged >= spillChunk(s.ctx.Spill.Budget()) {
		if err := s.spillRun(); err != nil {
			return err
		}
		ok, err = s.mem.grow(sz)
		if err != nil {
			return err
		}
	}
	if !ok {
		// Below the spill-chunk floor (or a single row beyond the whole
		// budget): grow past the budget rather than shed a tiny run.
		if err := s.mem.forceGrow(sz); err != nil {
			return err
		}
	}
	s.rows = append(s.rows, row)
	return nil
}

func (s *sortIter) load() error {
	for {
		b, err := s.child.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for i, l := 0, b.Len(); i < l; i++ {
			if err := s.add(b.Live(i)); err != nil {
				return err
			}
		}
	}
	if err := s.sortBuffered(); err != nil {
		return err
	}
	if len(s.runs) > 0 {
		// Merge the run files plus the residual rows (the final, highest-
		// numbered run, kept in memory).
		srcs := make([]mergeSource, 0, len(s.runs)+1)
		for _, sf := range s.runs {
			if err := sf.startRead(); err != nil {
				return err
			}
			srcs = append(srcs, fileSource{sf})
		}
		if len(s.rows) > 0 {
			srcs = append(srcs, &memSource{rows: s.rows})
		}
		tree, err := newLoserTree(srcs, s.compareKeys)
		if err != nil {
			return err
		}
		s.tree = tree
		s.out.Rows = make([]types.Row, 0, s.ctx.batchSize())
	}
	s.loaded = true
	return nil
}

func (s *sortIter) NextBatch() (*types.RowBatch, error) {
	if !s.loaded {
		if err := s.load(); err != nil {
			return nil, err
		}
	}
	size := s.ctx.batchSize()
	if s.tree == nil {
		return emitWindow(&s.rows, size, &s.out)
	}
	s.out.Reset()
	for s.out.Len() < size {
		row, err := s.tree.pop()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		s.out.Append(row)
	}
	if s.out.Len() == 0 {
		return nil, io.EOF
	}
	return &s.out, nil
}

func (s *sortIter) Close() {
	s.mem.closeAll()
	for _, sf := range s.runs {
		sf.close()
	}
	s.runs = nil
	s.rows = nil
	s.child.Close()
}

// limitIter skips offset rows, then passes at most count more, trimming the
// child's batches at the window edges (a selection is narrowed, a dense
// container re-windowed; no row is copied). Once the count is reached it
// stops pulling its child.
type limitIter struct {
	child BatchIterator
	count int64 // rows still to emit; -1 = unlimited
	skip  int64 // offset rows still to skip; a negative OFFSET skips none
	out   types.RowBatch
}

func (l *limitIter) NextBatch() (*types.RowBatch, error) {
	for l.count != 0 {
		b, err := l.child.NextBatch()
		if err != nil {
			return nil, err
		}
		n := int64(b.Len())
		lo := min(l.skip, n)
		l.skip -= lo
		hi := n
		if l.count >= 0 {
			hi = min(n, lo+l.count)
			l.count -= hi - lo
		}
		switch {
		case lo == hi:
			continue
		case lo == 0 && hi == n:
			return b, nil
		case b.Sel != nil:
			l.out = types.RowBatch{Rows: b.Rows, Sel: b.Sel[lo:hi:hi]}
		default:
			l.out = types.RowBatch{Rows: b.Rows[lo:hi:hi]}
		}
		return &l.out, nil
	}
	return nil, io.EOF
}

func (l *limitIter) Close() { l.child.Close() }
