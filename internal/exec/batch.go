package exec

import (
	"context"
	"io"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/types"
)

// BatchIterator is the batch-at-a-time (vectorized) pull interface. NextBatch
// returns a non-empty batch or io.EOF after the last one.
//
// Ownership: the returned batch's container (Rows slice) is only valid until
// the next NextBatch call; the Row values inside are never overwritten in
// place and may be retained indefinitely.
type BatchIterator interface {
	NextBatch() (*types.RowBatch, error)
	Close()
}

// scanStreamDepth is how many in-flight batches a streaming scan may buffer
// between the storage goroutine and the consuming operator. Together with
// the batch size it bounds scan memory — the whole point of streaming
// instead of materializing the leaf.
const scanStreamDepth = 2

// DrainBatches pulls every batch from it into a flat row slice (coordinator
// result collection).
func DrainBatches(it BatchIterator) ([]types.Row, error) {
	defer it.Close()
	var out []types.Row
	for {
		b, err := it.NextBatch()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		for i, l := 0, b.Len(); i < l; i++ {
			out = append(out, b.Live(i))
		}
	}
}

// ---- batch operators ----

// scanUnit is one work item of a batch scan: a whole leaf, or (for parallel
// workers) a block range of one.
type scanUnit struct {
	leaf catalog.TableID
	rng  *ScanRange // nil = whole leaf
}

// batchScanIter streams bounded batches from the storage layer: a producer
// goroutine drives the push-style batch scan while the consumer pulls over a
// shallow channel, so a leaf is never fully materialized. The scan filter is
// applied per batch by in-place compaction.
type batchScanIter struct {
	ctx     *Context
	node    *plan.Scan
	units   []scanUnit
	pred    plan.Predicate
	tick    cpuTick
	ch      chan *types.RowBatch
	errc    chan error
	cancel  context.CancelFunc
	started bool
}

func newBatchScanIter(ctx *Context, node *plan.Scan) *batchScanIter {
	units := make([]scanUnit, 0, len(node.Partitions))
	for _, leaf := range node.Partitions {
		units = append(units, scanUnit{leaf: leaf})
	}
	return newBatchScanIterUnits(ctx, node, units)
}

// newBatchScanIterUnits builds a scan over an explicit unit list (the
// parallel builder hands each worker its share of leaves or block ranges).
func newBatchScanIterUnits(ctx *Context, node *plan.Scan, units []scanUnit) *batchScanIter {
	return &batchScanIter{ctx: ctx, node: node, units: units,
		pred: plan.CompilePredicate(node.Filter), tick: cpuTick{ctx: ctx}}
}

func (s *batchScanIter) start() {
	store := s.ctx.Store.(BatchStoreAccess)
	sctx, cancel := context.WithCancel(s.ctx.Ctx)
	s.cancel = cancel
	s.ch = make(chan *types.RowBatch, scanStreamDepth)
	s.errc = make(chan error, 1)
	size := s.ctx.batchSize()
	units := s.units
	spec := ScanSpec{Cols: s.node.Project, Pred: s.node.ScanPred}
	go func() {
		defer close(s.ch)
		push := func(b *types.RowBatch) (bool, error) {
			select {
			case s.ch <- b:
				return true, nil
			case <-sctx.Done():
				return false, sctx.Err()
			}
		}
		for _, u := range units {
			var err error
			if u.rng != nil {
				err = store.(ParallelStoreAccess).ScanTableRangeBatches(sctx, u.leaf, *u.rng, spec, size, push)
			} else {
				err = store.ScanTableBatches(sctx, u.leaf, spec, size, push)
			}
			if err != nil {
				s.errc <- err
				return
			}
		}
	}()
	s.started = true
}

func (s *batchScanIter) NextBatch() (*types.RowBatch, error) {
	if !s.started {
		s.start()
	}
	for {
		b, ok := <-s.ch
		if !ok {
			select {
			case err := <-s.errc:
				return nil, err
			default:
				return nil, io.EOF
			}
		}
		if err := s.tick.tickRows(b.Len()); err != nil {
			return nil, err
		}
		if s.node.Filter != nil {
			if err := selectBatch(b, s.pred); err != nil {
				return nil, err
			}
		}
		if b.Len() > 0 {
			return b, nil
		}
	}
}

func (s *batchScanIter) Close() {
	if s.cancel != nil {
		s.cancel()
	}
	if s.ch != nil {
		for range s.ch { // unblock and retire the producer
		}
	}
}

// batchFilterIter drops rows failing the (compiled) predicate by narrowing
// each child batch's selection vector — survivors are marked, not copied;
// densification is deferred to the next ownership boundary (a motion send or
// an explicit clone).
type batchFilterIter struct {
	child BatchIterator
	pred  plan.Predicate
	tick  cpuTick
}

func (f *batchFilterIter) NextBatch() (*types.RowBatch, error) {
	for {
		b, err := f.child.NextBatch()
		if err != nil {
			return nil, err
		}
		if err := f.tick.tickRows(b.Len()); err != nil {
			return nil, err
		}
		if err := selectBatch(b, f.pred); err != nil {
			return nil, err
		}
		if b.Len() > 0 {
			return b, nil
		}
	}
}

func (f *batchFilterIter) Close() { f.child.Close() }

// selectBatch narrows b's selection to the rows passing pred. A batch that
// already carries a selection is narrowed in place (the kept prefix of the
// existing vector is rewritten, which is safe because selections ascend); a
// dense batch gets a vector of its own, so the batch's ownership status is
// unchanged — whoever owned the container now also owns the selection.
func selectBatch(b *types.RowBatch, pred plan.Predicate) error {
	if b.Sel == nil {
		n := len(b.Rows)
		first := 0
		for ; first < n; first++ {
			ok, err := pred(b.Rows[first])
			if err != nil {
				return err
			}
			if !ok {
				break
			}
		}
		if first == n {
			return nil // every row passes: the batch stays dense
		}
		sel := make([]int, first, n-1)
		for j := 0; j < first; j++ {
			sel[j] = j
		}
		for i := first + 1; i < n; i++ {
			ok, err := pred(b.Rows[i])
			if err != nil {
				return err
			}
			if ok {
				sel = append(sel, i)
			}
		}
		b.Sel = sel
		return nil
	}
	sel := b.Sel[:0]
	for _, i := range b.Sel {
		ok, err := pred(b.Rows[i])
		if err != nil {
			return err
		}
		if ok {
			sel = append(sel, i)
		}
	}
	b.Sel = sel
	return nil
}

// batchProjectIter computes output expressions for a whole batch per call.
type batchProjectIter struct {
	child BatchIterator
	exprs []plan.Expr
	out   *types.RowBatch
	tick  cpuTick
}

func (p *batchProjectIter) NextBatch() (*types.RowBatch, error) {
	b, err := p.child.NextBatch()
	if err != nil {
		return nil, err
	}
	if err := p.tick.tickRows(b.Len()); err != nil {
		return nil, err
	}
	p.out.Reset()
	for i, l := 0, b.Len(); i < l; i++ {
		row := b.Live(i)
		out := make(types.Row, len(p.exprs))
		for j, e := range p.exprs {
			v, err := e.Eval(row)
			if err != nil {
				return nil, err
			}
			out[j] = v
		}
		p.out.Append(out)
	}
	return p.out, nil
}

func (p *batchProjectIter) Close() { p.child.Close() }

// motionRecvBatchIter pulls whole batches arriving from the sending slice of
// a motion.
type motionRecvBatchIter struct {
	ctx  *Context
	recv BatchReceiver
}

func (m *motionRecvBatchIter) NextBatch() (*types.RowBatch, error) {
	for {
		b, ok, err := m.recv.RecvBatch(m.ctx.Ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, io.EOF
		}
		if b.Len() > 0 {
			return b, nil
		}
	}
}

func (m *motionRecvBatchIter) Close() {}

// BuildBatch constructs the iterator tree for a plan subtree *within one
// slice*. A Motion child is a slice boundary: BuildBatch returns a receiver
// iterator for it; the sending side is launched separately by the
// dispatcher. When ctx.NodeRows is set, every node's iterator is wrapped to
// record its actual output rows (recursion re-enters BuildBatch, so children
// are wrapped too); ctx.Ops adds per-node operator statistics the same way.
func BuildBatch(ctx *Context, node plan.Node) BatchIterator {
	it := buildBatchNode(ctx, node)
	if ctr := ctx.NodeRows.Counter(node); ctr != nil {
		it = &countingBatchIter{child: it, ctr: ctr}
	}
	if st := ctx.opStat(node); st != nil {
		it = &opStatBatchIter{child: it, st: st}
	}
	return it
}

func buildBatchNode(ctx *Context, node plan.Node) BatchIterator {
	switch n := node.(type) {
	case *plan.OneRow:
		return &oneRowIter{}
	case *plan.Scan:
		if ctx.Store == nil {
			return errIterf("exec: scan of %s in a storage-less slice", n.Table.Name)
		}
		if n.OnSeg >= 0 && ctx.SegID != n.OnSeg {
			// Single-segment scan (replicated table not yet widened by
			// online expansion): every other segment contributes nothing.
			return emptyIter{}
		}
		if _, ok := ctx.Store.(BatchStoreAccess); ok && !n.ForUpdate {
			return newBatchScanIter(ctx, n)
		}
		return newScanIter(ctx, n)
	case *plan.IndexScan:
		if ctx.Store == nil {
			return errIterf("exec: index scan of %s in a storage-less slice", n.Table.Name)
		}
		return newIndexScanIter(ctx, n)
	case *plan.Filter:
		return &batchFilterIter{child: BuildBatch(ctx, n.Child), pred: plan.CompilePredicate(n.Cond), tick: cpuTick{ctx: ctx}}
	case *plan.Project:
		return &batchProjectIter{child: BuildBatch(ctx, n.Child), exprs: n.Exprs,
			out: types.NewRowBatch(ctx.batchSize()), tick: cpuTick{ctx: ctx}}
	case *plan.HashJoin:
		return newBatchHashJoinIter(ctx, n, BuildBatch(ctx, n.Left), BuildBatch(ctx, n.Right))
	case *plan.NestLoop:
		return newNestLoopIter(ctx, n, BuildBatch(ctx, n.Left), BuildBatch(ctx, n.Right))
	case *plan.Agg:
		return newBatchAggIter(ctx, n, BuildBatch(ctx, n.Child))
	case *plan.Sort:
		return newSortIter(ctx, n, BuildBatch(ctx, n.Child))
	case *plan.Limit:
		return &limitIter{child: BuildBatch(ctx, n.Child), count: n.Count, skip: max(n.Offset, 0)}
	case *plan.Motion:
		if ctx.Recv == nil {
			return errIterf("exec: no receiver wiring for slice %d", n.SliceID)
		}
		r := ctx.Recv(n.SliceID)
		if r == nil {
			return errIterf("exec: no receiver for slice %d at segment %d", n.SliceID, ctx.SegID)
		}
		return &motionRecvBatchIter{ctx: ctx, recv: r}
	default:
		return errIterf("exec: unsupported plan node %T", node)
	}
}

// HashForRedistribute computes the destination segment for a row under a
// redistribute motion.
func HashForRedistribute(exprs []plan.Expr, row types.Row, nseg int) (int, error) {
	var h uint64 = 1469598103934665603
	for _, e := range exprs {
		v, err := e.Eval(row)
		if err != nil {
			return 0, err
		}
		h = h*1099511628211 ^ v.Hash()
	}
	return int(h % uint64(nseg)), nil
}
