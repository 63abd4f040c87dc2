package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/dtm"
	"repro/internal/lockmgr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
)

// acquire wraps lockmgr.Acquire with the configured lock-wait safety net:
// with GDD disabled there is no global deadlock detection, so undetected
// cross-segment cycles are broken by timeout instead (Greenplum 5 prevented
// them by serializing writers; LOCK TABLE orderings could still hang).
func (s *Segment) acquire(ctx context.Context, who lockmgr.TxnID, tag lockmgr.Tag, mode lockmgr.Mode) error {
	if !s.cfg.GDD && s.cfg.LockTimeout > 0 {
		tctx, cancel := context.WithTimeout(ctx, s.cfg.LockTimeout)
		defer cancel()
		return s.mapLockErr(s.locks.Acquire(tctx, who, tag, mode))
	}
	return s.mapLockErr(s.locks.Acquire(ctx, who, tag, mode))
}

// ExecInsert stores rows on this segment, grouped by leaf table. The rows
// were routed by the coordinator.
func (s *Segment) ExecInsert(ctx context.Context, dxid dtm.DXID, snap *dtm.DistSnapshot, t *catalog.Table, byLeaf map[catalog.TableID][]types.Row) (int, error) {
	if err := s.checkUp(); err != nil {
		return 0, err
	}
	s.netHop()
	s.stmtOverhead()
	a := s.newAccess(dxid, snap)
	if err := s.acquire(ctx, lockmgr.TxnID(dxid), lockmgr.RelationTag(uint64(t.ID)), lockmgr.RowExclusive); err != nil {
		return 0, err
	}
	n := 0
	for leaf, rows := range byLeaf {
		st, err := s.table(leaf)
		if err != nil {
			return n, err
		}
		for _, row := range rows {
			tid := st.engine.Insert(a.st.local, row)
			for _, ix := range st.indexes {
				ix.ix.Insert(row, tid)
			}
			n++
		}
	}
	if n > 0 {
		a.st.wrote = true
	}
	return n, nil
}

// dmlTarget is a row selected for modification.
type dmlTarget struct {
	leaf catalog.TableID
	tid  storage.TupleID
}

// collectTargets finds visible rows matching the filter, via an index probe
// when one applies.
func (s *Segment) collectTargets(ctx context.Context, a *storeAccess, t *catalog.Table, filter plan.Expr) ([]dmlTarget, error) {
	var out []dmlTarget
	for _, leaf := range leafIDs(t) {
		st, err := s.table(leaf)
		if err != nil {
			return nil, err
		}
		if ix, key := pickIndexProbe(st, filter); ix != nil {
			s.accessPenalty(st)
			dead := s.newPruneSet(st)
			for _, tid := range ix.ix.Lookup(key) {
				h, row, ok := st.engine.Fetch(tid)
				if !ok {
					continue
				}
				if !ix.ix.Matches(row, key) || !a.check.Visible(h.Xmin, h.Xmax) {
					dead.consider(h)
					continue
				}
				keep, err := plan.EvalBool(filter, row)
				if err != nil {
					return nil, err
				}
				if keep {
					out = append(out, dmlTarget{leaf: leaf, tid: tid})
				}
			}
			s.prune(st, dead.versions)
			continue
		}
		var iterErr error
		st.engine.ForEach(func(h storage.Header, row types.Row) bool {
			select {
			case <-ctx.Done():
				iterErr = ctx.Err()
				return false
			default:
			}
			if !a.check.Visible(h.Xmin, h.Xmax) {
				return true
			}
			keep, err := plan.EvalBool(filter, row)
			if err != nil {
				iterErr = err
				return false
			}
			if keep {
				out = append(out, dmlTarget{leaf: leaf, tid: h.TID})
			}
			return true
		})
		if iterErr != nil {
			return nil, iterErr
		}
	}
	return out, nil
}

// pickIndexProbe returns an index plus probe key when the filter pins every
// indexed column with a constant equality.
func pickIndexProbe(st *segTable, filter plan.Expr) (*segIndex, []types.Datum) {
	if filter == nil || len(st.indexes) == 0 {
		return nil, nil
	}
	eq := map[int]types.Datum{}
	for _, c := range conjuncts(filter) {
		b, ok := c.(*plan.BinOp)
		if !ok || b.Op != "=" {
			continue
		}
		cr, crOK := b.Left.(*plan.ColRef)
		cn, cnOK := b.Right.(*plan.Const)
		if !crOK || !cnOK {
			cr, crOK = b.Right.(*plan.ColRef)
			cn, cnOK = b.Left.(*plan.Const)
			if !crOK || !cnOK {
				continue
			}
		}
		eq[cr.Idx] = cn.Val
	}
	for _, ix := range st.indexes {
		key := make([]types.Datum, 0, len(ix.def.Columns))
		ok := true
		for _, col := range ix.def.Columns {
			v, found := eq[col]
			if !found {
				ok = false
				break
			}
			key = append(key, v)
		}
		if ok {
			return ix, key
		}
	}
	return nil, nil
}

func conjuncts(e plan.Expr) []plan.Expr {
	if b, ok := e.(*plan.BinOp); ok && b.Op == "AND" {
		return append(conjuncts(b.Left), conjuncts(b.Right)...)
	}
	return []plan.Expr{e}
}

// writeTuple serializes with concurrent writers of the logical tuple rooted
// at tid and stamps the latest version's xmax with our local xid. It
// returns the stamped version id and its row, or ok=false when the row was
// deleted by a committed transaction meanwhile (read-committed semantics:
// the row silently disappears from this statement).
//
// The lock dance is the paper's §4.2 DML behaviour: a short tuple lock
// (dotted wait-for edge) guards the stamping, and waiting for an
// uncommitted writer means share-locking the writer's transaction lock
// (solid edge) while still holding the tuple lock — exactly the mixed-edge
// structure of Figures 8 and 19.
func (s *Segment) writeTuple(ctx context.Context, a *storeAccess, st *segTable, tid storage.TupleID) (storage.TupleID, types.Row, bool, error) {
	me := lockmgr.TxnID(a.dxid)
	tag := lockmgr.TupleTag(uint64(st.leaf), uint64(tid))
	if err := s.acquire(ctx, me, tag, lockmgr.Exclusive); err != nil {
		return 0, nil, false, err
	}
	defer s.locks.Release(me, tag) // released before txn end: dotted edge
	cur := tid
	for {
		h, row, ok := st.engine.Fetch(cur)
		if !ok {
			return 0, nil, false, nil
		}
		if h.Xmax == txn.InvalidXID || h.Xmax == a.st.local {
			if err := st.engine.SetXmax(cur, a.st.local); err != nil {
				var conc *storage.ErrConcurrentWrite
				if errors.As(err, &conc) {
					if werr := s.waitForWriter(ctx, me, conc.Holder); werr != nil {
						return 0, nil, false, werr
					}
					continue
				}
				return 0, nil, false, err
			}
			return cur, row, true, nil
		}
		switch s.txns.Status(h.Xmax) {
		case txn.StatusAborted:
			st.engine.ClearXmax(cur, h.Xmax)
		case txn.StatusCommitted:
			// Locally committed is not enough: wait until the stamper's
			// distributed commit fully acknowledges before building on its
			// version, or our commit could be ordered before it by a
			// concurrent distributed snapshot (two visible versions).
			if err := s.waitDistComplete(ctx, h.Xmax); err != nil {
				return 0, nil, false, err
			}
			if h.UpdatedTo != storage.InvalidTupleID {
				cur = h.UpdatedTo // follow the update chain (EvalPlanQual-style)
			} else {
				return 0, nil, false, nil // deleted under us
			}
		default:
			if err := s.waitForWriter(ctx, me, h.Xmax); err != nil {
				return 0, nil, false, err
			}
		}
	}
}

// waitDistComplete blocks until the distributed transaction that local xid
// implements has left the coordinator's in-progress set (its Commit-OK /
// commit-prepared acknowledgement arrived).
func (s *Segment) waitDistComplete(ctx context.Context, holder txn.XID) error {
	if s.distInProgress == nil {
		return nil
	}
	holderDist, ok := s.mapping.DistFor(holder)
	if !ok {
		return nil // truncated ⇒ completed long ago
	}
	for s.distInProgress(holderDist) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
	}
	return nil
}

// waitForWriter blocks until the transaction owning local xid finishes, by
// share-locking its transaction lock (solid wait-for edge).
func (s *Segment) waitForWriter(ctx context.Context, me lockmgr.TxnID, holder txn.XID) error {
	holderDist, ok := s.mapping.DistFor(holder)
	if !ok {
		// Mapping truncated ⇒ the holder completed long ago; nothing to
		// wait for.
		return nil
	}
	h := lockmgr.TxnID(holderDist)
	if h == me {
		return nil
	}
	if err := s.acquire(ctx, me, lockmgr.TransactionTag(h), lockmgr.Share); err != nil {
		return err
	}
	s.locks.Release(me, lockmgr.TransactionTag(h))
	return nil
}

// ExecUpdate applies an UPDATE plan on this segment.
func (s *Segment) ExecUpdate(ctx context.Context, dxid dtm.DXID, snap *dtm.DistSnapshot, up *plan.UpdatePlan) (int, error) {
	if err := s.checkUp(); err != nil {
		return 0, err
	}
	s.netHop()
	s.stmtOverhead()
	a := s.newAccess(dxid, snap)
	if err := s.acquire(ctx, lockmgr.TxnID(dxid), lockmgr.RelationTag(uint64(up.Table.ID)), lockmgr.RowExclusive); err != nil {
		return 0, err
	}
	targets, err := s.collectTargets(ctx, a, up.Table, up.Filter)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, tgt := range targets {
		st, err := s.table(tgt.leaf)
		if err != nil {
			return n, err
		}
		s.accessPenalty(st)
		old, oldRow, ok, err := s.writeTuple(ctx, a, st, tgt.tid)
		if err != nil {
			return n, err
		}
		if !ok {
			continue
		}
		newRow := oldRow.Clone()
		for i, col := range up.SetCols {
			v, err := up.SetExprs[i].Eval(oldRow)
			if err != nil {
				return n, err
			}
			cv, err := v.CastTo(up.Table.Schema.Columns[col].Kind)
			if err != nil {
				return n, err
			}
			newRow[col] = cv
		}
		newTid := st.engine.Insert(a.st.local, newRow)
		st.engine.LinkUpdate(old, newTid)
		for _, ix := range st.indexes {
			ix.ix.Insert(newRow, newTid)
		}
		n++
	}
	if n > 0 {
		a.st.wrote = true
	}
	return n, nil
}

// ExecDelete applies a DELETE plan on this segment.
func (s *Segment) ExecDelete(ctx context.Context, dxid dtm.DXID, snap *dtm.DistSnapshot, dp *plan.DeletePlan) (int, error) {
	if err := s.checkUp(); err != nil {
		return 0, err
	}
	s.netHop()
	s.stmtOverhead()
	a := s.newAccess(dxid, snap)
	if err := s.acquire(ctx, lockmgr.TxnID(dxid), lockmgr.RelationTag(uint64(dp.Table.ID)), lockmgr.RowExclusive); err != nil {
		return 0, err
	}
	targets, err := s.collectTargets(ctx, a, dp.Table, dp.Filter)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, tgt := range targets {
		st, err := s.table(tgt.leaf)
		if err != nil {
			return n, err
		}
		s.accessPenalty(st)
		_, _, ok, err := s.writeTuple(ctx, a, st, tgt.tid)
		if err != nil {
			return n, err
		}
		if ok {
			n++
		}
	}
	if n > 0 {
		a.st.wrote = true
	}
	return n, nil
}

// LockRelation takes an explicit LOCK TABLE lock on this segment.
func (s *Segment) LockRelation(ctx context.Context, dxid dtm.DXID, t *catalog.Table, mode lockmgr.Mode) error {
	if err := s.checkUp(); err != nil {
		return err
	}
	s.netHop()
	s.beginLocal(dxid)
	return s.acquire(ctx, lockmgr.TxnID(dxid), lockmgr.RelationTag(uint64(t.ID)), mode)
}

// Vacuum reclaims every dead heap version of a table through the same
// primitive the probe paths use: same horizon, index entries dropped with
// the versions, one WAL-logged prune record per leaf. It takes no relation
// lock: Heap.Prune skips a slot a concurrent TRUNCATE and INSERT refilled
// between the scan and the prune, and drops index entries under the heap
// lock, so the refilled row keeps its entry.
func (s *Segment) Vacuum(t *catalog.Table) int {
	reclaimed := 0
	for _, leaf := range leafIDs(t) {
		st, err := s.table(leaf)
		if err != nil {
			continue
		}
		reclaimed += s.prune(st, s.deadVersions(st))
	}
	return reclaimed
}

// deadVersions scans a leaf for the versions no live or future snapshot
// can see: VACUUM's collect step.
func (s *Segment) deadVersions(st *segTable) []storage.Header {
	dead := s.newPruneSet(st)
	if dead.heap {
		st.engine.ForEach(func(h storage.Header, _ types.Row) bool {
			dead.consider(h)
			return true
		})
	}
	return dead.versions
}

// pruneSet gathers the dead versions one probe or VACUUM pass met on one
// leaf, for Segment.prune. Only heap leaves reclaim in place; for any other
// engine the set stays empty.
type pruneSet struct {
	seg      *Segment
	heap     bool
	horizon  dtm.DXID // loaded on first use: one atomic load per pass
	versions []storage.Header
}

func (s *Segment) newPruneSet(st *segTable) pruneSet {
	_, heap := st.engine.(*storage.Heap)
	return pruneSet{seg: s, heap: heap}
}

// consider adds version h to the set when no live or future snapshot can
// see it.
func (p *pruneSet) consider(h storage.Header) {
	if !p.heap {
		return
	}
	if p.horizon == dtm.InvalidDXID {
		p.horizon = p.seg.horizon()
	}
	if p.seg.reclaimable(h, p.horizon) {
		p.versions = append(p.versions, h)
	}
}

// reclaimable reports whether version h is dead to every live and future
// snapshot: its deleter committed with a dxid below the horizon, or its
// creator aborted. Both states are final, so a header read without locks
// decides it for good. A deleter whose mapping entry is gone was truncated
// below an earlier horizon, and the horizon never moves back. Committed
// below the horizon also covers segment-local snapshots: a reader falls
// back to its local snapshot only for such truncated xids, and every live
// local snapshot was taken after their distributed commit acknowledged.
func (s *Segment) reclaimable(h storage.Header, horizon dtm.DXID) bool {
	if h.Xmax != txn.InvalidXID && s.txns.Status(h.Xmax) == txn.StatusCommitted {
		// A committed deleter saw the version, so its creator committed too.
		d, ok := s.mapping.DistFor(h.Xmax)
		return !ok || d < horizon
	}
	return s.txns.Status(h.Xmin) == txn.StatusAborted
}

// prune is the reclamation primitive, the heap_page_prune of this engine:
// it reclaims the dead versions of one heap leaf (Heap.Prune WAL-logs them,
// so mirrors and crash recovery reclaim the same slots) and drops their
// index entries. It returns the number of versions reclaimed; a version a
// concurrent pass already reclaimed, or whose slot now holds another
// version, is skipped.
func (s *Segment) prune(st *segTable, dead []storage.Header) int {
	if len(dead) == 0 {
		return 0
	}
	n := st.engine.(*storage.Heap).Prune(dead, func(rows []types.Row, tids []storage.TupleID) {
		for _, ix := range st.indexes {
			s.prunedEntries.Add(int64(ix.ix.Delete(rows, tids)))
		}
	})
	s.prunedVersions.Add(int64(n))
	return n
}

// SegID implements dtm.Participant.
func (s *Segment) SegID() int { return s.id }

var _ interface {
	SegID() int
	Prepare(dtm.DXID) error
	CommitPrepared(dtm.DXID) error
	AbortPrepared(dtm.DXID) error
	CommitOnePhase(dtm.DXID) error
	Abort(dtm.DXID) error
} = (*Segment)(nil)

// sleepCtx is a context-aware sleep used by dispatch simulation.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

var _ = fmt.Sprintf // keep fmt import when builds shuffle
