package storage

import (
	"fmt"

	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// WAL integration: every engine optionally carries a walRef — the segment's
// log plus the engine's leaf relation id — and emits one record per
// mutation, under the engine's own mutex so the log order is exactly the
// mutation order. Replay (ApplyRecord) feeds the same records back through
// the public Engine interface; because engines assign tuple ids
// sequentially, replaying a log into a fresh engine reproduces the
// primary's tuple ids bit for bit, which ApplyRecord verifies.

// walRef binds an engine to its segment's write-ahead log.
type walRef struct {
	log  *wal.Log
	leaf uint64
}

func (w *walRef) enabled() bool { return w.log != nil }

func (w *walRef) logInsert(tid TupleID, x txn.XID, row types.Row) {
	if !w.enabled() {
		return
	}
	r := wal.Record{Type: wal.TypeInsert, Leaf: w.leaf, Xid: uint64(x), TID: uint64(tid), Row: row}
	w.log.Append(&r)
}

func (w *walRef) logOp(t wal.Type, tid TupleID, x txn.XID, tid2 TupleID) {
	if !w.enabled() {
		return
	}
	r := wal.Record{Type: t, Leaf: w.leaf, Xid: uint64(x), TID: uint64(tid), TID2: uint64(tid2)}
	w.log.Append(&r)
}

func (w *walRef) logPrune(tids []uint64) {
	r := wal.Record{Type: wal.TypePrune, Leaf: w.leaf, TIDs: tids}
	w.log.Append(&r)
}

// WALLogged is implemented by engines that can emit write-ahead log records.
type WALLogged interface {
	// SetWAL attaches the segment log; subsequent mutations append records
	// stamped with the engine's leaf relation id. Passing nil detaches.
	SetWAL(l *wal.Log, leaf uint64)
}

// DerivedResettable is implemented by engines holding derived read-side
// state (lazy zone-map pages, cached decoded blocks) that a mirror
// promotion must drop: replayed data is authoritative, anything summarized
// or decoded before the engine became the primary copy is not trusted.
type DerivedResettable interface {
	// ResetDerived invalidates lazily built summaries and cached decodings.
	ResetDerived()
}

// ApplyRecord replays one storage record into e through the normal Engine
// interface. Inserting replays must reproduce the logged tuple id — a
// mismatch means the log and the engine disagree about history and the
// replica is unusable.
func ApplyRecord(e Engine, r wal.Record) error {
	switch r.Type {
	case wal.TypeInsert:
		tid := e.Insert(txn.XID(r.Xid), r.Row)
		if uint64(tid) != r.TID {
			return fmt.Errorf("storage: replay of %s insert produced tid %d, log says %d", e.Kind(), tid, r.TID)
		}
	case wal.TypeSetXmax:
		if err := e.SetXmax(TupleID(r.TID), txn.XID(r.Xid)); err != nil {
			return fmt.Errorf("storage: replay setxmax tid %d: %w", r.TID, err)
		}
	case wal.TypeClearXmax:
		e.ClearXmax(TupleID(r.TID), txn.XID(r.Xid))
	case wal.TypeLinkUpdate:
		e.LinkUpdate(TupleID(r.TID), TupleID(r.TID2))
	case wal.TypeTruncate:
		e.Truncate()
	case wal.TypePrune:
		// Only the heap reclaims in place; the append-optimized engines
		// never emit prune records, so there is nothing to replay there.
		h, ok := e.(*Heap)
		if !ok {
			break
		}
		return h.replayPrune(r.TIDs)
	default:
		return fmt.Errorf("storage: %v is not a storage record", r.Type)
	}
	return nil
}
