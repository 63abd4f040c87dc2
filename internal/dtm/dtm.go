// Package dtm implements distributed transaction management (paper §5):
// coordinator-assigned distributed transaction identifiers, distributed
// snapshots (the in-progress dxid list plus the largest committed dxid), the
// two-phase commit protocol, and the one-phase commit optimization for
// transactions that write exactly one segment.
package dtm

import (
	"sync"
	"sync/atomic"
)

// DXID is a distributed transaction identifier: a monotonically increasing
// integer assigned by the coordinator (paper §5). 0 is invalid.
type DXID uint64

// InvalidDXID is the zero distributed xid.
const InvalidDXID DXID = 0

// DistSnapshot is a distributed snapshot: every dxid in InProgress was
// running when the snapshot was created; MaxCommitted is the largest dxid
// committed at creation time; Xmax is the next dxid to be assigned; Xmin is
// the smallest dxid the snapshot sees as running (Xmax when none was), so
// every dxid below it had finished.
type DistSnapshot struct {
	Xmin         DXID
	Xmax         DXID
	MaxCommitted DXID
	InProgress   map[DXID]struct{}
}

// Sees reports whether the snapshot considers dxid committed-before-snapshot.
func (s *DistSnapshot) Sees(dxid DXID) bool {
	if dxid == InvalidDXID || dxid >= s.Xmax {
		return false
	}
	if _, running := s.InProgress[dxid]; running {
		return false
	}
	// Not in-progress and older than xmax: it completed before the snapshot.
	// Aborted transactions never reach MaxCommitted but their tuples are
	// filtered by the local clog on each segment; treating "completed" as
	// visible here is safe because visibility conjuncts with the local
	// commit status (see txn.VisibilityChecker).
	return true
}

// Coordinator is the coordinator-side distributed transaction state.
type Coordinator struct {
	mu       sync.Mutex
	nextDxid DXID
	// inProgress maps every running dxid to the Xmin of the first
	// distributed snapshot it took (InvalidDXID until it takes one). The
	// entry pins that snapshot's view until the transaction ends: read
	// committed takes a snapshot per statement, and later ones never have a
	// smaller Xmin, so the first is the one to keep.
	inProgress   map[DXID]DXID
	maxCommitted DXID
	// horizon is the oldest dxid any live or future snapshot can still see
	// as running: min over running transactions of their pinned Xmin (or
	// their own dxid when they hold no snapshot), nextDxid when idle. Every
	// dxid below it finished — committed everywhere or aborted — before any
	// live snapshot was taken. It only moves when a transaction ends, and is
	// published as one atomic so reclamation on the probe path pays a single
	// load.
	horizon atomic.Uint64
	// commitLog is the set of dxids whose two-phase commit decision was
	// durably recorded between the PREPARE and COMMIT waves. Promotion-time
	// 2PC recovery resolves an in-doubt prepared transaction by this set:
	// commit record present → commit wins; absent (and the protocol is no
	// longer running) → abort (the paper's presumed-abort resolution).
	commitLog map[DXID]struct{}
}

// NewCoordinator returns a coordinator whose first transaction gets dxid 1.
func NewCoordinator() *Coordinator {
	c := &Coordinator{
		nextDxid:   1,
		inProgress: make(map[DXID]DXID),
		commitLog:  make(map[DXID]struct{}),
	}
	c.horizon.Store(1)
	return c
}

// LogCommitRecord durably notes the commit decision for dxid (called by the
// cluster's coordinator-WAL hook between the 2PC waves).
func (c *Coordinator) LogCommitRecord(dxid DXID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.commitLog[dxid] = struct{}{}
}

// HasCommitRecord reports whether the commit decision for dxid was durably
// recorded.
func (c *Coordinator) HasCommitRecord(dxid DXID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.commitLog[dxid]
	return ok
}

// TruncateCommitLog discards commit records below the horizon (see
// Horizon): a transaction below it has fully acknowledged, so its
// outcome record reached every segment log — and therefore every mirror's
// queue — and promotion-time recovery can never need the coordinator copy
// again. Same role as XidMapping.Truncate: keep the metadata small. It
// returns the number of records removed.
func (c *Coordinator) TruncateCommitLog(horizon DXID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for d := range c.commitLog {
		if d < horizon {
			delete(c.commitLog, d)
			n++
		}
	}
	return n
}

// Begin assigns a new distributed transaction id. The horizon does not
// move: the new dxid is at least every running one and at least the horizon.
func (c *Coordinator) Begin() DXID {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.nextDxid
	c.nextDxid++
	c.inProgress[d] = InvalidDXID
	return d
}

// Snapshot captures the distributed in-progress set. Called per statement
// (read committed) by the session layer. When owner is a running
// transaction, the snapshot's Xmin is pinned under it in the same critical
// section, so the horizon cannot pass a version the snapshot can still see;
// the pin is released when owner commits or aborts. InvalidDXID takes an
// unpinned snapshot, which must not be used to read data.
func (c *Coordinator) Snapshot(owner DXID) *DistSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &DistSnapshot{
		Xmin:         c.nextDxid,
		Xmax:         c.nextDxid,
		MaxCommitted: c.maxCommitted,
		InProgress:   make(map[DXID]struct{}, len(c.inProgress)),
	}
	for d := range c.inProgress {
		s.InProgress[d] = struct{}{}
		if d < s.Xmin {
			s.Xmin = d
		}
	}
	if pin, ok := c.inProgress[owner]; ok && pin == InvalidDXID {
		c.inProgress[owner] = s.Xmin
	}
	return s
}

// MarkCommitted removes dxid from the in-progress set after the commit
// protocol fully acknowledges — for 1PC, only after "Commit OK" arrives
// (paper §5.2), so concurrent snapshots keep seeing it as running until the
// segment has durably committed.
func (c *Coordinator) MarkCommitted(dxid DXID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.end(dxid)
	if dxid > c.maxCommitted {
		c.maxCommitted = dxid
	}
}

// MarkAborted removes dxid from the in-progress set without advancing
// MaxCommitted.
func (c *Coordinator) MarkAborted(dxid DXID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.end(dxid)
}

// end drops a finished transaction and its snapshot pin, republishing the
// horizon when that entry was what held it back. Callers hold c.mu.
func (c *Coordinator) end(dxid DXID) {
	pin, ok := c.inProgress[dxid]
	if !ok {
		return
	}
	delete(c.inProgress, dxid)
	if pin == InvalidDXID {
		pin = dxid
	}
	if uint64(pin) != c.horizon.Load() {
		return // another entry holds the horizon at least as far back
	}
	h := c.nextDxid
	for d, p := range c.inProgress {
		if p == InvalidDXID {
			p = d
		}
		h = min(h, p)
	}
	c.horizon.Store(uint64(h))
}

// Horizon returns the oldest dxid a live or future distributed snapshot can
// still see as running (see Coordinator.horizon). A version deleted by a
// committed transaction below it is invisible to every snapshot; segments
// reclaim such versions and truncate their xid mappings below it (paper
// §5.1).
func (c *Coordinator) Horizon() DXID { return DXID(c.horizon.Load()) }

// HorizonAge returns how many dxids were assigned at or after the horizon:
// how far reclamation lags the newest transaction.
func (c *Coordinator) HorizonAge() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(c.nextDxid) - int64(c.horizon.Load())
}

// IsInProgress reports whether dxid is still in the coordinator's
// in-progress set (i.e. its commit protocol has not fully acknowledged).
func (c *Coordinator) IsInProgress(dxid DXID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.inProgress[dxid]
	return ok
}

// InProgressCount returns the number of live distributed transactions.
func (c *Coordinator) InProgressCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inProgress)
}
