// Package txn implements per-segment local transaction management: local
// transaction identifiers, a commit log (clog), local snapshots, and the MVCC
// visibility rules. Distributed coordination (distributed xids, snapshots and
// the commit protocols) lives in internal/dtm and plugs into this package via
// the DistributedView interface.
package txn

import (
	"fmt"
	"sync"
)

// XID is a local transaction identifier, unique within one segment. XID 0 is
// invalid ("no transaction").
type XID uint64

// InvalidXID is the zero transaction id.
const InvalidXID XID = 0

// Status is a transaction's clog state.
type Status uint8

// Transaction states. The zero Status is the clog's empty slot: an xid
// this manager never began.
const (
	statusUnknown Status = iota
	// StatusInProgress means the transaction has not finished.
	StatusInProgress
	// StatusCommitted means the transaction committed.
	StatusCommitted
	// StatusAborted means the transaction rolled back.
	StatusAborted
	// StatusPrepared means the transaction finished phase one of 2PC and is
	// awaiting the coordinator's decision.
	StatusPrepared
)

func (s Status) String() string {
	switch s {
	case StatusInProgress:
		return "in-progress"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	case StatusPrepared:
		return "prepared"
	default:
		return "unknown"
	}
}

// Snapshot is a local MVCC snapshot: transactions with xid < Xmin are
// finished; xid >= Xmax had not started; xids in InProgress were running at
// snapshot time.
type Snapshot struct {
	Xmin       XID
	Xmax       XID
	InProgress map[XID]struct{}
}

// Sees reports whether the snapshot considers xid's effects potentially
// visible (i.e. xid is not in-progress from the snapshot's point of view and
// started before the snapshot). The caller still must check the clog for
// commit/abort.
func (s *Snapshot) Sees(xid XID) bool {
	if xid >= s.Xmax {
		return false
	}
	if _, running := s.InProgress[xid]; running {
		return false
	}
	return true
}

// Manager is a segment's transaction manager.
type Manager struct {
	mu      sync.Mutex
	nextXID XID
	// clog is the commit log, indexed by xid. Xids are dense, so a slice
	// costs one byte per transaction; slots BeginReplay skipped stay
	// statusUnknown.
	clog []Status
	// running holds currently in-progress or prepared xids.
	running map[XID]struct{}
}

// NewManager returns a manager whose first transaction will get XID 1.
func NewManager() *Manager {
	return &Manager{
		nextXID: 1,
		running: make(map[XID]struct{}),
	}
}

// Begin allocates a new local transaction.
func (m *Manager) Begin() XID {
	m.mu.Lock()
	defer m.mu.Unlock()
	xid := m.nextXID
	m.nextXID++
	m.set(xid, StatusInProgress)
	m.running[xid] = struct{}{}
	return xid
}

// get reads xid's clog slot; an xid past the end is unknown.
func (m *Manager) get(xid XID) Status {
	if xid < XID(len(m.clog)) {
		return m.clog[xid]
	}
	return statusUnknown
}

// set writes xid's clog slot, growing the clog to reach it.
func (m *Manager) set(xid XID, st Status) {
	for XID(len(m.clog)) <= xid {
		m.clog = append(m.clog, statusUnknown)
	}
	m.clog[xid] = st
}

// state reads xid's clog slot for a state transition. An unknown xid
// transitions like an in-progress one, so a replayed commit or abort
// applies even when its begin was not seen.
func (m *Manager) state(xid XID) Status {
	if st := m.get(xid); st != statusUnknown {
		return st
	}
	return StatusInProgress
}

// Status returns the clog state of xid.
func (m *Manager) Status(xid XID) Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st := m.get(xid); st != statusUnknown {
		return st
	}
	// Unknown xids are treated as aborted; the clog here is never
	// truncated below a live reference in this in-memory engine.
	return StatusAborted
}

// Prepare transitions xid to the prepared state (2PC phase one).
func (m *Manager) Prepare(xid XID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st := m.state(xid); st != StatusInProgress {
		return fmt.Errorf("txn: cannot prepare %d in state %s", xid, st)
	}
	m.set(xid, StatusPrepared)
	return nil
}

// Commit marks xid committed and removes it from the running set.
func (m *Manager) Commit(xid XID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state(xid)
	if st != StatusInProgress && st != StatusPrepared {
		return fmt.Errorf("txn: cannot commit %d in state %s", xid, st)
	}
	m.set(xid, StatusCommitted)
	delete(m.running, xid)
	return nil
}

// Abort marks xid aborted and removes it from the running set.
func (m *Manager) Abort(xid XID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state(xid)
	if st != StatusInProgress && st != StatusPrepared {
		return fmt.Errorf("txn: cannot abort %d in state %s", xid, st)
	}
	m.set(xid, StatusAborted)
	delete(m.running, xid)
	return nil
}

// BeginReplay registers xid as in-progress with its logged identity — the
// WAL-replay counterpart of Begin. Mirrors use it so their local xid space
// is identical to the primary's even when the primary allocated xids that
// never reached the log (read-only transactions are not fully logged).
func (m *Manager) BeginReplay(xid XID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.get(xid) != statusUnknown {
		return
	}
	m.set(xid, StatusInProgress)
	m.running[xid] = struct{}{}
	if xid >= m.nextXID {
		m.nextXID = xid + 1
	}
}

// AbortInFlight is crash recovery's first step: every in-progress (not
// prepared) transaction is aborted — its writes can never become visible on
// the recovered copy. Prepared transactions are left alone; they are
// in-doubt and resolved against the coordinator's commit records. It
// returns the aborted xids.
func (m *Manager) AbortInFlight() []XID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var aborted []XID
	for xid := range m.running {
		if m.clog[xid] == StatusInProgress {
			m.clog[xid] = StatusAborted
			delete(m.running, xid)
			aborted = append(aborted, xid)
		}
	}
	return aborted
}

// PreparedXIDs returns the transactions sitting in the prepared state — the
// in-doubt set a recovered segment must resolve.
func (m *Manager) PreparedXIDs() []XID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []XID
	for xid := range m.running {
		if m.clog[xid] == StatusPrepared {
			out = append(out, xid)
		}
	}
	return out
}

// IsRunning reports whether xid is in-progress or prepared.
func (m *Manager) IsRunning(xid XID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.running[xid]
	return ok
}

// TakeSnapshot captures the local in-progress set.
func (m *Manager) TakeSnapshot() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := &Snapshot{
		Xmax:       m.nextXID,
		InProgress: make(map[XID]struct{}, len(m.running)),
	}
	snap.Xmin = m.nextXID
	for xid := range m.running {
		snap.InProgress[xid] = struct{}{}
		if xid < snap.Xmin {
			snap.Xmin = xid
		}
	}
	return snap
}

// OldestRunning returns the smallest in-progress xid, or nextXID when idle.
// It is the truncation horizon for the local↔distributed xid mapping.
func (m *Manager) OldestRunning() XID {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldest := m.nextXID
	for xid := range m.running {
		if xid < oldest {
			oldest = xid
		}
	}
	return oldest
}

// RunningCount returns the number of live transactions (for metrics).
func (m *Manager) RunningCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.running)
}
