package storage

import (
	"fmt"
	"sync"

	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// Heap is the row-oriented MVCC engine: every INSERT or UPDATE appends a new
// version stamped with the writing transaction; DELETE and UPDATE stamp the
// old version's xmax. Visibility is decided by the caller from the headers.
//
// Suitable for frequent updates and deletes (paper Fig. 5), i.e. the OLTP
// side of an HTAP workload.
type Heap struct {
	mu sync.RWMutex
	// pages hold the version slots, heapPageSlots per page: TupleID t lives
	// in slot t-1. A full page whose every slot Prune reclaimed is released
	// (nil); its TupleIDs stay retired until a Truncate restarts them.
	pages []*heapPage
	// n counts the slots ever allocated (the highest TupleID).
	n int
	// live counts the slots still holding a version (not reclaimed by
	// Prune): RowCount's answer.
	live int

	// zones lazily summarizes full zonePageRows pages for predicated scans.
	// Stored row values at an offset never change (UPDATE appends a new
	// version, Prune only nils rows out), so built summaries stay
	// conservative; only Truncate resets them.
	zones lazyZones

	// wal, when attached, receives one record per mutation, appended under
	// h.mu so the log order equals the mutation order.
	wal walRef
}

// heapPageSlots is the number of version slots per heap page; a heap page
// is also a zone-map page.
const heapPageSlots = zonePageRows

type heapPage struct {
	tups []heapTuple
	live int
}

// SetWAL implements WALLogged.
func (h *Heap) SetWAL(l *wal.Log, leaf uint64) {
	h.mu.Lock()
	h.wal = walRef{log: l, leaf: leaf}
	h.mu.Unlock()
}

type heapTuple struct {
	xmin      txn.XID
	xmax      txn.XID
	updatedTo TupleID
	row       types.Row
}

// NewHeap returns an empty heap table.
func NewHeap() *Heap { return &Heap{} }

// Kind implements Engine.
func (h *Heap) Kind() string { return "heap" }

// slot returns slot i (TupleID i+1), or nil when it is out of range or on a
// released page. Callers hold h.mu.
func (h *Heap) slot(i int) *heapTuple {
	if i < 0 || i >= h.n {
		return nil
	}
	p := h.pages[i/heapPageSlots]
	if p == nil {
		return nil
	}
	return &p.tups[i%heapPageSlots]
}

// Insert implements Engine.
func (h *Heap) Insert(x txn.XID, row types.Row) TupleID {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n%heapPageSlots == 0 {
		// The first page grows with the table; later ones are allocated
		// whole, so growth never copies earlier pages.
		c := heapPageSlots
		if len(h.pages) == 0 {
			c = 8
		}
		h.pages = append(h.pages, &heapPage{tups: make([]heapTuple, 0, c)})
	}
	p := h.pages[len(h.pages)-1]
	p.tups = append(p.tups, heapTuple{xmin: x, row: row.Clone()})
	p.live++
	h.live++
	h.n++
	tid := TupleID(h.n) // 1-based; 0 is invalid
	h.wal.logInsert(tid, x, row)
	return tid
}

// ForEach implements Engine.
func (h *Heap) ForEach(fn func(hdr Header, row types.Row) bool) {
	h.mu.RLock()
	n := h.n
	h.mu.RUnlock()
	for i := 0; i < n; i++ {
		h.mu.RLock()
		var t heapTuple
		if s := h.slot(i); s != nil {
			t = *s
		}
		h.mu.RUnlock()
		if t.row == nil {
			continue // reclaimed slot
		}
		hdr := Header{TID: TupleID(i + 1), Xmin: t.xmin, Xmax: t.xmax, UpdatedTo: t.updatedTo}
		if !fn(hdr, t.row) {
			return
		}
	}
}

// Fetch implements Engine.
func (h *Heap) Fetch(tid TupleID) (Header, types.Row, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	t := h.slot(int(tid) - 1)
	if t == nil || t.row == nil {
		return Header{}, nil, false
	}
	return Header{TID: tid, Xmin: t.xmin, Xmax: t.xmax, UpdatedTo: t.updatedTo}, t.row, true
}

// SetXmax implements Engine.
func (h *Heap) SetXmax(tid TupleID, x txn.XID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := int(tid) - 1
	if i < 0 || i >= h.n {
		return ErrNotSupported
	}
	t := h.slot(i)
	if t == nil || t.row == nil {
		return ErrReclaimed
	}
	if t.xmax != txn.InvalidXID && t.xmax != x {
		return &ErrConcurrentWrite{Holder: t.xmax}
	}
	t.xmax = x
	h.wal.logOp(wal.TypeSetXmax, tid, x, 0)
	return nil
}

// ClearXmax implements Engine.
func (h *Heap) ClearXmax(tid TupleID, prev txn.XID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.slot(int(tid) - 1)
	if t != nil && t.xmax == prev {
		t.xmax = txn.InvalidXID
		t.updatedTo = InvalidTupleID
		h.wal.logOp(wal.TypeClearXmax, tid, prev, 0)
	}
}

// LinkUpdate implements Engine.
func (h *Heap) LinkUpdate(old, new TupleID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if t := h.slot(int(old) - 1); t != nil {
		t.updatedTo = new
		h.wal.logOp(wal.TypeLinkUpdate, old, 0, new)
	}
}

// Truncate implements Engine.
func (h *Heap) Truncate() {
	h.mu.Lock()
	h.pages = nil
	h.n = 0
	h.live = 0
	h.wal.logOp(wal.TypeTruncate, 0, 0, 0)
	h.mu.Unlock()
	h.zones.reset()
}

// ResetDerived implements DerivedResettable: drops the lazy zone-map pages
// (promotion must not trust summaries built while the engine was a mirror).
func (h *Heap) ResetDerived() { h.zones.reset() }

// ZonePagesBuilt counts materialized lazy zone pages (tests).
func (h *Heap) ZonePagesBuilt() int { return h.zones.built() }

// pageZone builds (or fetches) the zone map of one full page.
func (h *Heap) pageZone(page int) *ZoneMap {
	return h.zones.zone(page, func() *ZoneMap {
		h.mu.RLock()
		defer h.mu.RUnlock()
		var tups []heapTuple
		if p := h.pages[page]; p != nil {
			tups = p.tups
		}
		ncols := 0
		for _, t := range tups {
			if t.row != nil && len(t.row) > ncols {
				ncols = len(t.row)
			}
		}
		z := newZoneBuilder(ncols)
		for _, t := range tups {
			if t.row != nil {
				z.absorb(t.row)
			}
		}
		return z
	})
}

// RowCount implements Engine: stored versions, not counting reclaimed slots.
func (h *Heap) RowCount() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.live
}

// Bytes implements Engine.
func (h *Heap) Bytes() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var n int64
	for _, p := range h.pages {
		if p == nil {
			continue
		}
		for i := range p.tups {
			n += p.tups[i].row.Size() + 32 // header overhead
		}
	}
	return n
}

// Prune reclaims the versions dead — like PostgreSQL's heap_page_prune, the
// caller has established that no live or future snapshot can see them — and
// returns how many it reclaimed. The caller decided from headers it read
// earlier without the lock, so a slot is reclaimed only if it still holds
// that version: a TRUNCATE in between restarts TupleIDs, and a version
// inserted after it into the same slot has a newer xmin. A reclaimed slot
// frees its payload; ForEach and Fetch skip it. The reclaimed tids are
// WAL-logged as one Prune record.
//
// unindex, when not nil, receives the reclaimed versions' rows and tids to
// drop their index entries. It runs before Prune releases the heap lock, so
// no insert can reuse one of those tids — and have its own index entry
// dropped — in between.
func (h *Heap) Prune(dead []Header, unindex func(rows []types.Row, tids []TupleID)) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	var rows []types.Row
	var tids []TupleID
	for _, d := range dead {
		t := h.slot(int(d.TID) - 1)
		if t == nil || t.row == nil || t.xmin != d.Xmin {
			continue
		}
		rows = append(rows, h.reclaim(d.TID))
		tids = append(tids, d.TID)
	}
	if len(tids) == 0 {
		return 0
	}
	if h.wal.enabled() {
		logged := make([]uint64, len(tids))
		for i, tid := range tids {
			logged[i] = uint64(tid)
		}
		h.wal.logPrune(logged)
	}
	if unindex != nil {
		unindex(rows, tids)
	}
	return len(tids)
}

// replayPrune applies a Prune record. The primary logged only slots it
// reclaimed, and the replica replays in log order, so every tid must still
// hold a version here.
func (h *Heap) replayPrune(tids []uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, tid := range tids {
		if t := h.slot(int(tid) - 1); t == nil || t.row == nil {
			return fmt.Errorf("storage: replay of prune found tid %d already reclaimed or missing", tid)
		}
		h.reclaim(TupleID(tid))
	}
	if h.wal.enabled() {
		h.wal.logPrune(tids)
	}
	return nil
}

// reclaim frees slot tid, which holds a version, and returns its row; a
// full page with no version left is released. Callers hold h.mu.
func (h *Heap) reclaim(tid TupleID) types.Row {
	i := int(tid) - 1
	t := h.slot(i)
	row := t.row
	*t = heapTuple{}
	h.live--
	p := h.pages[i/heapPageSlots]
	if p.live--; p.live == 0 && len(p.tups) == heapPageSlots {
		h.pages[i/heapPageSlots] = nil
	}
	return row
}
