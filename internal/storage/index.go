package storage

import (
	"slices"
	"sync"

	"repro/internal/types"
)

// HashIndex is a secondary equality index mapping key-column hashes to
// candidate tuple ids; lookups re-check the key against fetched rows, so
// hash collisions are harmless. Greenplum's OLTP drill-through queries
// ("use indexes for drill through", paper Fig. 5) go through this path.
type HashIndex struct {
	mu      sync.RWMutex
	keyCols []int
	buckets map[uint64][]TupleID
}

// NewHashIndex returns an index over keyCols (schema offsets).
func NewHashIndex(keyCols []int) *HashIndex {
	return &HashIndex{
		keyCols: append([]int(nil), keyCols...),
		buckets: make(map[uint64][]TupleID),
	}
}

// KeyCols returns the indexed schema offsets.
func (ix *HashIndex) KeyCols() []int { return ix.keyCols }

// Insert adds a (row, tid) pair.
func (ix *HashIndex) Insert(row types.Row, tid TupleID) {
	h := row.Hash(ix.keyCols)
	ix.mu.Lock()
	ix.buckets[h] = append(ix.buckets[h], tid)
	ix.mu.Unlock()
}

// Lookup returns candidate tuple ids whose key hash matches the given key
// values (one datum per key column, in keyCols order).
func (ix *HashIndex) Lookup(key []types.Datum) []TupleID {
	cols := make([]int, len(key))
	for i := range cols {
		cols[i] = i
	}
	h := types.Row(key).Hash(cols)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]TupleID, len(ix.buckets[h]))
	copy(out, ix.buckets[h])
	return out
}

// Matches reports whether row's key columns equal key.
func (ix *HashIndex) Matches(row types.Row, key []types.Datum) bool {
	if len(key) != len(ix.keyCols) {
		return false
	}
	for i, c := range ix.keyCols {
		if types.Compare(row[c], key[i]) != 0 {
			return false
		}
	}
	return true
}

// Delete removes the entries of reclaimed versions: tids[i] was indexed
// under rows[i]. A tid names one version at a time (a TRUNCATE empties the
// heap and its indexes together), so only those entries go. It returns the
// number of entries removed.
func (ix *HashIndex) Delete(rows []types.Row, tids []TupleID) int {
	gone := slices.Clone(tids)
	slices.Sort(gone)
	var hashes []uint64 // distinct buckets; usually one
	for _, row := range rows {
		if h := row.Hash(ix.keyCols); !slices.Contains(hashes, h) {
			hashes = append(hashes, h)
		}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n := 0
	for _, h := range hashes {
		b := ix.buckets[h]
		kept := b[:0]
		for _, tid := range b {
			if _, found := slices.BinarySearch(gone, tid); found {
				n++
				continue
			}
			kept = append(kept, tid)
		}
		switch {
		case len(kept) == 0:
			delete(ix.buckets, h)
		case cap(kept) > 4*len(kept)+8:
			ix.buckets[h] = slices.Clone(kept) // release a once-bloated bucket
		default:
			ix.buckets[h] = kept
		}
	}
	return n
}

// Truncate discards all entries.
func (ix *HashIndex) Truncate() {
	ix.mu.Lock()
	ix.buckets = make(map[uint64][]TupleID)
	ix.mu.Unlock()
}

// Len returns the number of indexed entries (diagnostics).
func (ix *HashIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for _, b := range ix.buckets {
		n += len(b)
	}
	return n
}
