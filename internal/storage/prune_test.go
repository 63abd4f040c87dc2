package storage

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// hotKey drives the probe-and-prune protocol the cluster's index probes use
// against one heap and one index: a probe fetches every version in the
// key's bucket, reclaims those whose deleter committed (Heap.Prune, which
// hands their rows to HashIndex.Delete) and reports the current version.
// Writers commit the instant they finish, so "deleter committed" stands in
// for "deleter committed below the horizon".
type hotKey struct {
	h         *Heap
	ix        *HashIndex
	key       []types.Datum
	committed sync.Map // txn.XID → struct{}
	nextXID   atomic.Uint64
}

func (k *hotKey) probe() (cur TupleID, row types.Row) {
	var dead []Header
	for _, tid := range k.ix.Lookup(k.key) {
		hdr, r, ok := k.h.Fetch(tid)
		if !ok {
			continue
		}
		if hdr.Xmax != txn.InvalidXID {
			if _, done := k.committed.Load(hdr.Xmax); done {
				dead = append(dead, hdr)
			}
			continue
		}
		if _, done := k.committed.Load(hdr.Xmin); done {
			cur, row = tid, r
		}
	}
	k.h.Prune(dead, func(rows []types.Row, tids []TupleID) { k.ix.Delete(rows, tids) })
	return cur, row
}

// fetchable counts the key's index entries whose heap version is still
// stored. An entry whose version a concurrent probe just reclaimed, but has
// not yet dropped from the index, is not counted: no probe fetches it.
func (k *hotKey) fetchable() int {
	n := 0
	for _, tid := range k.ix.Lookup(k.key) {
		if _, _, ok := k.h.Fetch(tid); ok {
			n++
		}
	}
	return n
}

// update replaces the current version, retrying while another writer holds
// it; it returns once its own write committed.
func (k *hotKey) update() error {
	x := txn.XID(k.nextXID.Add(1))
	for {
		cur, row := k.probe()
		if cur == InvalidTupleID {
			continue // the current version's writer has not committed yet
		}
		if err := k.h.SetXmax(cur, x); err != nil {
			// Another writer stamped the version first — and, since this
			// model commits at once, it may already be reclaimed.
			var conc *ErrConcurrentWrite
			if !errors.As(err, &conc) && !errors.Is(err, ErrReclaimed) {
				return err
			}
			continue
		}
		next := types.Row{row[0], types.NewInt(row[1].Int() + 1)}
		tid := k.h.Insert(x, next)
		k.ix.Insert(next, tid)
		k.h.LinkUpdate(cur, tid)
		k.committed.Store(x, struct{}{})
		return nil
	}
}

// TestConcurrentProbesKeepHotBucketBounded: writers and read-only probes
// hammer one key while every probe prunes what it finds dead. The key's
// bucket never holds more versions than its live version plus one per
// writer, however many updates run; at rest it holds exactly the live
// version, and replaying the WAL reproduces the pruned heap.
//
// The bound: a writer accounts for at most one extra version at a time.
// From its insert to its commit that is its in-flight new version. From
// its commit until its next probe has pruned, it is the version its commit
// superseded; that probe fetches the version after the deleter committed,
// so it reclaims it before the writer stamps anything again.
func TestConcurrentProbesKeepHotBucketBounded(t *testing.T) {
	log := wal.New()
	k := &hotKey{h: NewHeap(), ix: NewHashIndex([]int{0}), key: []types.Datum{types.NewInt(7)}}
	k.h.SetWAL(log, 1)
	k.nextXID.Store(1)
	first := types.Row{types.NewInt(7), types.NewInt(0)}
	k.ix.Insert(first, k.h.Insert(1, first))
	k.committed.Store(txn.XID(1), struct{}{})

	const writers, readers, perWriter = 4, 2, 300
	var wg, rwg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < readers; i++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k.probe()
				if n, bound := k.fetchable(), 1+writers; n > bound {
					t.Errorf("bucket holds %d versions, bound %d", n, bound)
				}
			}
		}()
	}
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				if err := k.update(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()

	cur, row := k.probe()
	if cur == InvalidTupleID || row[1].Int() != writers*perWriter {
		t.Fatalf("live version %d holds %v, want counter %d", cur, row, writers*perWriter)
	}
	if n := len(k.ix.Lookup(k.key)); n != 1 {
		t.Fatalf("bucket holds %d entries at rest, want 1", n)
	}
	if n := k.h.RowCount(); n != 1 {
		t.Fatalf("heap RowCount %d at rest, want 1", n)
	}

	replica := NewHeap()
	if err := log.ReplayFrom(1, func(r wal.Record) error { return ApplyRecord(replica, r) }); err != nil {
		t.Fatal(err)
	}
	if replica.RowCount() != 1 {
		t.Fatalf("replica RowCount %d, want 1", replica.RowCount())
	}
	if _, got, ok := replica.Fetch(cur); !ok || got[1].Int() != row[1].Int() {
		t.Fatalf("replica lost the live version: %v %v", got, ok)
	}
}

// TestReplayPruneOfReclaimedTIDFails: a prune record naming a slot the
// replica already reclaimed (or never had) means log and engine disagree.
func TestReplayPruneOfReclaimedTIDFails(t *testing.T) {
	h := NewHeap()
	h.Insert(1, types.Row{types.NewInt(1)})
	rec := wal.Record{Type: wal.TypePrune, TIDs: []uint64{1}}
	if err := ApplyRecord(h, rec); err != nil {
		t.Fatal(err)
	}
	if err := ApplyRecord(h, rec); err == nil {
		t.Fatal("replaying a prune of an already reclaimed tid succeeded")
	}
	if err := ApplyRecord(h, wal.Record{Type: wal.TypePrune, TIDs: []uint64{5}}); err == nil {
		t.Fatal("replaying a prune of a missing tid succeeded")
	}
}

// TestPruneReleasesEmptyPages: a full page whose every version was
// reclaimed is released, the partly filled tail page never is, and scans,
// fetches and new inserts are unaffected.
func TestPruneReleasesEmptyPages(t *testing.T) {
	h := NewHeap()
	var page0, tail []TupleID
	for i := 0; i < heapPageSlots+10; i++ {
		tid := h.Insert(1, types.Row{types.NewInt(int64(i))})
		if i < heapPageSlots {
			page0 = append(page0, tid)
		} else {
			tail = append(tail, tid)
		}
	}
	h.Prune(versions(1, page0[:heapPageSlots-1]...), nil)
	if h.pages[0] == nil {
		t.Fatal("page released while one version is still live")
	}
	h.Prune(versions(1, page0[heapPageSlots-1:]...), nil)
	if h.pages[0] != nil {
		t.Fatal("fully reclaimed page kept")
	}
	h.Prune(versions(1, tail...), nil)
	if h.pages[1] == nil {
		t.Fatal("tail page released while it still takes inserts")
	}
	if _, _, ok := h.Fetch(page0[5]); ok {
		t.Fatal("fetched a version on a released page")
	}
	if err := h.SetXmax(page0[5], 2); !errors.Is(err, ErrReclaimed) {
		t.Fatalf("SetXmax on a released page: %v", err)
	}
	tid := h.Insert(1, types.Row{types.NewInt(-1)})
	if want := TupleID(heapPageSlots + 11); tid != want {
		t.Fatalf("insert after release got tid %d, want %d", tid, want)
	}
	n := 0
	h.ForEach(func(Header, types.Row) bool { n++; return true })
	rows, _ := scanWith(h, eqPred(0, -1))
	if n != 1 || h.RowCount() != 1 || len(rows) != 1 {
		t.Fatalf("after release: ForEach %d, RowCount %d, scan %d; want 1 each", n, h.RowCount(), len(rows))
	}
}
