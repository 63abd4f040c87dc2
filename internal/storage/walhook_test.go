package storage

import (
	"testing"

	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// driveEngine runs a fixed mutation history against e with logging attached.
func driveEngine(t *testing.T, e Engine) {
	t.Helper()
	var tids []TupleID
	for i := 0; i < 6000; i++ { // crosses AO-column seal and zone-page bounds
		tid := e.Insert(txn.XID(1+i%3), types.Row{
			types.NewInt(int64(i)), types.NewText("r"), types.NewFloat(float64(i) / 2),
		})
		tids = append(tids, tid)
	}
	if err := e.SetXmax(tids[10], 9); err != nil {
		t.Fatal(err)
	}
	e.ClearXmax(tids[10], 9)
	if err := e.SetXmax(tids[11], 5); err != nil {
		t.Fatal(err)
	}
	e.LinkUpdate(tids[11], tids[12])
	e.Truncate()
	for i := 0; i < 100; i++ {
		e.Insert(4, types.Row{types.NewInt(int64(-i)), types.Null, types.NewFloat(0)})
	}
	if err := e.SetXmax(3, 6); err != nil {
		t.Fatal(err)
	}
	// Reclaim a few versions, one of them twice (the second is a no-op and
	// logs nothing). Only the heap prunes in place; for the append-optimized
	// engines a prune record is a replay no-op, appended by the caller.
	if h, ok := e.(*Heap); ok {
		h.Prune(versions(4, 3, 7, 8), nil)
		h.Prune(versions(4, 8, 9), nil)
	}
}

func engineState(e Engine) []struct {
	h   Header
	row types.Row
} {
	var out []struct {
		h   Header
		row types.Row
	}
	e.ForEach(func(h Header, row types.Row) bool {
		out = append(out, struct {
			h   Header
			row types.Row
		}{h, row.Clone()})
		return true
	})
	return out
}

func TestWALReplayReproducesEngines(t *testing.T) {
	cases := []struct {
		name  string
		fresh func() Engine
	}{
		{"heap", func() Engine { return NewHeap() }},
		{"ao_row", func() Engine { return NewAORow() }},
		{"ao_column", func() Engine { return NewAOColumn(3, CompressionRLEDelta) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := wal.New()
			primary := tc.fresh()
			primary.(WALLogged).SetWAL(log, 77)
			driveEngine(t, primary)
			if _, isHeap := primary.(*Heap); !isHeap {
				log.Append(&wal.Record{Type: wal.TypePrune, Leaf: 77, TIDs: []uint64{3, 7}})
			}
			pruned := 0

			replica := tc.fresh()
			if err := log.ReplayFrom(1, func(r wal.Record) error {
				if r.Leaf != 77 {
					t.Fatalf("record leaf %d", r.Leaf)
				}
				if r.Type == wal.TypePrune {
					pruned += len(r.TIDs)
				}
				return ApplyRecord(replica, r)
			}); err != nil {
				t.Fatal(err)
			}

			want, got := engineState(primary), engineState(replica)
			if len(want) != len(got) {
				t.Fatalf("replica has %d versions, primary %d", len(got), len(want))
			}
			for i := range want {
				if want[i].h != got[i].h {
					t.Fatalf("version %d header: got %+v want %+v", i, got[i].h, want[i].h)
				}
				if len(want[i].row) != len(got[i].row) {
					t.Fatalf("version %d row arity differs", i)
				}
				for c := range want[i].row {
					if !types.Equal(want[i].row[c], got[i].row[c]) ||
						want[i].row[c].Kind() != got[i].row[c].Kind() {
						t.Fatalf("version %d col %d: got %v want %v", i, c, got[i].row[c], want[i].row[c])
					}
				}
			}
			if pruned != 4 && pruned != 2 {
				t.Fatalf("replayed %d pruned tids, want 4 (heap) or 2 (append-optimized)", pruned)
			}
			if primary.RowCount() != replica.RowCount() {
				t.Fatalf("row counts differ: %d vs %d", primary.RowCount(), replica.RowCount())
			}
			if primary.RowCount() != len(want) {
				t.Fatalf("RowCount %d, but %d versions are stored", primary.RowCount(), len(want))
			}
		})
	}
}

func TestApplyRecordDetectsTIDDivergence(t *testing.T) {
	e := NewHeap()
	e.Insert(1, types.Row{types.NewInt(1)})
	// A replayed insert claiming tid 5 cannot match the engine's next tid 2.
	err := ApplyRecord(e, wal.Record{Type: wal.TypeInsert, Xid: 1, TID: 5, Row: types.Row{types.NewInt(2)}})
	if err == nil {
		t.Fatal("diverging tid accepted")
	}
}

func TestResetDerivedDropsZonePages(t *testing.T) {
	h := NewHeap()
	for i := 0; i < 3000; i++ {
		h.Insert(1, types.Row{types.NewInt(int64(i))})
	}
	// Build lazy zone pages via a predicated scan.
	pred := &ZonePredicate{Conjuncts: []PredConjunct{{Col: 0, Op: "=", Val: types.NewInt(1)}}}
	ScanBatches(h, &ScanOpts{Pred: pred}, 256, func(hdrs []Header, rows []types.Row) bool { return true })
	if h.ZonePagesBuilt() == 0 {
		t.Fatal("no zone pages built by predicated scan")
	}
	h.ResetDerived()
	if n := h.ZonePagesBuilt(); n != 0 {
		t.Fatalf("%d zone pages survive ResetDerived", n)
	}
}
