package cluster

import (
	"context"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dtm"
	"repro/internal/plan"
	"repro/internal/types"
)

// mkIndexedTable is mkTable plus a hash index on column a.
func mkIndexedTable(t *testing.T, c *Cluster, name string) *catalog.Table {
	t.Helper()
	tab := mkTable(t, c, name)
	lt := c.BeginTxn()
	if err := c.ApplyCreateIndex(context.Background(), lt, name, &catalog.Index{Name: name + "_a", Table: name, Columns: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CommitTxn(lt); err != nil {
		t.Fatal(err)
	}
	return tab
}

func keyEq(key int64) plan.Expr {
	return &plan.BinOp{Op: "=", Left: &plan.ColRef{Idx: 0}, Right: &plan.Const{Val: types.NewInt(key)}}
}

// runUpdateKey sets b = val on the row a = key inside lt (an index probe).
func runUpdateKey(t *testing.T, c *Cluster, lt *LiveTxn, tab *catalog.Table, key, val int64) {
	t.Helper()
	up := &plan.UpdatePlan{Table: tab, Filter: keyEq(key), SetCols: []int{1},
		SetExprs: []plan.Expr{&plan.Const{Val: types.NewInt(val)}}}
	if n, err := c.RunUpdate(context.Background(), lt, c.TxnSnapshot(lt), up, -1, nil); err != nil || n != 1 {
		t.Fatalf("update a=%d: %d rows, %v", key, n, err)
	}
}

// updateKey runs runUpdateKey in its own committed transaction.
func updateKey(t *testing.T, c *Cluster, tab *catalog.Table, key, val int64) {
	t.Helper()
	lt := c.BeginTxn()
	runUpdateKey(t, c, lt, tab, key, val)
	if _, err := c.CommitTxn(lt); err != nil {
		t.Fatal(err)
	}
}

// readKey returns b of every row a = key that snap sees, once through a
// full scan and once through the index.
func readKey(t *testing.T, c *Cluster, lt *LiveTxn, snap *dtm.DistSnapshot, tab *catalog.Table, key int64) (scan, index []int64) {
	t.Helper()
	for _, leaf := range []plan.Node{
		plan.NewScan(tab, []catalog.TableID{tab.ID}, keyEq(key)),
		&plan.IndexScan{Table: tab, Index: tab.Indexes[0], KeyVals: []plan.Expr{&plan.Const{Val: types.NewInt(key)}}},
	} {
		root := &plan.Motion{Child: leaf, Type: plan.MotionGather}
		pl := &plan.Planned{Root: root, DirectSegment: -1}
		plan.CutSlices(root)
		rows, _, err := c.RunSelect(context.Background(), lt, snap, pl, nil)
		if err != nil {
			t.Fatal(err)
		}
		var vals []int64
		for _, r := range rows {
			vals = append(vals, r[1].Int())
		}
		if _, ok := leaf.(*plan.Scan); ok {
			scan = vals
		} else {
			index = vals
		}
	}
	return scan, index
}

// pinnedReader sets up the horizon scenario: row a=1 holds b=0; updater U
// sets b=1 while reader R takes its distributed snapshot; then U commits.
// R's snapshot still sees U as running, so it must keep seeing b=0.
func pinnedReader(t *testing.T, c *Cluster, tab *catalog.Table) (*LiveTxn, *dtm.DistSnapshot) {
	t.Helper()
	insertRows(t, c, tab, []types.Row{{types.NewInt(1), types.NewInt(0)}, {types.NewInt(2), types.NewInt(0)}})
	u := c.BeginTxn()
	runUpdateKey(t, c, u, tab, 1, 1)
	r := c.BeginTxn()
	t.Cleanup(func() { c.AbortTxn(r) })
	snap := c.TxnSnapshot(r)
	if _, err := c.CommitTxn(u); err != nil {
		t.Fatal(err)
	}
	if h := c.coord.Horizon(); h > u.DXID() {
		t.Fatalf("horizon %d passed updater %d while a snapshot that sees it running is live", h, u.DXID())
	}
	return r, snap
}

func wantPreUpdate(t *testing.T, c *Cluster, r *LiveTxn, snap *dtm.DistSnapshot, tab *catalog.Table) {
	t.Helper()
	scan, index := readKey(t, c, r, snap, tab, 1)
	if len(scan) != 1 || scan[0] != 0 || len(index) != 1 || index[0] != 0 {
		t.Fatalf("pinned reader sees b = %v (scan), %v (index); want the pre-update [0]", scan, index)
	}
}

// TestVacuumKeepsVersionsPinnedBySnapshot: VACUUM and a prune-triggering
// probe run after the updater committed but while a reader's snapshot
// still sees it as running. The segment-local horizon VACUUM once used
// (OldestRunning) reclaimed the reader's version here: the reader had not
// touched the segment yet, so nothing local held the horizon back.
func TestVacuumKeepsVersionsPinnedBySnapshot(t *testing.T) {
	c := testCluster(t, GPDB6(2))
	tab := mkIndexedTable(t, c, "t")
	r, snap := pinnedReader(t, c, tab)

	if _, err := c.Vacuum("t"); err != nil {
		t.Fatal(err)
	}
	updateKey(t, c, tab, 1, 2) // probes a=1's bucket: prunes whatever it may
	wantPreUpdate(t, c, r, snap, tab)

	// Once the reader ends, the same VACUUM reclaims both superseded
	// versions of a=1.
	c.AbortTxn(r)
	if n, err := c.Vacuum("t"); err != nil || n != 2 {
		t.Fatalf("vacuum after the reader ended reclaimed %d (%v), want 2", n, err)
	}
	if got := c.TableRowCount("t"); got != 2 {
		t.Fatalf("stored versions after vacuum = %d, want 2", got)
	}
}

// TestMappingTruncationRespectsPinnedSnapshot: truncating the xid mapping
// at the oldest in-progress dxid dropped the updater's entry while the
// reader's snapshot still saw it running; the reader then fell back to a
// local snapshot that sees the commit, and read the post-update row.
// Truncation now stops at the horizon.
func TestMappingTruncationRespectsPinnedSnapshot(t *testing.T) {
	c := testCluster(t, GPDB6(2))
	tab := mkIndexedTable(t, c, "t")
	r, snap := pinnedReader(t, c, tab)

	c.truncateMappings()
	wantPreUpdate(t, c, r, snap, tab)
}

// TestProbePrunesDeadVersions: repeated updates of one key keep its
// version chain and index bucket short without VACUUM, and the prune
// counters and horizon gauge report it.
func TestProbePrunesDeadVersions(t *testing.T) {
	c := testCluster(t, GPDB6(2))
	tab := mkIndexedTable(t, c, "t")
	insertRows(t, c, tab, []types.Row{{types.NewInt(1), types.NewInt(0)}})
	const updates = 50
	for i := int64(1); i <= updates; i++ {
		updateKey(t, c, tab, 1, i)
	}
	// Each probe reclaims what the previous update superseded; only the
	// last superseded version is still waiting for the next probe.
	if got := c.TableRowCount("t"); got > 2 {
		t.Fatalf("stored versions of one row after %d updates = %d, want <= 2", updates, got)
	}
	entries := 0
	for _, s := range c.Segments() {
		st, err := s.table(tab.ID)
		if err != nil {
			t.Fatal(err)
		}
		entries += st.indexes[0].ix.Len()
	}
	if entries > 2 {
		t.Fatalf("index entries for one row = %d, want <= 2", entries)
	}
	reg := c.Metrics()
	if v, _ := reg.Value("storage.prune.versions"); v < updates-1 {
		t.Fatalf("storage.prune.versions = %d, want >= %d", v, updates-1)
	}
	if v, _ := reg.Value("storage.prune.index_entries"); v < updates-1 {
		t.Fatalf("storage.prune.index_entries = %d, want >= %d", v, updates-1)
	}
	if v, ok := reg.Value("dtm.horizon_age"); !ok || v != 0 {
		t.Fatalf("dtm.horizon_age when idle = %d (registered %v), want 0", v, ok)
	}
	lt := c.BeginTxn()
	c.TxnSnapshot(lt)
	updateKey(t, c, tab, 1, updates+1)
	if v, _ := reg.Value("dtm.horizon_age"); v < 2 {
		t.Fatalf("dtm.horizon_age behind an open snapshot = %d, want >= 2", v)
	}
	c.AbortTxn(lt)
	if got := scanAll(t, c, tab); len(got) != 1 || got[0][1].Int() != updates+1 {
		t.Fatalf("rows after updates = %v", got)
	}
}

// TestVacuumSkipsSlotsRefilledByTruncate: VACUUM takes no relation lock,
// so a TRUNCATE and an INSERT can run between its collect step and its
// prune. TupleIDs restart after the TRUNCATE, so the dead versions it
// collected name slots that now hold the new rows: the prune must leave
// them alone, on the primary and, through the WAL, on its mirror.
func TestVacuumSkipsSlotsRefilledByTruncate(t *testing.T) {
	ctx := context.Background()
	c := replicatedCluster(t, 1, ReplicaSync)
	tab := mkIndexedTable(t, c, "t")
	var rows []types.Row
	for k := int64(1); k <= 8; k++ {
		rows = append(rows, types.Row{types.NewInt(k), types.NewInt(0)})
	}
	insertRows(t, c, tab, rows)
	for k := int64(1); k <= 8; k++ {
		updateKey(t, c, tab, k, 1) // supersedes the version in slot k
	}
	s := c.seg(0)
	st, err := s.table(tab.ID)
	if err != nil {
		t.Fatal(err)
	}
	dead := s.deadVersions(st)
	if len(dead) != 8 {
		t.Fatalf("collected %d dead versions, want 8", len(dead))
	}

	lt := c.BeginTxn()
	if err := c.ApplyTruncate(ctx, lt, "t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CommitTxn(lt); err != nil {
		t.Fatal(err)
	}
	rows = rows[:0]
	for k := int64(11); k <= 18; k++ {
		rows = append(rows, types.Row{types.NewInt(k), types.NewInt(k)})
	}
	insertRows(t, c, tab, rows)

	if n := s.prune(st, dead); n != 0 {
		t.Fatalf("prune after TRUNCATE + INSERT reclaimed %d versions, want 0", n)
	}
	wantRows := func(who string) {
		t.Helper()
		if got := scanAll(t, c, tab); len(got) != 8 {
			t.Fatalf("%s: %d rows after the stale prune, want 8", who, len(got))
		}
		lt := c.BeginTxn()
		defer c.AbortTxn(lt)
		for k := int64(11); k <= 18; k++ {
			if _, index := readKey(t, c, lt, c.TxnSnapshot(lt), tab, k); len(index) != 1 || index[0] != k {
				t.Fatalf("%s: index probe of a=%d reads %v, want [%d]", who, k, index, k)
			}
		}
	}
	wantRows("primary")
	if err := c.KillSegment(0); err != nil {
		t.Fatal(err)
	}
	if err := c.promote(0); err != nil {
		t.Fatal(err)
	}
	wantRows("promoted mirror")
}
