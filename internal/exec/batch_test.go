package exec

import (
	"context"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/types"
)

// memBatchStore extends memStore with the batch scan path so executor tests
// exercise the vectorized scan (streaming goroutine + bounded batches).
type memBatchStore struct {
	memStore
}

func (m *memBatchStore) ScanTableBatches(ctx context.Context, leaf catalog.TableID, _ ScanSpec, batchSize int, fn func(*types.RowBatch) (bool, error)) error {
	if batchSize < 1 {
		batchSize = types.DefaultBatchSize
	}
	b := types.NewRowBatch(batchSize)
	for _, row := range m.tables[leaf] {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		b.Append(row.Clone())
		if b.Len() == batchSize {
			cont, err := fn(b)
			if err != nil || !cont {
				return err
			}
			b = types.NewRowBatch(batchSize)
		}
	}
	if b.Len() > 0 {
		if _, err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// TestBatchPipelineMatchesSliceOracle runs a scan→filter→join→agg plan
// through BuildBatch and requires exactly the answer computed in plain Go
// from the same generated rows.
func TestBatchPipelineMatchesSliceOracle(t *testing.T) {
	left := testTable(1, "l", "id", "lv")
	right := testTable(2, "r", "id", "rv")
	tables := map[catalog.TableID][]types.Row{1: {}, 2: {}}
	for i := 0; i < 1000; i++ { // spans several default batches
		tables[1] = append(tables[1], intRow(int64(i%97), int64(i)))
		if i%3 == 0 {
			tables[2] = append(tables[2], intRow(int64(i%97), int64(i*2)))
		}
	}
	store := &memBatchStore{memStore{tables: tables}}

	scanL := plan.NewScan(left, []catalog.TableID{1}, &plan.BinOp{
		Op: ">", Left: &plan.ColRef{Idx: 1}, Right: &plan.Const{Val: types.NewInt(10)}})
	scanR := plan.NewScan(right, []catalog.TableID{2}, nil)
	join := plan.NewHashJoin(plan.JoinInner, scanL, scanR,
		[]plan.Expr{&plan.ColRef{Idx: 0}}, []plan.Expr{&plan.ColRef{Idx: 0}}, nil)
	agg := plan.NewAgg(join,
		[]plan.Expr{&plan.ColRef{Idx: 0}},
		[]plan.AggSpec{
			{Func: plan.AggCount, Name: "cnt"},
			{Func: plan.AggSum, Arg: &plan.ColRef{Idx: 3}, Name: "s"},
			{Func: plan.AggMax, Arg: &plan.ColRef{Idx: 1}, Name: "m"},
		}, plan.AggPlain)
	ctx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0, BatchSize: 64}
	got, err := DrainBatches(BuildBatch(ctx, agg))
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: the same join and aggregate over the raw rows, one group per
	// key in ascending key order (the aggregate's output order).
	type acc struct{ cnt, sum, max int64 }
	groups := map[int64]*acc{}
	for _, l := range tables[1] {
		if l[1].Int() <= 10 {
			continue
		}
		for _, r := range tables[2] {
			if l[0].Int() != r[0].Int() {
				continue
			}
			g := groups[l[0].Int()]
			if g == nil {
				g = &acc{max: l[1].Int()}
				groups[l[0].Int()] = g
			}
			g.cnt++
			g.sum += r[1].Int()
			g.max = max(g.max, l[1].Int())
		}
	}
	keys := make([]int64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(keys) == 0 || len(got) != len(keys) {
		t.Fatalf("result sizes: got=%d want=%d", len(got), len(keys))
	}
	for i, k := range keys {
		g := groups[k]
		want := intRow(k, g.cnt, g.sum, g.max)
		if !got[i].Equal(want) {
			t.Fatalf("group %d: got %v, want %v", i, got[i], want)
		}
	}
}

func TestBatchScanStreamsAndCloseEarly(t *testing.T) {
	tab := testTable(1, "t", "a")
	tables := map[catalog.TableID][]types.Row{1: {}}
	for i := 0; i < 10000; i++ {
		tables[1] = append(tables[1], intRow(int64(i)))
	}
	store := &memBatchStore{memStore{tables: tables}}
	ctx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0, BatchSize: 32}
	it := BuildBatch(ctx, plan.NewScan(tab, []catalog.TableID{1}, nil))
	b, err := it.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 32 {
		t.Fatalf("first batch: %d rows", b.Len())
	}
	// Closing mid-stream must not deadlock or leak the producer.
	it.Close()
}

func TestBatchLeftJoinNullExtension(t *testing.T) {
	left := testTable(1, "l", "id")
	right := testTable(2, "r", "id", "rv")
	store := &memBatchStore{memStore{tables: map[catalog.TableID][]types.Row{
		1: {intRow(1), intRow(2), intRow(3)},
		2: {intRow(1, 10), intRow(3, 30)},
	}}}
	join := plan.NewHashJoin(plan.JoinLeft,
		plan.NewScan(left, []catalog.TableID{1}, nil),
		plan.NewScan(right, []catalog.TableID{2}, nil),
		[]plan.Expr{&plan.ColRef{Idx: 0}}, []plan.Expr{&plan.ColRef{Idx: 0}}, nil)
	ctx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0}
	rows, err := DrainBatches(BuildBatch(ctx, join))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("left join rows: %v", rows)
	}
	saw2 := false
	for _, r := range rows {
		if r[0].Int() == 2 {
			saw2 = true
			if !r[1].IsNull() || !r[2].IsNull() {
				t.Fatalf("unmatched row not null-extended: %v", r)
			}
		}
	}
	if !saw2 {
		t.Fatal("unmatched left row dropped")
	}
}

func TestBatchMemoryAccountingCancels(t *testing.T) {
	tab := testTable(1, "t", "v")
	store := &memBatchStore{memStore{tables: map[catalog.TableID][]types.Row{
		1: {intRow(1), intRow(2)},
	}}}
	ctx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0, Mem: failMem{}}
	join := plan.NewHashJoin(plan.JoinInner,
		plan.NewScan(tab, []catalog.TableID{1}, nil),
		plan.NewScan(tab, []catalog.TableID{1}, nil),
		[]plan.Expr{&plan.ColRef{Idx: 0}}, []plan.Expr{&plan.ColRef{Idx: 0}}, nil)
	if _, err := DrainBatches(BuildBatch(ctx, join)); err == nil {
		t.Fatal("batch hash join ignored memory accounting")
	}
}

// TestSelectBatchSelectionVector: filtering marks survivors in a selection
// vector without moving rows; chained filters narrow the same vector; an
// all-pass filter leaves the batch dense.
func TestSelectBatchSelectionVector(t *testing.T) {
	mk := func() *types.RowBatch {
		b := types.NewRowBatch(8)
		for i := 0; i < 8; i++ {
			b.Append(intRow(int64(i)))
		}
		return b
	}
	even := plan.CompilePredicate(&plan.BinOp{Op: "=",
		Left:  &plan.BinOp{Op: "%", Left: &plan.ColRef{Idx: 0}, Right: &plan.Const{Val: types.NewInt(2)}},
		Right: &plan.Const{Val: types.NewInt(0)}})
	b := mk()
	if err := selectBatch(b, even); err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 8 {
		t.Fatalf("filter moved rows: container %d", len(b.Rows))
	}
	if b.Len() != 4 || b.Live(0)[0].Int() != 0 || b.Live(3)[0].Int() != 6 {
		t.Fatalf("selection: sel=%v", b.Sel)
	}
	// Second filter narrows the existing selection in place.
	ge4 := plan.CompilePredicate(&plan.BinOp{Op: ">=", Left: &plan.ColRef{Idx: 0}, Right: &plan.Const{Val: types.NewInt(4)}})
	if err := selectBatch(b, ge4); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 || b.Live(0)[0].Int() != 4 || b.Live(1)[0].Int() != 6 {
		t.Fatalf("chained selection: sel=%v", b.Sel)
	}
	// All-pass predicate on a dense batch keeps it dense (no allocation).
	b2 := mk()
	if err := selectBatch(b2, plan.CompilePredicate(nil)); err != nil {
		t.Fatal(err)
	}
	if b2.Sel != nil {
		t.Fatalf("all-pass filter built a selection: %v", b2.Sel)
	}
	// All-fail yields an empty (non-nil) selection.
	b3 := mk()
	none := plan.CompilePredicate(&plan.BinOp{Op: "<", Left: &plan.ColRef{Idx: 0}, Right: &plan.Const{Val: types.NewInt(0)}})
	if err := selectBatch(b3, none); err != nil {
		t.Fatal(err)
	}
	if b3.Sel == nil || b3.Len() != 0 {
		t.Fatalf("all-fail: sel=%v", b3.Sel)
	}
}

// TestFilteredScanDrainsLiveRowsOnly: a scan's filtered batches carry a
// selection vector and drain with only live rows visible.
func TestFilteredScanDrainsLiveRowsOnly(t *testing.T) {
	tables := map[catalog.TableID][]types.Row{1: {}}
	for i := 0; i < 500; i++ {
		tables[1] = append(tables[1], intRow(int64(i)))
	}
	store := &memBatchStore{memStore{tables: tables}}
	tbl := testTable(1, "t", "id")
	scan := plan.NewScan(tbl, []catalog.TableID{1}, &plan.BinOp{
		Op: "<", Left: &plan.ColRef{Idx: 0}, Right: &plan.Const{Val: types.NewInt(10)}})
	ctx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0, BatchSize: 64}
	rows, err := DrainBatches(BuildBatch(ctx, scan))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("drained %d rows, want 10", len(rows))
	}
	for i, r := range rows {
		if r[0].Int() != int64(i) {
			t.Fatalf("row %d: %v", i, r)
		}
	}
}
