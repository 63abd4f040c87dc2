package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/types"
)

// lockStore records what FOR UPDATE scans ask of the storage layer: how many
// rows a locking table scan kept (and so locked), and whether an index probe
// asked to lock.
type lockStore struct {
	memBatchStore
	locked      int
	indexLocked bool
}

func (s *lockStore) ScanTable(ctx context.Context, leaf catalog.TableID, forUpdate bool, fn func(types.Row) (bool, bool, error)) error {
	return s.memStore.ScanTable(ctx, leaf, forUpdate, func(row types.Row) (bool, bool, error) {
		keep, cont, err := fn(row)
		if keep && forUpdate {
			s.locked++
		}
		return keep, cont, err
	})
}

func (s *lockStore) IndexLookup(ctx context.Context, t *catalog.Table, idx *catalog.Index, key []types.Datum, forUpdate bool, fn func(types.Row) (bool, error)) error {
	s.indexLocked = s.indexLocked || forUpdate
	return s.memStore.IndexLookup(ctx, t, idx, key, forUpdate, fn)
}

// countCPU counts charge calls; with CPUBatchRows = 1 that is one per
// ticked row.
type countCPU struct{ n atomic.Int64 }

func (c *countCPU) ChargeCPU(context.Context, time.Duration) error {
	c.n.Add(1)
	return nil
}

// TestBatchNodesAtBatchEdges runs every batch-native node at batch sizes 1,
// 3 and the default against a slice oracle, and checks that the per-node row
// totals in NodeRowCounts and OpStats agree with the rows each node emitted.
func TestBatchNodesAtBatchEdges(t *testing.T) {
	const (
		tSort  catalog.TableID = 1 // (k, v): shuffled, k has many ties
		tSeq   catalog.TableID = 2 // (v): 0..9 in order
		tOuter catalog.TableID = 3 // (x): 0..6
		tInner catalog.TableID = 4 // (y): 0..4
		tEmpty catalog.TableID = 5
		tIndex catalog.TableID = 6 // (k, v): k = v%2, 600 rows
	)
	rng := rand.New(rand.NewSource(11))
	tables := map[catalog.TableID][]types.Row{tEmpty: {}}
	for i := 0; i < 2000; i++ {
		tables[tSort] = append(tables[tSort], intRow(int64(rng.Intn(7)), int64(i)))
	}
	rng.Shuffle(2000, func(i, j int) { tables[tSort][i], tables[tSort][j] = tables[tSort][j], tables[tSort][i] })
	for i := 0; i < 10; i++ {
		tables[tSeq] = append(tables[tSeq], intRow(int64(i)))
	}
	for i := 0; i < 7; i++ {
		tables[tOuter] = append(tables[tOuter], intRow(int64(i)))
	}
	for i := 0; i < 5; i++ {
		tables[tInner] = append(tables[tInner], intRow(int64(i)))
	}
	for i := 0; i < 600; i++ {
		tables[tIndex] = append(tables[tIndex], intRow(int64(i%2), int64(i)))
	}
	sortTab := testTable(tSort, "s", "k", "v")
	seqTab := testTable(tSeq, "q", "v")
	outerTab := testTable(tOuter, "o", "x")
	innerTab := testTable(tInner, "i", "y")
	emptyTab := testTable(tEmpty, "e", "y")
	indexTab := testTable(tIndex, "x", "k", "v")
	scan := func(tab *catalog.Table) *plan.Scan { return plan.NewScan(tab, []catalog.TableID{tab.ID}, nil) }
	col := func(i int) plan.Expr { return &plan.ColRef{Idx: i} }
	lit := func(v int64) plan.Expr { return &plan.Const{Val: types.NewInt(v)} }
	isEven := &plan.BinOp{Op: "=", Left: &plan.BinOp{Op: "%", Left: col(0), Right: lit(2)}, Right: lit(0)}

	// Oracles.
	filter := func(rows []types.Row, keep func(types.Row) bool) []types.Row {
		var out []types.Row
		for _, r := range rows {
			if keep(r) {
				out = append(out, r)
			}
		}
		return out
	}
	window := func(rows []types.Row, off, cnt int64) []types.Row {
		lo := min(off, int64(len(rows)))
		hi := int64(len(rows))
		if cnt >= 0 {
			hi = min(hi, lo+cnt)
		}
		return rows[lo:hi]
	}
	sortedByK := func(desc bool) []types.Row {
		out := append([]types.Row(nil), tables[tSort]...)
		sort.SliceStable(out, func(i, j int) bool {
			if desc {
				return out[i][0].Int() > out[j][0].Int()
			}
			return out[i][0].Int() < out[j][0].Int()
		})
		return out
	}
	nestLoop := func(outer, inner []types.Row, left bool) []types.Row {
		var out []types.Row
		for _, o := range outer {
			matched := false
			for _, i := range inner {
				if o[0].Int() < i[0].Int() {
					out = append(out, intRow(o[0].Int(), i[0].Int()))
					matched = true
				}
			}
			if !matched && left {
				out = append(out, types.Row{o[0], types.Null})
			}
		}
		return out
	}

	type tcase struct {
		name   string
		root   plan.Node
		store  *lockStore // nil = the shared store
		budget int64      // spill budget; 0 = no spilling
		want   []types.Row
		// check runs case-specific assertions on the node row counts.
		check func(t *testing.T, size int, rows *plan.NodeRowCounts, st *lockStore, cpu int64)
	}
	var cases []tcase

	// Sort: in memory and under a spill budget, ascending and descending on
	// a key with many ties, so the output order is only right if stable.
	for _, desc := range []bool{false, true} {
		for _, budget := range []int64{0, 4096} {
			cases = append(cases, tcase{
				name:   fmt.Sprintf("sort/desc=%v/budget=%d", desc, budget),
				root:   &plan.Sort{Child: scan(sortTab), Keys: []plan.SortKey{{Expr: col(0), Desc: desc}}},
				budget: budget,
				want:   sortedByK(desc),
			})
		}
	}

	// Limit/Offset: edges inside, on and past a batch of 3, LIMIT 0,
	// windows past the end, and a negative OFFSET (skips nothing) — over a
	// dense child and over a child whose batches carry a selection vector
	// (the even rows).
	windows := [][2]int64{
		{0, 0}, {5, 0}, {0, 2}, {0, 3}, {0, 4}, {2, -1}, {3, -1}, {4, -1},
		{1, 3}, {3, 3}, {4, 5}, {8, 10}, {12, 1}, {0, -1}, {2, 1},
		{-1, -1}, {-1, 3},
	}
	for _, w := range windows {
		nodeOff, cnt := w[0], w[1]
		off := max(nodeOff, 0)
		child := scan(seqTab)
		cases = append(cases, tcase{
			name: fmt.Sprintf("limit/dense/off=%d/count=%d", nodeOff, cnt),
			root: &plan.Limit{Child: child, Count: cnt, Offset: nodeOff},
			want: window(tables[tSeq], off, cnt),
			check: func(t *testing.T, size int, rows *plan.NodeRowCounts, _ *lockStore, _ int64) {
				// The child is pulled only until the count is reached: up to
				// the end of the batch holding the last emitted row.
				want := int64(len(tables[tSeq]))
				if cnt == 0 {
					want = 0
				} else if cnt > 0 {
					want = min(want, (off+cnt+int64(size)-1)/int64(size)*int64(size))
				}
				if got := rows.Rows(child); got != want {
					t.Fatalf("limit child emitted %d rows, want %d", got, want)
				}
			},
		})
		evens := filter(tables[tSeq], func(r types.Row) bool { return r[0].Int()%2 == 0 })
		cases = append(cases, tcase{
			name: fmt.Sprintf("limit/selected/off=%d/count=%d", nodeOff, cnt),
			root: &plan.Limit{Child: plan.NewScan(seqTab, []catalog.TableID{tSeq}, isEven), Count: cnt, Offset: nodeOff},
			want: window(evens, off, cnt),
		})
	}

	// NestLoop: inner and left theta joins (x < y) whose output crosses
	// batch edges mid-row, and both kinds over an empty inner side. The CPU
	// charge is one row per scanned row plus one per evaluated pair.
	for _, kind := range []plan.JoinKind{plan.JoinInner, plan.JoinLeft} {
		for _, inner := range []*catalog.Table{innerTab, emptyTab} {
			left := kind == plan.JoinLeft
			cases = append(cases, tcase{
				name: fmt.Sprintf("nestloop/%v/inner=%s", kind, inner.Name),
				root: plan.NewNestLoop(kind, scan(outerTab), scan(inner), &plan.BinOp{Op: "<", Left: col(0), Right: col(1)}),
				want: nestLoop(tables[tOuter], tables[inner.ID], left),
				check: func(t *testing.T, _ int, _ *plan.NodeRowCounts, _ *lockStore, cpu int64) {
					no, ni := int64(len(tables[tOuter])), int64(len(tables[inner.ID]))
					if want := no + ni + no*ni; cpu != want {
						t.Fatalf("cpu rows charged = %d, want %d", cpu, want)
					}
				},
			})
		}
	}

	// IndexScan: 300 hits, more than one default batch; a residual filter;
	// FOR UPDATE reaching the store.
	hits := filter(tables[tIndex], func(r types.Row) bool { return r[0].Int() == 1 })
	for _, forUpdate := range []bool{false, true} {
		cases = append(cases, tcase{
			name:  fmt.Sprintf("indexscan/forupdate=%v", forUpdate),
			root:  &plan.IndexScan{Table: indexTab, KeyVals: []plan.Expr{lit(1)}, ForUpdate: forUpdate},
			store: &lockStore{memBatchStore: memBatchStore{memStore{tables: tables}}},
			want:  hits,
			check: func(t *testing.T, _ int, _ *plan.NodeRowCounts, st *lockStore, _ int64) {
				if st.indexLocked != forUpdate {
					t.Fatalf("index probe FOR UPDATE = %v, want %v", st.indexLocked, forUpdate)
				}
			},
		})
	}
	cases = append(cases, tcase{
		name: "indexscan/residual",
		root: &plan.IndexScan{Table: indexTab, KeyVals: []plan.Expr{lit(1)},
			Filter: &plan.BinOp{Op: "<", Left: col(1), Right: lit(400)}},
		want: filter(hits, func(r types.Row) bool { return r[1].Int() < 400 }),
	})

	// The FOR UPDATE table scan materializes through ScanTable (locking each
	// kept row) and emits its buffer in batches.
	forUpdate := plan.NewScan(seqTab, []catalog.TableID{tSeq}, isEven)
	forUpdate.ForUpdate = true
	cases = append(cases, tcase{
		name:  "scan/forupdate",
		root:  forUpdate,
		store: &lockStore{memBatchStore: memBatchStore{memStore{tables: tables}}},
		want:  filter(tables[tSeq], func(r types.Row) bool { return r[0].Int()%2 == 0 }),
		check: func(t *testing.T, _ int, _ *plan.NodeRowCounts, st *lockStore, _ int64) {
			if st.locked != 5 {
				t.Fatalf("FOR UPDATE scan locked %d rows, want 5", st.locked)
			}
		},
	})

	cases = append(cases, tcase{name: "onerow", root: &plan.OneRow{}, want: []types.Row{{}}})

	shared := &lockStore{memBatchStore: memBatchStore{memStore{tables: tables}}}
	for _, size := range []int{1, 3, types.DefaultBatchSize} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/size=%d", tc.name, size), func(t *testing.T) {
				store := tc.store
				if store == nil {
					store = shared
				} else {
					store.locked, store.indexLocked = 0, false
				}
				cpu := &countCPU{}
				ctx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0,
					BatchSize: size, CPU: cpu, CPUBatchCost: time.Nanosecond, CPUBatchRows: 1,
					NodeRows: plan.NewNodeRowCounts(tc.root), Ops: plan.NewOpStats(tc.root, 1)}
				if tc.budget > 0 {
					ctx.Spill = NewSpillManager(tc.budget)
					defer ctx.Spill.Cleanup()
				}
				got, err := DrainBatches(BuildBatch(ctx, tc.root))
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(tc.want) {
					t.Fatalf("got %d rows, want %d", len(got), len(tc.want))
				}
				for i := range got {
					if !got[i].Equal(tc.want[i]) {
						t.Fatalf("row %d: got %v, want %v", i, got[i], tc.want[i])
					}
				}
				if tc.budget > 0 {
					if spills, _, _, _ := ctx.Spill.Stats(); spills == 0 {
						t.Fatal("sort did not spill under the budget")
					}
				}
				// Row totals: the root reports what it emitted, and every
				// node's NodeRowCounts agrees with its OpStats cell.
				if n := ctx.NodeRows.Rows(tc.root); n != int64(len(got)) {
					t.Fatalf("NodeRowCounts root = %d, want %d", n, len(got))
				}
				walkPlan(tc.root, func(n plan.Node) {
					if a, b := ctx.NodeRows.Rows(n), ctx.Ops.At(n, 0).Rows.Load(); a != b {
						t.Fatalf("%s: NodeRowCounts %d != OpStats rows %d", n.Explain(), a, b)
					}
				})
				if tc.check != nil {
					tc.check(t, size, ctx.NodeRows, store, cpu.n.Load())
				}
			})
		}
	}
}

// ctxCPU charges like a resource-group slot under a cancelled statement:
// every charge reports the context's error.
type ctxCPU struct{}

func (ctxCPU) ChargeCPU(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// pullCounter counts the batches pulled from its child.
type pullCounter struct {
	BatchIterator
	pulls int
}

func (p *pullCounter) NextBatch() (*types.RowBatch, error) {
	p.pulls++
	return p.BatchIterator.NextBatch()
}

// TestNestLoopChargesCPUWhileEvaluating: a nested loop whose condition
// matches nothing never fills an output batch, so it must charge CPU as it
// evaluates pairs. A cancelled statement then stops it within one batch of
// pairs, not after the whole outer x inner product.
func TestNestLoopChargesCPUWhileEvaluating(t *testing.T) {
	const n, size = 300, 16
	var outerRows, innerRows []types.Row
	for i := 0; i < n; i++ {
		outerRows = append(outerRows, intRow(int64(i)))
		innerRows = append(innerRows, intRow(int64(i)))
	}
	outerTab, innerTab := testTable(1, "o", "x"), testTable(2, "i", "y")
	node := plan.NewNestLoop(plan.JoinInner,
		plan.NewScan(outerTab, []catalog.TableID{outerTab.ID}, nil),
		plan.NewScan(innerTab, []catalog.TableID{innerTab.ID}, nil),
		&plan.Const{Val: types.NewBool(false)})
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := &Context{Ctx: cctx, NumSegments: 1, BatchSize: size,
		CPU: ctxCPU{}, CPUBatchCost: time.Nanosecond, CPUBatchRows: size}
	outer := &pullCounter{BatchIterator: &sliceIter{rows: outerRows, size: size}}
	it := newNestLoopIter(ctx, node, outer, &sliceIter{rows: innerRows, size: size})
	defer it.Close()
	if _, err := it.NextBatch(); !errors.Is(err, context.Canceled) {
		t.Fatalf("NextBatch error = %v, want context.Canceled", err)
	}
	if outer.pulls != 1 {
		t.Fatalf("pulled %d outer batches before stopping, want 1", outer.pulls)
	}
}

func walkPlan(n plan.Node, fn func(plan.Node)) {
	fn(n)
	for _, c := range n.Children() {
		walkPlan(c, fn)
	}
}
