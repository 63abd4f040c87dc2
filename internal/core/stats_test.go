package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
)

func explainText(t *testing.T, s *Session, q string) string {
	t.Helper()
	res := mustExec(t, s, "EXPLAIN "+q)
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(r[0].String())
		b.WriteByte('\n')
	}
	return b.String()
}

func bulkInsert(t *testing.T, s *Session, table string, n, base int, mk func(i int) string) {
	t.Helper()
	ctx := context.Background()
	const chunk = 500
	for off := 0; off < n; off += chunk {
		end := off + chunk
		if end > n {
			end = n
		}
		var sb strings.Builder
		sb.WriteString("INSERT INTO " + table + " VALUES ")
		for i := off; i < end; i++ {
			if i > off {
				sb.WriteByte(',')
			}
			sb.WriteString(mk(base + i))
		}
		if _, err := s.Exec(ctx, sb.String()); err != nil {
			t.Fatalf("bulk insert into %s: %v", table, err)
		}
	}
}

// TestPlannerUsesRealTableStats checks the OLAP broadcast-vs-redistribute
// decision is driven by actual storage row counts (via the cluster's stats
// cache), not the old hard-coded default estimate: a small misaligned inner
// side is broadcast, and after the table grows past the threshold a fresh
// plan redistributes instead.
func TestPlannerUsesRealTableStats(t *testing.T) {
	_, s := newTestEngine(t, 2)

	mustExec(t, s, "CREATE TABLE big (a int, b int) DISTRIBUTED BY (a)")
	// dim's distribution key (v) differs from the join key (k), so the join
	// sides are misaligned and the planner must move data.
	mustExec(t, s, "CREATE TABLE dim (k int, v int) DISTRIBUTED BY (v)")
	bulkInsert(t, s, "big", 200, 0, func(i int) string { return fmt.Sprintf("(%d,%d)", i, i%50) })
	bulkInsert(t, s, "dim", 100, 0, func(i int) string { return fmt.Sprintf("(%d,%d)", i, i*3) })

	if err := s.SetOptimizer("orca"); err != nil {
		t.Fatal(err)
	}
	// This test pins the legacy threshold heuristic; with the cost-based
	// optimizer on, join reordering may flip the build side and broadcast
	// whichever input is smaller (covered by the costopt tests).
	mustExec(t, s, "SET enable_costopt = off")
	q := "SELECT big.a, dim.v FROM big JOIN dim ON big.b = dim.k"
	pl := explainText(t, s, q)
	if !strings.Contains(pl, "Broadcast Motion") {
		t.Fatalf("small inner side (100 rows) should be broadcast:\n%s", pl)
	}

	// Grow dim past the broadcast threshold (2000); the write invalidates
	// the stats cache, so the next plan sees the real count.
	bulkInsert(t, s, "dim", 2500, 1000, func(i int) string { return fmt.Sprintf("(%d,%d)", i, i*3) })
	pl = explainText(t, s, q)
	if strings.Contains(pl, "Broadcast Motion") {
		t.Fatalf("large inner side (2600 rows) should not be broadcast:\n%s", pl)
	}
	if !strings.Contains(pl, "Redistribute Motion") {
		t.Fatalf("misaligned large join should redistribute:\n%s", pl)
	}
}

// TestExecutorMatchesSliceOracle runs an analytical query end to end (scan →
// motion → two-phase agg → sort through real segments, at a batch size that
// puts batch edges inside every slice) and requires exactly the answer
// computed in plain Go from the same generated rows.
func TestExecutorMatchesSliceOracle(t *testing.T) {
	cfg := cluster.GPDB6(3)
	cfg.ExecBatchSize = 64
	e := NewEngine(cfg)
	defer e.Close()
	s, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	const n, ngroups = 3000, 37
	mustExec(t, s, "CREATE TABLE f (g int, v int, w int) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (g)")
	bulkInsert(t, s, "f", n, 0, func(i int) string { return fmt.Sprintf("(%d,%d,%d)", i%ngroups, i, i%5) })
	res := mustExec(t, s, "SELECT g, count(*), sum(v), min(v), max(v), avg(w) FROM f WHERE v % 2 = 0 GROUP BY g ORDER BY g")

	type acc struct{ cnt, sum, min, max, sumW int64 }
	want := make([]*acc, ngroups)
	for i := 0; i < n; i++ {
		if i%2 != 0 {
			continue
		}
		g := want[i%ngroups]
		if g == nil {
			g = &acc{min: int64(i), max: int64(i)}
			want[i%ngroups] = g
		}
		g.cnt++
		g.sum += int64(i)
		g.min = min(g.min, int64(i))
		g.max = max(g.max, int64(i))
		g.sumW += int64(i % 5)
	}
	if len(res.Rows) != ngroups {
		t.Fatalf("got %d groups, want %d", len(res.Rows), ngroups)
	}
	for g, r := range res.Rows {
		w := want[g]
		if r[0].Int() != int64(g) || r[1].Int() != w.cnt || r[2].Int() != w.sum ||
			r[3].Int() != w.min || r[4].Int() != w.max {
			t.Fatalf("group %d: got %v, want g=%d count=%d sum=%d min=%d max=%d", g, r, g, w.cnt, w.sum, w.min, w.max)
		}
		if avg := float64(w.sumW) / float64(w.cnt); math.Abs(r[5].Float()-avg) > 1e-9 {
			t.Fatalf("group %d: avg(w) = %v, want %v", g, r[5], avg)
		}
	}
}
