package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/server/client"
	"repro/internal/types"
	"repro/internal/workload"
)

// CH-benCHmark sizing. Both CH workloads use 4 warehouses (10 districts
// each, 30 customers per district) and 1000 items.
const (
	chWarehouses = 4
	chItems      = 1000
	chCustomers  = 30
	// olapOrders per district gives 40000 orders and 200000 order lines:
	// the AO-column order_line overflows the 16 MiB per-segment decoded
	// block cache, so every scan of it evicts.
	olapOrders = 1000
	// htapOrders per district gives 8000 orders and 40000 order lines
	// before NewOrder starts adding to them.
	htapOrders = 200
	// htapRate is the open-loop OLTP arrival rate (transactions per
	// second): about a third of the ~700/s one connection sustained beside
	// the OLAP stream on two CPUs, and enough transactions in a 20 s window
	// for five slices of 1000.
	htapRate = 260
	// loadedOrderBase offsets bulk-loaded order ids above the ids NewOrder
	// allocates (from 1), so the two never collide.
	loadedOrderBase = 1_000_000
	// loadBatch is the number of rows per bulk INSERT statement.
	loadBatch = 500
)

func newCH() *workload.CHBench {
	return &workload.CHBench{Warehouses: chWarehouses, Items: chItems, CustomersPerDistrict: chCustomers}
}

// aoColumnSchema is the stock CH schema with order_line stored as an
// append-only column table.
func aoColumnSchema(w *workload.CHBench) (string, error) {
	const heap = "ol_delivery_d int) DISTRIBUTED BY (ol_w_id)"
	s := w.Schema()
	if !strings.Contains(s, heap) {
		return "", fmt.Errorf("ch-olap: order_line DDL not found in the CH schema")
	}
	return strings.Replace(s, heap, "ol_delivery_d int) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (ol_w_id)", 1), nil
}

// setupCH creates the schema, loads the catalog through CHBench.Load and
// bulk-loads perDistrict seeded orders per district, then ANALYZEs.
func setupCH(ctx context.Context, e *env, seed uint64, schema string, perDistrict int) error {
	w := newCH()
	if err := e.script(ctx, schema); err != nil {
		return err
	}
	if err := w.Load(ctx, client.WorkloadConn{C: e.admin}); err != nil {
		return fmt.Errorf("load CH catalog: %w", err)
	}
	for _, st := range orderInserts(workload.NewRand(seed), perDistrict) {
		if _, err := e.exec(ctx, st); err != nil {
			return err
		}
	}
	_, err := e.exec(ctx, "ANALYZE")
	return err
}

// orderInserts generates the bulk INSERT statements for perDistrict orders
// of five lines per district, with CHBench's value distributions.
func orderInserts(r *workload.Rand, perDistrict int) []string {
	var out []string
	batch := func(table string) func(string) {
		var sb strings.Builder
		n := 0
		return func(row string) {
			if row != "" {
				if n > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(row)
				n++
			}
			if n > 0 && (n == loadBatch || row == "") {
				out = append(out, "INSERT INTO "+table+" VALUES "+sb.String())
				sb.Reset()
				n = 0
			}
		}
	}
	orders, lines := batch("orders"), batch("order_line")
	oid := loadedOrderBase
	for wid := 1; wid <= chWarehouses; wid++ {
		for did := 1; did <= 10; did++ {
			for k := 0; k < perDistrict; k++ {
				oid++
				cid := r.Range(1, chCustomers)
				day := r.Intn(365)
				orders(fmt.Sprintf("(%d, %d, %d, %d, %d, 5, %d)", wid, did, oid, cid, r.Intn(10), day))
				for ln := 1; ln <= 5; ln++ {
					item := r.Range(1, chItems)
					qty := r.Range(1, 10)
					lines(fmt.Sprintf("(%d, %d, %d, %d, %d, %d, %.2f, %d)",
						wid, did, oid, ln, item, qty, float64(qty)*float64(1+item%100), day))
				}
			}
		}
	}
	orders("")
	lines("")
	return out
}

var chOLAPWorkload = &workloadDef{
	name:  "ch-olap",
	conns: 1,
	kind:  firstWord,
	hot:   [2]string{"order_line", "orders"},
	setup: func(ctx context.Context, e *env, seed uint64) error {
		schema, err := aoColumnSchema(newCH())
		if err != nil {
			return err
		}
		return setupCH(ctx, e, seed, schema, olapOrders)
	},
	run: runCHOLAP,
}

var chHTAPWorkload = &workloadDef{
	name:  "ch-htap",
	conns: 2,
	kind:  firstWord,
	hot:   [2]string{"warehouse", "district"},
	setup: func(ctx context.Context, e *env, seed uint64) error {
		return setupCH(ctx, e, seed, newCH().Schema(), htapOrders)
	},
	run: runCHHTAP,
}

// useOrca switches a connection to the OLAP planner, as Greenplum analysts
// do after ANALYZE.
func useOrca(ctx context.Context, c *client.Client) error {
	if _, err := c.Exec(ctx, "SET optimizer = orca"); err != nil {
		return fmt.Errorf("SET optimizer = orca: %w", err)
	}
	return nil
}

// runCHOLAP runs the analytical queries in a fixed rotation on one analyst
// connection over static data, checking every answer against answers
// computed once, before the clock starts, with the cost-based optimizer
// off.
func runCHOLAP(ctx context.Context, r *runner) error {
	qs := newCH().AnalyticalQueries()
	analyst := r.conns[0]
	if err := useOrca(ctx, analyst.c); err != nil {
		return err
	}
	want, err := olapReference(ctx, r, qs)
	if err != nil {
		return err
	}
	r.startClock()
	for i := 0; ; i++ {
		t0 := time.Now()
		if !t0.Before(r.end) {
			break
		}
		k := i % len(qs)
		analyst.measuring = r.inWindow(t0)
		var got []types.Row
		lat, err := analyst.request(fmt.Sprintf("q%d", k+1), func() error {
			var err error
			_, got, err = analyst.Exec(ctx, qs[k])
			return err
		})
		if err != nil {
			r.fail(err)
			continue
		}
		if !sameRows(got, want[k]) {
			r.fail(fmt.Errorf("ch-olap: q%d answer differs from the enable_costopt=off answer", k+1))
			continue
		}
		r.queryDone(k, t0, lat, true)
	}
	return nil
}

// olapReference computes the analytical queries' answers with the
// cost-based optimizer off, once per process.
func olapReference(ctx context.Context, r *runner, qs []string) ([][]types.Row, error) {
	if r.memo.olapReference != nil {
		return r.memo.olapReference, nil
	}
	if err := useOrca(ctx, r.env.admin); err != nil {
		return nil, err
	}
	if _, err := r.env.exec(ctx, "SET enable_costopt = off"); err != nil {
		return nil, err
	}
	want := make([][]types.Row, len(qs))
	for i, q := range qs {
		res, err := r.env.exec(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("reference answer: %w", err)
		}
		want[i] = res.Rows
	}
	r.memo.olapReference = want
	return want, nil
}

// runCHHTAP runs NewOrder/Payment as an open loop at htapRate on one
// connection and the OLAP rotation as a closed loop on another, over the
// same growing heap tables, then checks the TPC-C money and order ledgers.
func runCHHTAP(ctx context.Context, r *runner) error {
	w := newCH()
	qs := w.AnalyticalQueries()
	oltp, analyst := r.conns[0], r.conns[1]
	if err := useOrca(ctx, analyst.c); err != nil {
		return err
	}
	var newOrders int64
	var wg sync.WaitGroup
	wg.Add(2)
	r.startClock()
	go func() {
		defer wg.Done()
		rnd := workload.NewRand(streamSeed(r.seed, 0))
		interval := time.Second / htapRate
		for i := 0; ; i++ {
			// A generator that has fallen behind stops at the window's end
			// rather than working off its backlog.
			due := r.start.Add(time.Duration(i) * interval)
			if !due.Before(r.end) || !time.Now().Before(r.end) {
				return
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			sent := time.Now()
			oltp.measuring = r.inWindow(due)
			name, step := oltpStep(w, rnd)
			isNew := name == "neworder"
			_, err := oltp.request(name, func() error { return step(ctx, oltp) })
			if err != nil {
				r.fail(err)
				continue
			}
			if isNew {
				newOrders++
			}
			r.openDone(due, sent, time.Now())
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			t0 := time.Now()
			if !t0.Before(r.end) {
				return
			}
			k := i % len(qs)
			analyst.measuring = r.inWindow(t0)
			lat, err := analyst.request(fmt.Sprintf("q%d", k+1), func() error {
				_, _, err := analyst.Exec(ctx, qs[k])
				return err
			})
			if err != nil {
				r.fail(err)
				continue
			}
			r.queryDone(k, t0, lat, false)
		}
	}()
	wg.Wait()
	return checkCH(ctx, r.env, newOrders, r.check)
}

// oltpStep draws the next OLTP transaction: NewOrder or Payment with equal
// odds, as CHBench.OLTPMix draws them.
func oltpStep(w *workload.CHBench, rnd *workload.Rand) (string, func(context.Context, workload.Conn) error) {
	if rnd.Intn(2) == 0 {
		return "neworder", func(ctx context.Context, c workload.Conn) error { return w.NewOrder(ctx, c, rnd) }
	}
	return "payment", func(ctx context.Context, c workload.Conn) error { return w.Payment(ctx, c, rnd) }
}

// checkCH verifies the CH ledgers: every Payment added one amount to a
// warehouse, a district and the history; every committed NewOrder advanced
// one district counter and wrote one order with five lines.
func checkCH(ctx context.Context, e *env, newOrders int64, check func(bool, string, ...any)) error {
	v := make(map[string]float64)
	for _, q := range []struct{ name, sql string }{
		{"w_ytd", "SELECT sum(w_ytd) FROM warehouse"},
		{"d_ytd", "SELECT sum(d_ytd) FROM district"},
		{"h_amount", "SELECT sum(h_amount) FROM ch_history"},
		{"next_o_id", "SELECT sum(d_next_o_id) FROM district"},
		{"districts", "SELECT count(*) FROM district"},
		{"orders", "SELECT count(*) FROM orders"},
		{"lines", "SELECT count(*) FROM order_line"},
	} {
		x, err := e.scalar(ctx, q.sql)
		if err != nil {
			return err
		}
		v[q.name] = x
	}
	for _, k := range []string{"d_ytd", "h_amount"} {
		check(closeTo(v[k], v["w_ytd"]), "ch: sum of %s %.2f != sum of w_ytd %.2f", k, v[k], v["w_ytd"])
	}
	check(v["next_o_id"]-v["districts"] == float64(newOrders),
		"ch: districts handed out %.0f order ids for %d committed NewOrders", v["next_o_id"]-v["districts"], newOrders)
	check(v["lines"] == 5*v["orders"], "ch: %.0f order lines for %.0f orders (want 5 each)", v["lines"], v["orders"])
	return nil
}

// closeTo compares money sums accumulated in different orders.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// sameRows compares two answers row by row; floats may differ in the last
// digits because aggregation order differs between plans.
func sameRows(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.Kind() == types.KindFloat || y.Kind() == types.KindFloat {
				if x.IsNull() != y.IsNull() || !closeTo(x.Float(), y.Float()) {
					return false
				}
				continue
			}
			if types.Compare(x, y) != 0 || x.IsNull() != y.IsNull() {
				return false
			}
		}
	}
	return true
}
