package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server/client"
	"repro/internal/types"
	"repro/internal/workload"
)

// recorder is a workload.Conn that records the statement stream instead of
// running it.
type recorder struct{ stmts []string }

func (r *recorder) Exec(_ context.Context, sqlText string, args ...types.Datum) (int, []types.Row, error) {
	r.stmts = append(r.stmts, fmt.Sprint(sqlText, args))
	return 1, nil, nil
}

// streams returns the first n transactions' statements of each generated
// stream for seed: TPC-B, CH OLTP, and the bulk-loaded CH orders.
func streams(t *testing.T, seed uint64, n int) [][]string {
	t.Helper()
	ctx := context.Background()
	tpcb, ch := &recorder{}, &recorder{}
	w, cw := newTPCB(), newCH()
	tr, cr := workload.NewRand(streamSeed(seed, 0)), workload.NewRand(streamSeed(seed, 0))
	for i := 0; i < n; i++ {
		if err := w.Transaction(ctx, tpcb, tr); err != nil {
			t.Fatal(err)
		}
		_, step := oltpStep(cw, cr)
		if err := step(ctx, ch); err != nil {
			t.Fatal(err)
		}
	}
	return [][]string{tpcb.stmts, ch.stmts, orderInserts(workload.NewRand(seed), 3)}
}

func TestSameSeedSameStatements(t *testing.T) {
	a, b, c := streams(t, 7, 50), streams(t, 7, 50), streams(t, 8, 50)
	for i, name := range []string{"tpcb", "ch oltp", "ch orders"} {
		if len(a[i]) == 0 {
			t.Fatalf("%s: empty stream", name)
		}
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		if reflect.DeepEqual(a[i], c[i]) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

// collect gathers check outcomes.
type collect struct{ failures []string }

func (c *collect) check(ok bool, format string, args ...any) {
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func bootT(t *testing.T) *env {
	t.Helper()
	e, err := boot()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

func TestCheckTPCBRejectsCorruptLedger(t *testing.T) {
	ctx := context.Background()
	e := bootT(t)
	if err := tpcbWorkload.setup(ctx, e, 1); err != nil {
		t.Fatal(err)
	}
	w, rnd := newTPCB(), workload.NewRand(1)
	const txns = 20
	for i := 0; i < txns; i++ {
		if err := w.Transaction(ctx, client.WorkloadConn{C: e.admin}, rnd); err != nil {
			t.Fatal(err)
		}
	}
	var ok collect
	if err := checkTPCB(ctx, e, txns, ok.check); err != nil || len(ok.failures) > 0 {
		t.Fatalf("intact ledger rejected: %v %v", err, ok.failures)
	}
	var miscount collect
	if err := checkTPCB(ctx, e, txns+1, miscount.check); err != nil || len(miscount.failures) != 1 {
		t.Errorf("history/commit mismatch: got failures %v (err %v), want 1", miscount.failures, err)
	}
	if _, err := e.exec(ctx, "UPDATE pgbench_tellers SET tbalance = tbalance + 1 WHERE tid = 1"); err != nil {
		t.Fatal(err)
	}
	var bad collect
	if err := checkTPCB(ctx, e, txns, bad.check); err != nil || len(bad.failures) != 1 {
		t.Errorf("corrupt teller ledger: got failures %v (err %v), want 1", bad.failures, err)
	}
}

func TestCheckCHRejectsCorruptLedger(t *testing.T) {
	ctx := context.Background()
	e := bootT(t)
	if err := setupCH(ctx, e, 1, newCH().Schema(), 5); err != nil {
		t.Fatal(err)
	}
	w, rnd := newCH(), workload.NewRand(1)
	var newOrders int64
	for i := 0; i < 30; i++ {
		name, step := oltpStep(w, rnd)
		if err := step(ctx, client.WorkloadConn{C: e.admin}); err != nil {
			t.Fatal(err)
		}
		if name == "neworder" {
			newOrders++
		}
	}
	if newOrders == 0 || newOrders == 30 {
		t.Fatalf("want a mix of NewOrder and Payment, got %d NewOrders of 30", newOrders)
	}
	var ok collect
	if err := checkCH(ctx, e, newOrders, ok.check); err != nil || len(ok.failures) > 0 {
		t.Fatalf("intact ledger rejected: %v %v", err, ok.failures)
	}
	// Each corruption breaks one more ledger.
	for i, corrupt := range []string{
		"UPDATE district SET d_ytd = d_ytd + 5 WHERE d_w_id = 1 AND d_id = 1",
		"UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = 2 AND d_id = 2",
		"INSERT INTO orders VALUES (1, 1, 5, 1, 1, 5, 1)",
	} {
		if _, err := e.exec(ctx, corrupt); err != nil {
			t.Fatal(err)
		}
		var bad collect
		if err := checkCH(ctx, e, newOrders, bad.check); err != nil || len(bad.failures) != i+1 {
			t.Errorf("after %q: failures %v (err %v), want %d", corrupt, bad.failures, err, i+1)
		}
	}
}

func TestOLAPAnswerCheckRejectsChangedData(t *testing.T) {
	ctx := context.Background()
	e := bootT(t)
	schema, err := aoColumnSchema(newCH())
	if err != nil {
		t.Fatal(err)
	}
	if err := setupCH(ctx, e, 1, schema, 20); err != nil {
		t.Fatal(err)
	}
	if err := useOrca(ctx, e.admin); err != nil {
		t.Fatal(err)
	}
	answers := func() [][]types.Row {
		var out [][]types.Row
		for _, q := range newCH().AnalyticalQueries() {
			res, err := e.exec(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.Rows)
		}
		return out
	}
	costBased := answers()
	if _, err := e.exec(ctx, "SET enable_costopt = off"); err != nil {
		t.Fatal(err)
	}
	reference := answers()
	for i := range reference {
		if !sameRows(costBased[i], reference[i]) {
			t.Errorf("q%d: cost-based and reference answers differ on the same data", i+1)
		}
	}
	if _, err := e.exec(ctx, "INSERT INTO order_line VALUES (1, 1, 1, 1, 1, 3, 9.5, 100)"); err != nil {
		t.Fatal(err)
	}
	if sameRows(answers()[0], reference[0]) {
		t.Error("q1: answer unchanged after an order line was added")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{id: 1, start: 0, dur: 100 * us},
		{id: 2, parent: 1, start: 10 * us, dur: 30 * us},
		{id: 3, parent: 1, start: 20 * us, dur: 40 * us}, // overlaps span 2
		{id: 4, parent: 1, start: 90 * us, dur: 50 * us}, // runs past its parent
		{id: 5, parent: 3, start: 20 * us, dur: 40 * us},
	}
	computeSelf(spans)
	want := []time.Duration{40 * us, 30 * us, 0, 50 * us, 40 * us}
	for i, s := range spans {
		if s.self != want[i] {
			t.Errorf("span %d: self %v, want %v", s.id, s.self, want[i])
		}
	}
}

func TestOpTreeRebuildsPlan(t *testing.T) {
	ms := time.Millisecond
	// Gather Motion over a hash join of two scans, on two segments, in the
	// engine's emission order.
	flat := []obs.Span{
		{Name: "Gather Motion (slice1)", Seg: -1, Dur: 10 * ms},
		{Name: "Hash Join", Seg: 0, Dur: 8 * ms},
		{Name: "Hash Join", Seg: 1, Dur: 6 * ms},
		{Name: "Seq Scan on a", Seg: 0, Dur: 3 * ms},
		{Name: "Seq Scan on a", Seg: 1, Dur: 2 * ms},
		{Name: "Seq Scan on b", Seg: 0, Dur: 4 * ms},
		{Name: "Seq Scan on b", Seg: 1, Dur: 3 * ms},
	}
	roots, ok := opTree(flat)
	if !ok || len(roots) != 1 || len(roots[0].children) != 1 || len(roots[0].children[0].children) != 2 {
		t.Fatalf("tree not rebuilt: ok=%v roots=%d", ok, len(roots))
	}
	if _, ok := opTree(flat[:5]); ok {
		t.Error("a join missing its probe side parsed as a whole plan")
	}

	// Through the tracer: the join's self time is its duration minus both
	// scans laid end to end; the motion's is its duration minus the slower
	// sender.
	tr := newTracer(nil)
	stmt := tr.add(span{name: spanStmt + "select", seg: -1, dur: 20 * ms})
	trace := obs.NewTrace(1, "q")
	trace.Record(0, "execute", -1, time.Now(), 20*ms)
	for _, s := range flat {
		trace.Record(1, s.Name, s.Seg, time.Now(), s.Dur)
	}
	tr.attach(stmt, stmt, trace)
	computeSelf(tr.spans)
	self := make(map[string]time.Duration)
	for _, s := range tr.spans {
		self[fmt.Sprintf("%s@%d", s.name, s.seg)] = s.self
	}
	for k, want := range map[string]time.Duration{
		"Gather Motion (slice1)@-1": 2 * ms,
		"Hash Join@0":               1 * ms,
		"Hash Join@1":               1 * ms,
		"Seq Scan on b@0":           4 * ms,
	} {
		if self[k] != want {
			t.Errorf("%s: self %v, want %v", k, self[k], want)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestEmittedMetricsMatchBenchmarkJSON runs short end-to-end and traced
// runs of the OLTP and HTAP workloads and checks that the emitted metric
// names are exactly the ones BENCHMARK.json declares for each mode. The
// metric maps are built by workload-independent code, so these two
// workloads cover ch-olap's names too.
func TestEmittedMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) map[string]string {
		out := make(map[string]string)
		for _, m := range ms {
			if !metricName.MatchString(m.Name) {
				t.Errorf("BENCHMARK.json metric name %q", m.Name)
			}
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e, layers := declared(bench.EndToEnd), declared(bench.PerLayer)
	for _, wl := range bench.Workloads {
		if _, err := lookup(wl.Name); err != nil {
			t.Error(err)
		}
	}
	ctx := context.Background()
	for _, w := range []*workloadDef{tpcbWorkload, chHTAPWorkload} {
		rep, err := endToEnd(ctx, w, 1, 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		compareMetrics(t, w.name+" end-to-end", rep, e2e)
		rep, err = perLayer(ctx, w, 1, 200*time.Millisecond, filepath.Join(t.TempDir(), "spans.tsv"))
		if err != nil {
			t.Fatal(err)
		}
		compareMetrics(t, w.name+" traced", rep, layers)
	}
}

func compareMetrics(t *testing.T, what string, rep *report, want map[string]string) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, rep.Correct, rep.Attempted, rep.Failed)
	}
	var extra []string
	for name, m := range rep.Metrics {
		unit, ok := want[name]
		if !ok || unit != m.Unit || !metricName.MatchString(name) {
			extra = append(extra, name+" ["+m.Unit+"]")
		}
	}
	var missing []string
	for name := range want {
		if _, ok := rep.Metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(extra)+len(missing) > 0 {
		t.Errorf("%s: undeclared or mis-unit %s; missing %s", what, strings.Join(extra, ", "), strings.Join(missing, ", "))
	}
}
