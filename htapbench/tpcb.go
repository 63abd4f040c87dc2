package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/server/client"
	"repro/internal/workload"
)

// tpcbBranches is the pgbench scale: 64 branches, 640 tellers and 64000
// accounts. Set-up at this size is long enough to time repeatably.
const tpcbBranches = 64

// tpcbKinds names the statements of one TPC-B transaction, in order.
var tpcbKinds = []string{"begin", "update_cold", "select_point", "update_teller", "update_hot", "insert", "commit"}

// tpcbKind classifies a TPC-B statement text.
func tpcbKind(sqlText string) string {
	switch {
	case strings.HasPrefix(sqlText, "UPDATE pgbench_accounts"):
		return "update_cold"
	case strings.HasPrefix(sqlText, "SELECT abalance"):
		return "select_point"
	case strings.HasPrefix(sqlText, "UPDATE pgbench_tellers"):
		return "update_teller"
	case strings.HasPrefix(sqlText, "UPDATE pgbench_branches"):
		return "update_hot"
	case strings.HasPrefix(sqlText, "INSERT INTO pgbench_history"):
		return "insert"
	}
	return firstWord(sqlText)
}

// firstWord is a statement's leading keyword in lower case.
func firstWord(sqlText string) string {
	f := strings.Fields(sqlText)
	if len(f) == 0 {
		return "empty"
	}
	return strings.ToLower(f[0])
}

func newTPCB() *workload.TPCB { return &workload.TPCB{Branches: tpcbBranches} }

var tpcbWorkload = &workloadDef{
	name:  "tpcb",
	conns: 2,
	kind:  tpcbKind,
	// The query metrics summarize the seven TPC-B statements.
	stmtQueries: tpcbKinds,
	hot:         [2]string{"pgbench_branches", "pgbench_tellers"},
	setup: func(ctx context.Context, e *env, _ uint64) error {
		w := newTPCB()
		if err := e.script(ctx, w.Schema()); err != nil {
			return err
		}
		if err := w.Load(ctx, client.WorkloadConn{C: e.admin}); err != nil {
			return fmt.Errorf("load pgbench: %w", err)
		}
		_, err := e.exec(ctx, "ANALYZE")
		return err
	},
	run: runTPCB,
}

// runTPCB drives a closed loop of TPC-B transactions on every connection,
// then checks the ledger.
func runTPCB(ctx context.Context, r *runner) error {
	w := newTPCB()
	var wg sync.WaitGroup
	committed := make([]int64, len(r.conns))
	r.startClock()
	for i, b := range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rnd := workload.NewRand(streamSeed(r.seed, i))
			for {
				t0 := time.Now()
				if !t0.Before(r.end) {
					return
				}
				b.measuring = r.inWindow(t0)
				lat, err := b.request("tpcb", func() error { return w.Transaction(ctx, b, rnd) })
				if err != nil {
					r.fail(err)
					continue
				}
				committed[i]++
				r.txnDone(t0, lat, true)
			}
		}()
	}
	wg.Wait()
	var total int64
	for _, n := range committed {
		total += n
	}
	return checkTPCB(ctx, r.env, total, r.check)
}

// checkTPCB verifies the TPC-B ledger: every committed transaction moved
// the same delta into one account, one teller and one branch, and logged
// one history row.
func checkTPCB(ctx context.Context, e *env, committed int64, check func(bool, string, ...any)) error {
	sums := make(map[string]float64)
	for _, q := range []struct{ name, sql string }{
		{"accounts", "SELECT sum(abalance) FROM pgbench_accounts"},
		{"tellers", "SELECT sum(tbalance) FROM pgbench_tellers"},
		{"branches", "SELECT sum(bbalance) FROM pgbench_branches"},
		{"history", "SELECT sum(delta) FROM pgbench_history"},
		{"rows", "SELECT count(*) FROM pgbench_history"},
	} {
		v, err := e.scalar(ctx, q.sql)
		if err != nil {
			return err
		}
		sums[q.name] = v
	}
	for _, k := range []string{"tellers", "branches", "history"} {
		check(sums[k] == sums["accounts"], "tpcb: sum of %s balances %.0f != sum of account balances %.0f", k, sums[k], sums["accounts"])
	}
	check(sums["rows"] == float64(committed), "tpcb: %.0f history rows for %d committed transactions", sums["rows"], committed)
	return nil
}

// streamSeed derives connection i's transaction stream seed from the run
// seed, so the same seed replays the same statements on every connection.
func streamSeed(seed uint64, i int) uint64 { return seed*1_000_003 + uint64(i) + 1 }
