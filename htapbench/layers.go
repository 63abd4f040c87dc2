package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/sql"
)

// counterMetrics derives the per-layer metrics that come from the engine's
// obs registry, process counters and timed probes of an untraced run. The
// probes run on the run's engine after the window.
func counterMetrics(ctx context.Context, w *workloadDef, r *runner) (map[string]metric, error) {
	a, b := r.before, r.after
	delta := func(name string) float64 { return float64(b.reg.Values[name] - a.reg.Values[name]) }
	frac := func(part, other string) float64 { return ratio(delta(part), delta(part)+delta(other)) }
	txns := float64(len(r.txns))
	requests := float64(r.requests)
	wall := b.at.Sub(a.at).Seconds()
	cpu := (b.cpu - a.cpu).Seconds()
	rtd := func(i int) float64 { return b.rtValue(i) - a.rtValue(i) }

	m := map[string]metric{
		"core.plancache.hit_ratio":      {frac("plancache.hits", "plancache.misses"), "ratio"},
		"core.plancache.plan_hit_ratio": {frac("plancache.plan_hits", "plancache.plan_misses"), "ratio"},
		"core.plancache.evictions":      {delta("plancache.evictions"), "count"},
		"dispatch.retries":              {delta("dispatch.retries"), "count"},
		"txn.one_phase_frac":            {frac("txn.commits_1pc", "txn.commits_2pc"), "ratio"},
		"txn.aborts":                    {delta("txn.aborts"), "count"},
		"lockmgr.waits_per_txn":         {ratio(float64(b.lockWaits-a.lockWaits), txns), "count"},
		"lockmgr.wait_ms":               {ms(b.lockWait - a.lockWait), "ms"},
		"gdd.deadlocks":                 {delta("gdd.deadlocks"), "count"},
		"storage.blockcache.hit_ratio":  {frac("storage.blockcache.hits", "storage.blockcache.misses"), "ratio"},
		"storage.blockcache.evictions":  {delta("storage.blockcache.evictions"), "count"},
		"storage.scan.skip_ratio":       {frac("storage.scan.blocks_skipped", "storage.scan.blocks_scanned"), "ratio"},
		"exec.spill_bytes":              {delta("exec.spill.bytes"), "B"},
		"wal.records_per_txn":           {ratio(delta("wal.records"), txns), "count"},
		"wal.bytes_per_txn":             {ratio(delta("wal.bytes"), txns), "B"},
		"wal.flushes_per_txn":           {ratio(delta("wal.flushes"), txns), "count"},
		"runtime.cpu_busy_frac":         {ratio(cpu, wall*float64(runtime.NumCPU())), "ratio"},
		"runtime.alloc_bytes_per_op":    {ratio(rtd(0), requests), "B"},
		"runtime.allocs_per_op":         {ratio(rtd(1), requests), "count"},
		"runtime.gc_cpu_frac":           {ratio(rtd(2), rtd(3)-rtd(4)), "ratio"},
		"loadgen.late_p99_ms":           {ms(quantile(r.late, 0.99)), "ms"},
		"fail_frac":                     {ratio(float64(r.failed), float64(r.attempted)), "ratio"},
	}

	// dtm: what one distributed snapshot costs on the run's final state.
	cl := r.env.engine.Cluster()
	const snaps = 20000
	t0 := time.Now()
	for i := 0; i < snaps; i++ {
		_ = cl.Snapshot()
	}
	m["dtm.snapshot_ns"] = metric{float64(time.Since(t0).Nanoseconds()) / snaps, "ns"}

	// storage: stored versions per live row of the two hottest tables.
	for i, table := range w.hot {
		live, err := r.env.scalar(ctx, "SELECT count(*) FROM "+table)
		if err != nil {
			return nil, err
		}
		m[fmt.Sprintf("storage.versions_per_row.hot%d", i+1)] =
			metric{ratio(float64(cl.TableRowCount(table)), live), "ratio"}
	}

	// sql: the parser alone over the statement texts the run sent.
	texts := r.texts()
	var parses int
	t0 = time.Now()
	for time.Since(t0) < 100*time.Millisecond {
		for _, s := range texts {
			if _, err := sql.Parse(s); err != nil {
				return nil, fmt.Errorf("parse probe: %w", err)
			}
			parses++
		}
	}
	m["sql.parse_probe_us"] = metric{us(time.Since(t0)) / float64(parses), "us"}
	return m, nil
}

// texts returns the distinct statement texts the run's connections sent.
func (r *runner) texts() []string {
	seen := make(map[string]bool)
	var out []string
	for _, b := range r.conns {
		for s := range b.texts {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// opCategories maps EXPLAIN node-name prefixes to exec metric names.
var opCategories = []struct{ prefix, metric string }{
	{"Seq Scan", "exec.scan_ms"},
	{"Index Scan", "exec.scan_ms"},
	{"Hash Join", "exec.hashjoin_ms"},
	{"HashAggregate", "exec.hashagg_ms"},
	{"Aggregate", "exec.hashagg_ms"},
	{"Sort", "exec.sort_ms"},
	{"Limit", "exec.limit_ms"},
	{"Nested Loop", "exec.nestloop_ms"},
	{"Project", "exec.project_ms"},
	{"Filter", "exec.other_ms"},
	{"Result", "exec.other_ms"},
}

// spanMetrics derives the per-layer metrics of the traced run from its
// spans. Times are means per engine-traced statement unless named per
// statement kind.
func spanMetrics(tr *tracer) map[string]metric {
	stmts := float64(tr.engineStmts)
	sum := make(map[string]time.Duration)
	kindSum := make(map[string]time.Duration)
	kindN := make(map[string]int)
	var overhead time.Duration
	var withExec, direct, dispatched int
	execSegs := make(map[int32]map[int]bool) // execute span -> segments
	for _, s := range tr.spans {
		switch {
		case strings.HasPrefix(s.name, spanStmt):
			k := strings.TrimPrefix(s.name, spanStmt)
			kindSum[k] += s.dur
			kindN[k]++
		case s.name == "query":
			// A statement's children are the engine's parse and query
			// spans, so its self time is the wire and session layers'
			// share.
			overhead += tr.spans[s.parent-1].self
		case s.name == "parse", s.name == "plan", s.name == "execute":
			sum[s.name] += s.dur
			if s.name == "execute" {
				withExec++
				execSegs[s.id] = make(map[int]bool)
			}
		case dispatchSpan(s.name):
			dispatched++
			if segs := execSegs[s.parent]; segs != nil {
				segs[s.seg] = true
			}
		case strings.Contains(s.name, "Motion"):
			sum["interconnect.motion_ms"] += s.self
		default:
			for _, c := range opCategories {
				if strings.HasPrefix(s.name, c.prefix) {
					sum[c.metric] += s.self
					break
				}
			}
		}
	}
	for _, segs := range execSegs {
		if len(segs) == 1 {
			direct++
		}
	}
	perStmt := func(d time.Duration) float64 { return ratio(float64(d), stmts) }
	m := map[string]metric{
		"server.overhead_us":      {perStmt(overhead) / 1e3, "us"},
		"sql.parse_us":            {perStmt(sum["parse"]) / 1e3, "us"},
		"plan.plan_us":            {perStmt(sum["plan"]) / 1e3, "us"},
		"cluster.execute_us":      {perStmt(sum["execute"]) / 1e3, "us"},
		"cluster.slices_per_stmt": {ratio(float64(dispatched), float64(withExec)), "count"},
		"cluster.direct_frac":     {ratio(float64(direct), float64(withExec)), "ratio"},
		"interconnect.motion_ms":  {perStmt(sum["interconnect.motion_ms"]) / 1e6, "ms"},
		"trace.lost":              {float64(tr.lost + tr.unparsed), "count"},
	}
	for _, c := range opCategories {
		m[c.metric] = metric{perStmt(sum[c.metric]) / 1e6, "ms"}
	}
	for _, k := range tpcbKinds {
		m["server.stmt."+k+"_us"] = metric{ratio(float64(kindSum[k]), float64(kindN[k])) / 1e3, "us"}
	}
	return m
}
