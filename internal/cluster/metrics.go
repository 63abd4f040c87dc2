package cluster

import (
	"repro/internal/fault"
	"repro/internal/obs"
)

// Metric names are stable dotted identifiers, documented in
// docs/OBSERVABILITY.md. Counters and max-gauges are recorded through
// pre-resolved handles on the hot paths; computed aggregates (cache
// occupancy, scan totals, breaker states, expansion progress) are gauge
// funcs folded on demand at snapshot/scrape time, so observability never
// adds per-statement work for them.

// initMetrics creates the registry and resolves every hot-path handle.
// Called before the first segment is built (segments share the WAL flush
// histogram).
func (c *Cluster) initMetrics() {
	r := obs.NewRegistry()
	c.metrics = r
	c.commits1PC = r.Counter("txn.commits_1pc")
	c.commits2PC = r.Counter("txn.commits_2pc")
	c.commitsRO = r.Counter("txn.commits_readonly")
	c.aborts = r.Counter("txn.aborts")
	c.deadlockErr = r.Counter("txn.deadlock_victims")
	c.failovers = r.Counter("fts.failovers")
	c.spills = r.Counter("exec.spill.events")
	c.spillBytes = r.Counter("exec.spill.bytes")
	c.spillFiles = r.Counter("exec.spill.files")
	c.spillPeak = r.Gauge("exec.spill.mem_peak")
	c.vmemPeak = r.Gauge("exec.vmem_peak")
	c.spillLeaks = r.Counter("exec.spill.leaks")
	c.dispatchRetries = r.Counter("dispatch.retries")
	c.walTruncations = r.Counter("wal.truncations")
	c.walTruncatedBytes = r.Counter("wal.truncated_bytes")
	c.walFlushLat = r.Histogram("wal.flush_seconds")
	c.prunedVersions = r.Counter("storage.prune.versions")
	c.prunedEntries = r.Counter("storage.prune.index_entries")
	c.groups.SetAdmissionWaits(r.Counter("resgroup.admission_waits"))
}

// registerGauges wires the computed metrics. Called once the topology is
// published (the closures fold over live segments).
func (c *Cluster) registerGauges() {
	r := c.metrics
	r.GaugeFunc("storage.scan.blocks_scanned", func() int64 {
		scanned, _ := c.ScanBlockStats()
		return scanned
	})
	r.GaugeFunc("storage.scan.blocks_skipped", func() int64 {
		_, skipped := c.ScanBlockStats()
		return skipped
	})
	r.GaugeFunc("storage.blockcache.hits", func() int64 { return c.BlockCacheStats().Hits })
	r.GaugeFunc("storage.blockcache.misses", func() int64 { return c.BlockCacheStats().Misses })
	r.GaugeFunc("storage.blockcache.evictions", func() int64 { return c.BlockCacheStats().Evictions })
	r.GaugeFunc("storage.blockcache.used_bytes", func() int64 { return c.BlockCacheStats().UsedBytes })
	r.GaugeFunc("storage.blockcache.entries", func() int64 { return int64(c.BlockCacheStats().Entries) })
	r.GaugeFunc("wal.records", func() int64 { return c.WALStats().Records })
	r.GaugeFunc("wal.bytes", func() int64 { return c.WALStats().Bytes })
	r.GaugeFunc("wal.flushes", func() int64 { return c.WALStats().Flushes })
	r.GaugeFunc("wal.mirror_applied_lsn", func() int64 { return int64(c.WALStats().MirrorAppliedLSN) })
	r.GaugeFunc("wal.replay_lsn", func() int64 { return int64(c.replayLSN.Load()) })
	r.GaugeFunc("cluster.segments", func() int64 { return int64(c.SegCount()) })
	r.GaugeFunc("dtm.horizon_age", c.coord.HorizonAge)
	r.GaugeFunc("fault.enabled", func() int64 {
		if c.FaultStats().Enabled {
			return 1
		}
		return 0
	})
	r.GaugeFunc("fault.armed", func() int64 { return int64(c.FaultStats().Armed) })
	r.GaugeFunc("fault.hits", func() int64 { return c.FaultStats().Hits })
	r.GaugeFunc("fault.triggers", func() int64 { return c.FaultStats().Triggers })
	r.GaugeFunc("fault.breaker_opens", func() int64 { return c.FaultStats().BreakerOpens })
	r.GaugeFunc("fault.breaker_fast_fails", func() int64 { return c.FaultStats().BreakerFastFails })
	r.GaugeFunc("fault.breakers_open", func() int64 {
		var open int64
		for _, b := range c.BreakerStatuses() {
			if b.State != fault.BreakerClosed {
				open++
			}
		}
		return open
	})
	r.GaugeFunc("expand.rows_moved", func() int64 { return c.ExpandStatus().RowsMoved })
	r.GaugeFunc("expand.tables_done", func() int64 { return int64(c.ExpandStatus().TablesDone) })
	r.GaugeFunc("expand.restarts", func() int64 { return c.ExpandStatus().Restarts })
	r.GaugeFunc("lock.waits", func() int64 {
		_, waits := c.LockWaitStats()
		return waits
	})
	r.GaugeFunc("lock.wait_seconds_total", func() int64 {
		waited, _ := c.LockWaitStats()
		return int64(waited.Seconds())
	})
	r.GaugeFunc("gdd.deadlocks", func() int64 {
		_, deadlocks, _, _ := c.GDDStats()
		return deadlocks
	})
}

// Metrics returns the cluster's observability registry.
func (c *Cluster) Metrics() *obs.Registry { return c.metrics }
