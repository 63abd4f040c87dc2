package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/types"
)

// warmup runs before every measured window so caches fill and lazy set-up
// finishes; its operations are checked but not timed.
const warmup = time.Second

// workloadDef is one benchmark workload.
type workloadDef struct {
	name  string
	conns int                 // load-generating connections
	kind  func(string) string // statement classifier for per-kind samples
	// stmtQueries, when set, makes the query metrics come from these
	// statement kinds instead of OLAP queries.
	stmtQueries []string
	// hot names the two tables whose versions per live row are reported.
	hot   [2]string
	setup func(ctx context.Context, e *env, seed uint64) error
	// run prepares its connections, calls r.startClock, drives the load
	// until r.end and runs the end-of-run checks. Failed operations and
	// checks go to r.fail/r.check; an error means the run itself broke.
	run func(ctx context.Context, r *runner) error
}

var workloads = []*workloadDef{tpcbWorkload, chOLAPWorkload, chHTAPWorkload}

func lookup(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// memo holds what one process computes once and reuses across its runs,
// which all load the same data from the same seed.
type memo struct {
	olapReference [][]types.Row // ch-olap answers with enable_costopt off
}

// runner is one measured run: a warm-up, then the window [warmEnd, end).
type runner struct {
	env    *env
	seed   uint64
	conns  []*conn
	window time.Duration

	start, warmEnd, end time.Time
	meterDone           chan struct{}
	before, after       probe

	memo *memo

	mu        sync.Mutex
	txns      []sample        // transactions completed in the window
	queries   [][]sample      // OLAP queries, by query number
	requests  int             // requests completed in the window
	closed    int             // of which closed-loop
	late      []time.Duration // open-loop send lateness
	attempted int64
	failed    int64
	failures  []string
}

// startClock begins the warm-up and schedules the window's probes.
func (r *runner) startClock() {
	settle()
	r.start = time.Now()
	r.warmEnd = r.start.Add(warmup)
	r.end = r.warmEnd.Add(r.window)
	for _, b := range r.conns {
		b.origin = r.warmEnd
	}
	r.meterDone = make(chan struct{})
	go func() {
		defer close(r.meterDone)
		time.Sleep(time.Until(r.warmEnd))
		r.before = takeProbe(r.env)
		time.Sleep(time.Until(r.end))
		r.after = takeProbe(r.env)
	}()
}

func (r *runner) inWindow(t time.Time) bool { return !t.Before(r.warmEnd) }

// counted reports whether an operation begun at t0 and finished at t1
// belongs to the window.
func (r *runner) counted(t0, t1 time.Time) bool { return r.inWindow(t0) && !t1.After(r.end) }

// txnDone records a closed-loop transaction.
func (r *runner) txnDone(t0 time.Time, lat time.Duration, closedLoop bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if r.counted(t0, t0.Add(lat)) {
		r.txns = append(r.txns, r.sample(t0.Add(lat), lat))
		r.requests++
		if closedLoop {
			r.closed++
		}
	}
}

// openDone records an open-loop transaction, timed from when it was due.
func (r *runner) openDone(due, sent, done time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if r.counted(due, done) {
		r.txns = append(r.txns, r.sample(done, done.Sub(due)))
		r.late = append(r.late, sent.Sub(due))
		r.requests++
	}
}

// queryDone records an OLAP query; asTxn also counts it as a read-only
// transaction (workloads without OLTP transactions).
func (r *runner) queryDone(k int, t0 time.Time, lat time.Duration, asTxn bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !r.counted(t0, t0.Add(lat)) {
		return
	}
	for len(r.queries) <= k {
		r.queries = append(r.queries, nil)
	}
	s := r.sample(t0.Add(lat), lat)
	r.queries[k] = append(r.queries[k], s)
	r.requests++
	r.closed++
	if asTxn {
		r.txns = append(r.txns, s)
	}
}

func (r *runner) sample(done time.Time, lat time.Duration) sample {
	return sample{at: done.Sub(r.warmEnd), lat: lat}
}

// fail counts a failed operation.
func (r *runner) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
}

// check counts one correctness check.
func (r *runner) check(ok bool, format string, args ...any) {
	if ok {
		r.mu.Lock()
		r.attempted++
		r.mu.Unlock()
		return
	}
	r.fail(fmt.Errorf(format, args...))
}

// queryGroups returns the sample groups the query metrics summarize.
func (r *runner) queryGroups(w *workloadDef) [][]sample {
	if w.stmtQueries == nil {
		return r.queries
	}
	var out [][]sample
	for _, k := range w.stmtQueries {
		var g []sample
		for _, b := range r.conns {
			g = append(g, b.stmts[k]...)
		}
		out = append(out, g)
	}
	return out
}

// setUp boots a fresh engine and runs the workload's set-up on it.
func setUp(ctx context.Context, w *workloadDef, seed uint64) (*env, error) {
	e, err := boot()
	if err != nil {
		return nil, err
	}
	if err := w.setup(ctx, e, seed); err != nil {
		e.close()
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return e, nil
}

// execute dials the workload's connections on a set-up engine and runs it
// for a window of d; tr, when non-nil, traces the run.
func execute(ctx context.Context, w *workloadDef, e *env, seed uint64, d time.Duration, tr *tracer, m *memo) (*runner, error) {
	cs, err := e.dial(w.conns)
	if err != nil {
		return nil, err
	}
	r := &runner{env: e, seed: seed, window: d, memo: m}
	for i, c := range cs {
		b := newConn(c, w.kind)
		if tr != nil {
			if err := b.enableTrace(ctx, tr, i); err != nil {
				return nil, err
			}
		}
		r.conns = append(r.conns, b)
	}
	if err := w.run(ctx, r); err != nil {
		return nil, err
	}
	if r.meterDone == nil {
		return nil, fmt.Errorf("%s: run never started its clock", w.name)
	}
	<-r.meterDone
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "failure:", f)
	}
	return r, nil
}

// enableTrace turns trace_queries on for the connection and learns its
// engine session from a marker statement.
func (b *conn) enableTrace(ctx context.Context, tr *tracer, n int) error {
	if _, err := b.c.Exec(ctx, "SET trace_queries = on"); err != nil {
		return fmt.Errorf("SET trace_queries: %w", err)
	}
	marker := fmt.Sprintf("SET application_name = 'htapbench-%d'", n)
	if _, err := b.c.Exec(ctx, marker); err != nil {
		return fmt.Errorf("%s: %w", marker, err)
	}
	sess, err := tr.learnSession(marker)
	if err != nil {
		return err
	}
	b.tr, b.sess = tr, sess
	return nil
}

// probe is process and engine state read at a window boundary.
type probe struct {
	at        time.Time
	cpu       time.Duration // user+system CPU of the whole process
	reg       obs.Snapshot
	lockWait  time.Duration
	lockWaits int64
	rt        []metrics.Sample
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func takeProbe(e *env) probe {
	p := probe{at: time.Now(), reg: e.engine.Metrics().Snapshot()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	p.lockWait, p.lockWaits = e.engine.Cluster().LockWaitStats()
	p.rt = make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		p.rt[i].Name = n
	}
	metrics.Read(p.rt)
	return p
}

// rtValue returns runtime metric i of the probe as a float.
func (p probe) rtValue(i int) float64 {
	v := p.rt[i].Value
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

// liveHeapMiB forces a collection and returns the live Go heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
