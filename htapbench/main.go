// Command htapbench is the repository's benchmark: TPC-B and CH-benCHmark
// workloads driven over the wire protocol into a fresh two-segment GPDB6
// engine in raw cost mode. With -trace 0 it prints the end-to-end metrics;
// with -trace 1 it runs the workload once untraced and once traced and
// prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . -workload tpcb -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupRepeats is how many times a run boots and loads a fresh engine;
// setup_s is the median, and the last engine is the one measured.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: tpcb, ch-olap or ch-htap")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	flag.Parse()
	w, err := lookup(*name)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("bad -seconds %d or -trace %d", *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "htapbench:", err)
		os.Exit(2)
	}
	ctx := context.Background()
	d := time.Duration(*seconds) * time.Second
	var rep *report
	if *trace == 0 {
		rep, err = endToEnd(ctx, w, *seed, d)
	} else {
		rep, err = perLayer(ctx, w, *seed, d, filepath.Join(".bench_build", "trace", w.name+".tsv"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "htapbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "htapbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// endToEnd sets up setupRepeats fresh engines, measures the last one
// untraced and reports the end-to-end metrics.
func endToEnd(ctx context.Context, w *workloadDef, seed uint64, d time.Duration) (*report, error) {
	var setups []time.Duration
	var e *env
	for i := 0; i < setupRepeats; i++ {
		settle()
		t0 := time.Now()
		got, err := setUp(ctx, w, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		if i < setupRepeats-1 {
			got.close()
		} else {
			e = got
		}
	}
	defer e.close()
	r, err := execute(ctx, w, e, seed, d, nil, &memo{})
	if err != nil {
		return nil, err
	}
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
	m := endToEndMetrics(w, r)
	m["setup_s"] = metric{setups[len(setups)/2].Seconds(), "s"}
	m["mem_live_mb"] = metric{liveHeapMiB(), "MiB"}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d transactions, %d requests; set-ups %v\n",
		w.name, seed, len(r.txns), r.requests, setups)
	return &report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// endToEndMetrics computes the run's throughput and latency metrics, each
// as the median over slices of the window (see sliceMedian).
func endToEndMetrics(w *workloadDef, r *runner) map[string]metric {
	groups := r.queryGroups(w)
	var all []sample
	for _, g := range groups {
		all = append(all, g...)
	}
	return map[string]metric{
		"txn_per_s":        {sliceMedian(r.txns, r.window, perSecond), "1/s"},
		"txn_p50_ms":       {sliceMedian(r.txns, r.window, quantileMs(0.50)), "ms"},
		"txn_p99_ms":       {sliceMedian(r.txns, r.window, quantileMs(0.99)), "ms"},
		"query_per_h":      {sliceMedian(all, r.window, perSecond) * 3600, "1/h"},
		"query_geomean_ms": {ms(geomeanMedian(groups)), "ms"},
	}
}

// perLayer runs the workload twice on fresh engines with the same seed:
// untraced, for the counter, probe and runtime metrics, then traced, for
// the span metrics and the tracing overhead. The spans are written to
// spansPath.
func perLayer(ctx context.Context, w *workloadDef, seed uint64, d time.Duration, spansPath string) (*report, error) {
	e, err := setUp(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	m := &memo{}
	plain, err := execute(ctx, w, e, seed, d, nil, m)
	if err != nil {
		e.close()
		return nil, err
	}
	lm, err := counterMetrics(ctx, w, plain)
	e.close()
	if err != nil {
		return nil, err
	}

	settle()
	e, err = setUp(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer(e.engine.Activity())
	traced, err := execute(ctx, w, e, seed, d, tr, m)
	e.close()
	if err != nil {
		return nil, err
	}
	computeSelf(tr.spans)
	for k, v := range spanMetrics(tr) {
		lm[k] = v
	}
	lm["trace.overhead_frac"] = metric{1 - ratio(float64(traced.closed), float64(plain.closed)), "ratio"}
	if err := writeSpans(spansPath, tr.spans); err != nil {
		fmt.Fprintln(os.Stderr, "htapbench: writing spans:", err)
	} else {
		fmt.Fprintf(os.Stderr, "%s seed %d: %d spans written to %s\n", w.name, seed, len(tr.spans), spansPath)
	}
	return &report{
		Correct:   plain.failed == 0 && traced.failed == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   lm,
	}, nil
}
