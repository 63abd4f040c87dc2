package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed region of the traced run. Client spans (a request, a
// statement) are recorded by the benchmark around its calls into the wire
// client; engine spans are harvested from the engine's trace_queries ring
// and attached under the client statement span they belong to. All spans
// of one request share req. start is relative to the tracer's origin.
type span struct {
	id, parent, req int32
	name            string
	seg             int
	start, dur      time.Duration
	self            time.Duration // filled by computeSelf
}

// Name prefixes of the benchmark's own client spans.
const (
	spanRequest = "request "
	spanStmt    = "stmt "
)

// tracer collects the spans of one traced run. Connections call it from
// their own goroutines, so every method locks.
type tracer struct {
	acts   *obs.Activity
	origin time.Time

	mu    sync.Mutex
	spans []span // spans[i].id == i+1

	seen    map[uint64]bool         // engine query ids already harvested
	sessOf  map[uint64]uint64       // query id -> engine session, from history
	pending map[uint64][]*obs.Trace // harvested, not yet claimed, by session

	engineStmts int // client statements matched to an engine trace
	lost        int // successful statements whose engine trace was missing
	unparsed    int // traces whose operator spans did not form a plan tree
}

func newTracer(acts *obs.Activity) *tracer {
	return &tracer{
		acts:    acts,
		origin:  time.Now(),
		seen:    make(map[uint64]bool),
		sessOf:  make(map[uint64]uint64),
		pending: make(map[uint64][]*obs.Trace),
	}
}

func (t *tracer) add(s span) int32 {
	s.id = int32(len(t.spans) + 1)
	if s.req == 0 {
		s.req = s.id
	}
	t.spans = append(t.spans, s)
	return s.id
}

// open starts a request span; close ends it.
func (t *tracer) open(name string, at time.Time) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.add(span{name: spanRequest + name, seg: -1, start: at.Sub(t.origin)})
}

func (t *tracer) close(id int32, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.dur = at.Sub(t.origin) - s.start
}

// statement records one client statement span under the connection's open
// request and attaches the engine's trace of it. BEGIN/COMMIT/ROLLBACK are
// handled by the session before query observation starts, so they have no
// engine trace.
func (t *tracer) statement(b *conn, sqlText string, t0, t1 time.Time, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.add(span{parent: b.req, req: b.req, name: spanStmt + b.kind(sqlText), seg: -1,
		start: t0.Sub(t.origin), dur: t1.Sub(t0)})
	if !ok || txnControl(sqlText) {
		return
	}
	t.poll()
	// Older traces of the session belong to statements sent around the
	// benchmark's own spans (session settings); skip them.
	q := t.pending[b.sess]
	for len(q) > 0 && q[0].SQL != sqlText {
		q = q[1:]
	}
	if len(q) == 0 {
		t.pending[b.sess] = nil
		t.lost++
		return
	}
	t.pending[b.sess] = q[1:]
	t.attach(id, t.spans[id-1].req, q[0])
}

// learnSession finds the engine session that ran marker (a statement text
// unique to one connection) in the query history.
func (t *tracer) learnSession(marker string) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rec := range t.acts.History(0) {
		if rec.SQL == marker {
			t.poll()
			delete(t.pending, rec.Session) // the marker's own trace
			return rec.Session, nil
		}
	}
	return 0, fmt.Errorf("trace: marker %q not in query history", marker)
}

// harvestWindow is how many of the newest history records and traces one
// poll reads. The engine keeps 64 traces; with at most two connections
// polling after every statement, far fewer than this arrive between polls.
const harvestWindow = 32

// poll copies new traces out of the engine's ring. Caller holds t.mu.
func (t *tracer) poll() {
	for _, rec := range t.acts.History(harvestWindow) {
		if !t.seen[rec.QueryID] {
			t.sessOf[rec.QueryID] = rec.Session
		}
	}
	traces := t.acts.Traces().Recent(harvestWindow)
	for i := len(traces) - 1; i >= 0; i-- { // oldest first
		tr := traces[i]
		if t.seen[tr.QueryID] {
			continue
		}
		sess, ok := t.sessOf[tr.QueryID]
		if !ok {
			continue // its history record is not visible yet; next poll
		}
		t.seen[tr.QueryID] = true
		delete(t.sessOf, tr.QueryID)
		t.pending[sess] = append(t.pending[sess], tr)
	}
}

// attach copies an engine trace under client statement span stmt. Operator
// spans arrive flat under the execute span, each carrying its inclusive
// time from the statement start; they are rebuilt into the plan tree (see
// opTree) so self time can be taken the same way as for timed spans.
func (t *tracer) attach(stmt, req int32, tr *obs.Trace) {
	t.engineStmts++
	ids := make(map[obs.SpanID]int32)
	var ops []obs.Span
	var opParent int32
	for _, s := range tr.Spans() {
		parent := stmt
		// The parse span ends where the query span starts, so it hangs
		// under the statement beside the query span; the statement's self
		// time is then the wire and session share alone.
		if s.Parent != 0 && s.Name != "parse" {
			p, ok := ids[s.Parent]
			if !ok {
				continue
			}
			parent = p
			if t.spans[p-1].name == "execute" && !dispatchSpan(s.Name) {
				ops = append(ops, s)
				opParent = p
				continue
			}
		}
		ids[s.ID] = t.add(span{parent: parent, req: req, name: s.Name, seg: s.Seg,
			start: s.Start.Sub(t.origin), dur: s.Dur})
	}
	if len(ops) == 0 {
		return
	}
	nodes, ok := opTree(ops)
	if !ok {
		t.unparsed++
		return
	}
	base := t.spans[opParent-1].start
	// A Motion's child runs in the sending slice, beside the other senders,
	// so every sender starts with the Motion. Inside one slice an operator
	// pulls its children one after another (a join's build side, then its
	// probe side), so at each location they are laid end to end.
	var place func(n *opNode, parents map[int]int32, at map[int]time.Duration)
	place = func(n *opNode, parents map[int]int32, at map[int]time.Duration) {
		mine := make(map[int]int32, len(n.spans)+1)
		next := make(map[int]time.Duration, len(n.spans)+1)
		for _, s := range n.spans {
			p, ok := parents[s.Seg]
			if !ok {
				p = parents[anyKey]
			}
			st, ok := at[s.Seg]
			if !ok {
				st = at[anyKey]
			}
			mine[s.Seg] = t.add(span{parent: p, req: req, name: s.Name, seg: s.Seg, start: st, dur: s.Dur})
			next[s.Seg] = st
		}
		first := n.spans[0].Seg
		mine[anyKey], next[anyKey] = mine[first], next[first]
		for _, ch := range n.children {
			if n.motion {
				place(ch, mine, map[int]time.Duration{anyKey: next[anyKey]})
				continue
			}
			at := make(map[int]time.Duration, len(next))
			for k, v := range next {
				at[k] = v
			}
			place(ch, mine, at)
			for _, s := range ch.spans {
				if _, ok := next[s.Seg]; !ok {
					next[s.Seg] = next[anyKey]
				}
				next[s.Seg] += s.Dur
			}
		}
	}
	for _, n := range nodes {
		place(n, map[int]int32{anyKey: opParent}, map[int]time.Duration{anyKey: base})
	}
}

// anyKey is the parents-map key for "the node's first location", used when
// a child runs where its parent has no span (across a Motion).
const anyKey = -2

// dispatchSpan reports whether an execute-span child is a timed dispatch
// span (a slice or a DML write on one segment) rather than an operator.
func dispatchSpan(name string) bool {
	return strings.HasPrefix(name, "slice ") || name == "insert" || name == "update" || name == "delete"
}

// txnControl reports whether a statement is transaction control, which the
// engine runs without a trace.
func txnControl(sqlText string) bool {
	switch strings.ToUpper(strings.TrimSpace(sqlText)) {
	case "BEGIN", "COMMIT", "ROLLBACK":
		return true
	}
	return false
}

// opNode is one plan node rebuilt from its operator spans (one per location
// where it ran).
type opNode struct {
	spans    []obs.Span
	children []*opNode
	motion   bool
}

// opArity gives a plan node's child count from its EXPLAIN name.
func opArity(name string) int {
	switch {
	case strings.HasPrefix(name, "Seq Scan"), strings.HasPrefix(name, "Index Scan"), name == "Result":
		return 0
	case strings.HasPrefix(name, "Hash Join"), strings.HasPrefix(name, "Nested Loop"):
		return 2
	}
	return 1
}

// opTree rebuilds the plan tree from operator spans. The engine emits them
// in plan pre-order, each node's locations in ascending order (coordinator
// first), and skips nodes that did no work at all; a skipped node under a
// join makes the order ambiguous, which is reported as ok=false.
func opTree(spans []obs.Span) ([]*opNode, bool) {
	var groups []*opNode
	for i, s := range spans {
		if i == 0 || s.Name != spans[i-1].Name || s.Seg <= spans[i-1].Seg {
			groups = append(groups, &opNode{motion: strings.Contains(s.Name, "Motion")})
		}
		g := groups[len(groups)-1]
		g.spans = append(g.spans, s)
	}
	pos := 0
	var build func() *opNode
	build = func() *opNode {
		if pos >= len(groups) {
			return nil
		}
		n := groups[pos]
		pos++
		for k := opArity(n.spans[0].Name); k > 0; k-- {
			ch := build()
			if ch == nil {
				return nil
			}
			n.children = append(n.children, ch)
		}
		return n
	}
	var roots []*opNode
	for pos < len(groups) {
		n := build()
		if n == nil {
			return nil, false
		}
		roots = append(roots, n)
	}
	return roots, len(roots) == 1
}

// computeSelf sets every span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals.
func computeSelf(spans []span) {
	kids := make([][]int32, len(spans)+1)
	for _, s := range spans {
		if s.parent > 0 {
			kids[s.parent] = append(kids[s.parent], s.id)
		}
	}
	type iv struct{ a, b time.Duration }
	for i := range spans {
		s := &spans[i]
		lo, hi := s.start, s.start+s.dur
		var ivs []iv
		for _, k := range kids[s.id] {
			c := spans[k-1]
			a, b := max(c.start, lo), min(c.start+c.dur, hi)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, end := time.Duration(0), lo
		for _, v := range ivs {
			if v.a > end {
				end = v.a
			}
			if v.b > end {
				covered += v.b - end
				end = v.b
			}
		}
		s.self = s.dur - covered
	}
}

// writeSpans dumps the spans as tab-separated lines (times in
// microseconds).
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id\tparent\treq\tseg\tstart_us\tdur_us\tself_us\tname")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.1f\t%.1f\t%.1f\t%s\n",
			s.id, s.parent, s.req, s.seg, us(s.start), us(s.dur), us(s.self), s.name)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
