package core

import (
	"container/list"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/sql"
)

// StmtCache is the engine-wide shared parse/plan cache. Parsing dominates
// the SQL-level benches, so every session — embedded and network alike —
// resolves statement text through here before touching the lexer: the
// parsed AST is cached under the normalized SQL text in a bounded LRU, and
// the AST is shared read-only by all sessions (the binder never mutates
// it). Param-free SELECT plans are cached alongside their AST, keyed by the
// cluster's catalog/stats epoch plus the session's planner-relevant
// settings, so DDL, ANALYZE and SET enable_costopt-style changes each force
// a re-plan without any explicit invalidation hooks. Parameterized
// statements re-plan per execution (the binder folds $N values into the
// plan as constants) but still skip the parse.
type StmtCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List               // of *stmtEntry; front = most recent
	entries map[string]*list.Element // normalized SQL → element

	hits       atomic.Int64 // parse-level lookups answered from cache
	misses     atomic.Int64 // parse-level lookups that ran the parser
	planHits   atomic.Int64 // plan-level lookups answered from cache
	planMisses atomic.Int64 // plan-level lookups that ran the planner
	evictions  atomic.Int64
}

// stmtEntry is one cached statement: the shared parsed AST, its String()
// form (the misestimate/plan key, computed once), and any cached plans.
type stmtEntry struct {
	key  string
	stmt sql.Statement
	str  string

	planMu sync.Mutex
	plans  map[string]*plan.Planned
}

// NewStmtCache builds a cache bounded to capacity statements; capacity < 0
// disables caching (every lookup parses).
func NewStmtCache(capacity int) *StmtCache {
	return &StmtCache{
		cap:     capacity,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
	}
}

// StmtCacheStats is a counter snapshot.
type StmtCacheStats struct {
	// Hits/Misses are parse-level: a hit skipped the lexer+parser.
	Hits, Misses int64
	// PlanHits/PlanMisses are plan-level (param-free SELECTs only): a hit
	// skipped the planner.
	PlanHits, PlanMisses int64
	Evictions            int64
	Entries              int
}

// HitRate is hits over lookups at the parse level (0 when idle).
func (s StmtCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the counters.
func (c *StmtCache) Stats() StmtCacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return StmtCacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		PlanHits:   c.planHits.Load(),
		PlanMisses: c.planMisses.Load(),
		Evictions:  c.evictions.Load(),
		Entries:    n,
	}
}

// parse returns the shared parsed statement for sqlText, running the
// parser and inserting on miss. The returned entry is nil when caching is
// disabled, the text failed to parse, or it is a literal-row INSERT: such
// a statement carries its data in its text, so the same text almost never
// comes back, and caching it would only pin a bulk load's batches.
func (c *StmtCache) parse(sqlText string) (sql.Statement, *stmtEntry, error) {
	if c == nil || c.cap < 0 {
		st, err := sql.Parse(sqlText)
		return st, nil, err
	}
	key := normalizeSQL(sqlText)
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*stmtEntry)
		c.mu.Unlock()
		c.hits.Add(1)
		return e.stmt, e, nil
	}
	c.mu.Unlock()
	c.misses.Add(1)
	st, err := sql.Parse(sqlText)
	if err != nil {
		return nil, nil, err
	}
	if literalInsert(st) {
		return st, nil, nil
	}
	e := &stmtEntry{key: key, stmt: st, str: st.String()}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		// Raced another session parsing the same text; keep the first.
		c.lru.MoveToFront(el)
		e = el.Value.(*stmtEntry)
	} else {
		c.entries[key] = c.lru.PushFront(e)
		for len(c.entries) > c.cap && c.cap > 0 {
			back := c.lru.Back()
			c.lru.Remove(back)
			delete(c.entries, back.Value.(*stmtEntry).key)
			c.evictions.Add(1)
		}
	}
	c.mu.Unlock()
	return e.stmt, e, nil
}

// literalInsert reports whether st is an INSERT … VALUES with no $N
// parameter in any row.
func literalInsert(st sql.Statement) bool {
	ins, ok := st.(*sql.InsertStmt)
	if !ok || len(ins.Rows) == 0 {
		return false
	}
	for _, row := range ins.Rows {
		if anyParam(row) {
			return false
		}
	}
	return true
}

// hasParam reports whether e contains a $N parameter. An expression kind
// it does not know counts as parameterized, which keeps it cached.
func hasParam(e sql.Expr) bool {
	switch x := e.(type) {
	case *sql.Literal, *sql.ColumnRef:
		return false
	case *sql.BinaryOp:
		return hasParam(x.Left) || hasParam(x.Right)
	case *sql.UnaryOp:
		return hasParam(x.Operand)
	case *sql.IsNullExpr:
		return hasParam(x.Operand)
	case *sql.BetweenExpr:
		return hasParam(x.Operand) || hasParam(x.Lo) || hasParam(x.Hi)
	case *sql.InExpr:
		return hasParam(x.Operand) || anyParam(x.List)
	case *sql.FuncCall:
		return anyParam(x.Args)
	case *sql.CaseExpr:
		for _, w := range x.Whens {
			if hasParam(w.Cond) || hasParam(w.Then) {
				return true
			}
		}
		return x.Else != nil && hasParam(x.Else)
	}
	return true // *sql.Param, or a kind added later
}

func anyParam(es []sql.Expr) bool {
	for _, e := range es {
		if hasParam(e) {
			return true
		}
	}
	return false
}

// lookupPlan returns the cached plan for planKey, or nil.
func (e *stmtEntry) lookupPlan(c *StmtCache, planKey string) *plan.Planned {
	e.planMu.Lock()
	pl := e.plans[planKey]
	e.planMu.Unlock()
	if pl != nil {
		c.planHits.Add(1)
	} else {
		c.planMisses.Add(1)
	}
	return pl
}

// storePlan caches a freshly built plan, dropping plans from other epochs
// (they can never be looked up again — their epoch is gone for good).
func (e *stmtEntry) storePlan(planKey string, pl *plan.Planned) {
	epoch, _, _ := strings.Cut(planKey, "|")
	e.planMu.Lock()
	if e.plans == nil {
		e.plans = make(map[string]*plan.Planned)
	}
	for k := range e.plans {
		if ep, _, _ := strings.Cut(k, "|"); ep != epoch {
			delete(e.plans, k)
		}
	}
	e.plans[planKey] = pl
	e.planMu.Unlock()
}

// planFingerprint builds the plan-cache key: the catalog/stats epoch first
// (storePlan prunes on it), then every session setting that changes plan
// shape. Two sessions with identical settings share plans.
func planFingerprint(epoch uint64, p *plan.Planner, robust bool) string {
	return fmt.Sprintf("%d|%s|%d|%t|%t|%d|%t",
		epoch, p.Optimizer, p.Parallelism, p.Pushdown, p.CostOpt,
		p.BroadcastThreshold, robust)
}

// normalizeSQL canonicalizes statement text for cache keying: whitespace
// runs collapse to one space, everything outside single-quoted strings is
// case-folded (this engine's identifiers are case-insensitive), and
// trailing semicolons/space are trimmed. Literals keep their exact bytes, so
// two statements differing only in a quoted value stay distinct keys.
func normalizeSQL(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	inStr := false
	lastSpace := true // leading whitespace collapses into nothing
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if inStr {
			b.WriteByte(ch)
			if ch == '\'' {
				inStr = false
			}
			continue
		}
		switch {
		case ch == '\'':
			inStr = true
			b.WriteByte(ch)
			lastSpace = false
		case ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r':
			if !lastSpace {
				b.WriteByte(' ')
				lastSpace = true
			}
		default:
			if ch >= 'A' && ch <= 'Z' {
				ch += 'a' - 'A'
			}
			b.WriteByte(ch)
			lastSpace = false
		}
	}
	return strings.TrimRight(b.String(), "; ")
}
