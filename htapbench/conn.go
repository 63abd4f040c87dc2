package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/server/client"
	"repro/internal/types"
)

// conn is one load-generating connection. It implements workload.Conn so
// the repository's TPC-B and CH-benCHmark drivers run over it unchanged,
// times every statement while the window is open, and in a traced run
// records a span around every request and statement.
type conn struct {
	c *client.Client
	// kind names a statement for the per-kind latency samples.
	kind func(sqlText string) string

	measuring bool
	origin    time.Time           // window start; sample times count from it
	stmts     map[string][]sample // by statement kind
	texts     map[string]bool     // distinct texts, up to maxTexts

	tr   *tracer // nil in untraced runs
	sess uint64  // engine session id (traced runs)
	req  int32   // open request span (traced runs)
}

func newConn(c *client.Client, kind func(string) string) *conn {
	return &conn{c: c, kind: kind, stmts: make(map[string][]sample), texts: make(map[string]bool)}
}

// maxTexts bounds the statement texts kept for the parser probe.
const maxTexts = 256

// Exec implements workload.Conn.
func (b *conn) Exec(ctx context.Context, sqlText string, args ...types.Datum) (int, []types.Row, error) {
	t0 := time.Now()
	res, err := b.c.Exec(ctx, sqlText, args...)
	t1 := time.Now()
	if b.measuring && err == nil {
		k := b.kind(sqlText)
		b.stmts[k] = append(b.stmts[k], sample{at: t1.Sub(b.origin), lat: t1.Sub(t0)})
		if len(b.texts) < maxTexts {
			b.texts[sqlText] = true
		}
	}
	if b.tr != nil {
		b.tr.statement(b, sqlText, t0, t1, err == nil)
	}
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", firstLine(sqlText), err)
	}
	return int(res.RowsAffected), res.Rows, nil
}

// request runs fn as one client request (a transaction or an OLAP query)
// and returns its latency. In a traced run the statements fn issues become
// children of the request span.
func (b *conn) request(name string, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	if b.tr != nil {
		b.req = b.tr.open(name, t0)
	}
	err := fn()
	t1 := time.Now()
	if b.tr != nil {
		b.tr.close(b.req, t1)
		b.req = 0
	}
	return t1.Sub(t0), err
}

// firstLine shortens a statement for error messages.
func firstLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i] + " ..."
	}
	if len(s) > 120 {
		s = s[:120] + " ..."
	}
	return s
}

// splitStatements splits a DDL script on semicolons.
func splitStatements(script string) []string {
	var out []string
	for _, st := range strings.Split(script, ";") {
		if st = strings.TrimSpace(st); st != "" {
			out = append(out, st)
		}
	}
	return out
}
