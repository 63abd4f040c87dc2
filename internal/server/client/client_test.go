package client

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/types"
)

// countingConn counts the Write calls made on a socket.
type countingConn struct {
	net.Conn
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// TestOneWritePerRequest checks that every request frame the client sends
// — startup, query, parse, bind, execute, close, terminate — leaves in one
// socket write.
func TestOneWritePerRequest(t *testing.T) {
	e := core.NewEngine(cluster.GPDB6(2))
	t.Cleanup(e.Close)
	srv := server.New(e, server.Config{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	c, err := handshake(cc, "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	step := func(what string, requests int, fn func() error) {
		t.Helper()
		before := cc.writes
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if n := cc.writes - before; n != requests {
			t.Errorf("%s: %d socket writes for %d request frames", what, n, requests)
		}
	}
	if cc.writes != 1 {
		t.Errorf("startup: %d socket writes, want 1", cc.writes)
	}
	ctx := context.Background()
	step("query", 1, func() error {
		_, err := c.Exec(ctx, "CREATE TABLE w (a int) DISTRIBUTED BY (a)")
		return err
	})
	var st *Stmt
	step("parse", 1, func() (err error) {
		st, err = c.Prepare("p", "INSERT INTO w VALUES ($1)")
		return err
	})
	step("bind+execute", 2, func() error {
		_, err := st.Exec(ctx, types.NewInt(1))
		return err
	})
	step("close statement", 1, st.Close)
	step("terminate", 1, c.Close)
}
