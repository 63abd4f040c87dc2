package server

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/types"
)

// countingConn counts the Write calls made on one end of a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestOneWritePerResponse runs a session over an in-memory pipe and checks
// that every response — however many frames it holds — reaches the socket
// in exactly one write.
func TestOneWritePerResponse(t *testing.T) {
	e := core.NewEngine(cluster.GPDB6(2))
	t.Cleanup(e.Close)
	s := New(e, Config{})
	srvEnd, cli := net.Pipe()
	defer cli.Close()
	cc := &countingConn{Conn: srvEnd}
	s.wg.Add(1)
	done := make(chan struct{})
	go func() {
		s.handleConn(cc)
		close(done)
	}()

	// send writes one frame in one pipe write: a separate empty payload
	// write could still be pending when the server closes the pipe.
	send := func(typ byte, payload []byte) error {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			return err
		}
		_, err := cli.Write(buf.Bytes())
		return err
	}
	// exchange sends one frame, reads the response up to the frame that
	// ends it, and checks the frame types and the server's write count.
	exchange := func(what string, typ byte, payload []byte, want ...byte) {
		t.Helper()
		before := cc.writes.Load()
		if err := send(typ, payload); err != nil {
			t.Fatalf("%s: write: %v", what, err)
		}
		var got []byte
		for len(got) < len(want) {
			typ, _, err := ReadFrame(cli)
			if err != nil {
				t.Fatalf("%s: read after %q: %v", what, got, err)
			}
			got = append(got, typ)
			if typ != want[len(got)-1] {
				t.Fatalf("%s: frames %q, want %q", what, got, want)
			}
		}
		if n := cc.writes.Load() - before; n != 1 {
			t.Errorf("%s: %d socket writes for %d frames, want 1", what, n, len(want))
		}
	}
	query := func(sql string) []byte { return (&Query{SQL: sql}).Encode() }

	exchange("handshake", MsgStartup, (&Startup{Version: ProtocolVersion}).Encode(), MsgAuthOK, MsgReady)
	exchange("create", MsgQuery, query("CREATE TABLE w (a int) DISTRIBUTED BY (a)"), MsgComplete, MsgReady)
	exchange("insert", MsgQuery, query("INSERT INTO w VALUES (1), (2), (3)"), MsgComplete, MsgReady)
	exchange("select", MsgQuery, query("SELECT a FROM w ORDER BY a"),
		MsgRowDesc, MsgDataRow, MsgDataRow, MsgDataRow, MsgComplete, MsgReady)
	exchange("error", MsgQuery, query("SELEC 1"), MsgError, MsgReady)
	exchange("parse", MsgParse, (&Parse{Name: "p", SQL: "SELECT a FROM w WHERE a = $1"}).Encode(), MsgParseOK)
	exchange("bind", MsgBind, (&Bind{Name: "p", Params: []types.Datum{types.NewInt(2)}}).Encode(), MsgBindOK)
	exchange("execute", MsgExecute, nil, MsgRowDesc, MsgDataRow, MsgComplete, MsgReady)

	if err := send(MsgTerminate, nil); err != nil {
		t.Fatal(err)
	}
	<-done
}
