package interconnect

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/types"
)

func row(v int64) types.Row { return types.Row{types.NewInt(v)} }

func batch(vals ...int64) *types.RowBatch {
	b := types.NewRowBatch(len(vals))
	for _, v := range vals {
		b.Append(row(v))
	}
	return b
}

// recvAll drains a receiver until its stream closes, returning the values
// in arrival order.
func recvAll(t *testing.T, r *StreamReceiver) []int64 {
	t.Helper()
	var out []int64
	for {
		b, ok, err := r.RecvBatch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Live(i)[0].Int())
		}
	}
}

func TestGatherDeliversAllAndCloses(t *testing.T) {
	f := NewFabric(3, 16, 0)
	f.OpenGather(1, 3)
	ctx := context.Background()
	var wg sync.WaitGroup
	for seg := 0; seg < 3; seg++ {
		seg := seg
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer f.DoneSending(1)
			for i := 0; i < 10; i += 2 {
				v := int64(seg*100 + i)
				if err := f.SendBatch(ctx, 1, -1, batch(v, v+1)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// recvAll returns only once the last sender's DoneSending closed the
	// stream.
	got := recvAll(t, f.Receiver(1, -1))
	wg.Wait()
	if len(got) != 30 {
		t.Fatalf("received %d rows, want 30", len(got))
	}
	seen := map[int64]bool{}
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != 30 {
		t.Fatalf("received %d distinct rows, want 30", len(seen))
	}
	rows, bytes := f.Stats()
	if rows != 30 || bytes <= 0 {
		t.Fatalf("stats rows = %d bytes = %d", rows, bytes)
	}
	if n := f.BatchStats(); n != 15 {
		t.Fatalf("stream operations = %d, want 15", n)
	}
}

func TestFanOutRouting(t *testing.T) {
	f := NewFabric(2, 16, 0)
	f.OpenFanOut(2, 1)
	ctx := context.Background()
	// Send explicit destinations.
	for i := 0; i < 10; i++ {
		if err := f.SendBatch(ctx, 2, i%2, batch(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	f.DoneSending(2)
	for dest := 0; dest < 2; dest++ {
		got := recvAll(t, f.Receiver(2, dest))
		for _, v := range got {
			if int(v)%2 != dest {
				t.Fatalf("row %d misrouted to %d", v, dest)
			}
		}
		if len(got) != 5 {
			t.Fatalf("dest %d received %d", dest, len(got))
		}
	}
}

func TestFlowControlBlocksSender(t *testing.T) {
	f := NewFabric(1, 2, 0) // tiny buffer
	f.OpenGather(1, 1)
	ctx := context.Background()
	sent := make(chan int, 100)
	go func() {
		for i := 0; ; i++ {
			if err := f.SendBatch(ctx, 1, -1, batch(int64(i))); err != nil {
				return
			}
			sent <- i
		}
	}()
	time.Sleep(20 * time.Millisecond)
	// Buffer holds 2 batches; sender must be blocked on the third.
	if n := len(sent); n > 3 {
		t.Fatalf("sender ran ahead of flow control: %d sends", n)
	}
	// Draining unblocks it.
	r := f.Receiver(1, -1)
	for i := 0; i < 10; i++ {
		if _, ok, err := r.RecvBatch(ctx); err != nil || !ok {
			t.Fatalf("recv %d: %v %v", i, ok, err)
		}
	}
}

// TestSendBatchOnFullBufferHonorsCancel: a send into a full buffer blocks
// until the context ends and then returns the context's error, delivering
// and counting nothing.
func TestSendBatchOnFullBufferHonorsCancel(t *testing.T) {
	f := NewFabric(1, 1, 0)
	f.OpenGather(1, 1)
	if err := f.SendBatch(context.Background(), 1, -1, batch(1)); err != nil {
		t.Fatalf("first send should fit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := f.SendBatch(ctx, 1, -1, batch(2, 3)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("send on a full buffer: err = %v, want the context's error", err)
	}
	if rows, _ := f.Stats(); rows != 1 || f.BatchStats() != 1 {
		t.Fatalf("stats after a cancelled send: rows=%d batches=%d, want 1/1", rows, f.BatchStats())
	}
	f.DoneSending(1)
	if got := recvAll(t, f.Receiver(1, -1)); len(got) != 1 || got[0] != 1 {
		t.Fatalf("stream holds %v, want [1]", got)
	}
}

func TestRecvCancellation(t *testing.T) {
	f := NewFabric(1, 1, 0)
	f.OpenGather(1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	r := f.Receiver(1, -1)
	_, _, err := r.RecvBatch(ctx)
	if err == nil {
		t.Fatal("recv on empty stream must respect ctx")
	}
}

func TestUnknownStreamErrors(t *testing.T) {
	f := NewFabric(1, 1, 0)
	if err := f.SendBatch(context.Background(), 9, -1, batch(1)); err == nil {
		t.Fatal("send to unopened motion must fail")
	}
	r := f.Receiver(9, -1)
	if _, _, err := r.RecvBatch(context.Background()); err == nil {
		t.Fatal("recv from unopened motion must fail")
	}
}

// TestBatchFramingPreservesOrder sends batches of different sizes down one
// stream and checks the receiver sees the rows in order while the batch
// counter reflects the framing.
func TestBatchFramingPreservesOrder(t *testing.T) {
	f := NewFabric(1, 16, 0)
	f.OpenGather(1, 1)
	ctx := context.Background()
	if err := f.SendBatch(ctx, 1, -1, batch(0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := f.SendBatch(ctx, 1, -1, batch(3)); err != nil {
		t.Fatal(err)
	}
	if err := f.SendBatch(ctx, 1, -1, batch(4, 5)); err != nil {
		t.Fatal(err)
	}
	// Empty batches are dropped, not framed.
	if err := f.SendBatch(ctx, 1, -1, types.NewRowBatch(4)); err != nil {
		t.Fatal(err)
	}
	f.DoneSending(1)
	got := recvAll(t, f.Receiver(1, -1))
	if len(got) != 6 {
		t.Fatalf("received %v, want 6 rows", got)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d out of order: %v", i, got)
		}
	}
	rows, _ := f.Stats()
	if rows != 6 {
		t.Fatalf("stats rows = %d", rows)
	}
	if n := f.BatchStats(); n != 3 {
		t.Fatalf("stream operations = %d, want 3", n)
	}
}

// TestBatchFanOutPerDestination checks that batch sends to different
// destinations of a fan-out motion stay separated and RecvBatch hands back
// whole frames.
func TestBatchFanOutPerDestination(t *testing.T) {
	f := NewFabric(2, 16, 0)
	f.OpenFanOut(3, 1)
	ctx := context.Background()
	if err := f.SendBatch(ctx, 3, 0, batch(0, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if err := f.SendBatch(ctx, 3, 1, batch(1, 3)); err != nil {
		t.Fatal(err)
	}
	f.DoneSending(3)
	for dest, want := range [][]int64{{0, 2, 4}, {1, 3}} {
		r := f.Receiver(3, dest)
		b, ok, err := r.RecvBatch(ctx)
		if err != nil || !ok {
			t.Fatalf("dest %d: ok=%v err=%v", dest, ok, err)
		}
		if b.Len() != len(want) {
			t.Fatalf("dest %d: frame of %d rows, want %d", dest, b.Len(), len(want))
		}
		for i, v := range want {
			if b.Rows[i][0].Int() != v {
				t.Fatalf("dest %d row %d: %v", dest, i, b.Rows[i])
			}
		}
		if _, ok, _ := r.RecvBatch(ctx); ok {
			t.Fatalf("dest %d: expected closed stream", dest)
		}
	}
}

// TestNetworkDeadlockPreventedByPrefetch demonstrates the paper's Appendix B
// scenario at the interconnect level.
//
// Without inner-side prefetch: a join executor that pulls one outer tuple
// and then switches to the inner stream can leave a producer blocked on a
// full buffer that nobody is draining while the consumer waits on a stream
// that will only fill after the producer progresses — mutual waiting, i.e.
// network deadlock. With prefetch (drain the inner motion fully first, as
// our hash/nest-loop joins do) the cycle cannot form.
func TestNetworkDeadlockPreventedByPrefetch(t *testing.T) {
	run := func(prefetchInner bool) bool {
		// Motion 1 = outer stream, Motion 2 = inner stream, one segment.
		f := NewFabric(1, 1, 0) // 1-batch buffers: easiest to wedge
		f.OpenGather(1, 1)
		f.OpenGather(2, 1)
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		defer cancel()

		// The producer interleaves: it must finish sending ALL outer rows
		// before it produces inner rows (modeling the upstream slice whose
		// send-buffer toward the join fills up).
		prodDone := make(chan struct{})
		go func() {
			defer close(prodDone)
			for i := 0; i < 5; i++ {
				if f.SendBatch(ctx, 1, -1, batch(int64(i))) != nil {
					return
				}
			}
			f.DoneSending(1)
			for i := 0; i < 5; i++ {
				if f.SendBatch(ctx, 2, -1, batch(int64(100+i))) != nil {
					return
				}
			}
			f.DoneSending(2)
		}()

		consumed := make(chan bool, 1)
		go func() {
			outer := f.Receiver(1, -1)
			inner := f.Receiver(2, -1)
			if prefetchInner {
				// Deadlock-safe order… except the producer here emits outer
				// first; prefetching the OUTER side fully models Greenplum's
				// "materialize the blocked side before switching".
				for {
					_, ok, err := outer.RecvBatch(ctx)
					if err != nil {
						consumed <- false
						return
					}
					if !ok {
						break
					}
				}
				for {
					_, ok, err := inner.RecvBatch(ctx)
					if err != nil {
						consumed <- false
						return
					}
					if !ok {
						break
					}
				}
				consumed <- true
				return
			}
			// Demand-driven order: one outer row, then switch to inner —
			// but inner rows only appear after ALL outer rows are sent,
			// and the outer buffer (1 batch) is full: wedged.
			if _, _, err := outer.RecvBatch(ctx); err != nil {
				consumed <- false
				return
			}
			if _, _, err := inner.RecvBatch(ctx); err != nil {
				consumed <- false
				return
			}
			consumed <- true
		}()

		return <-consumed
	}

	if run(false) {
		t.Fatal("demand-driven order should deadlock (timeout) with tiny buffers")
	}
	if !run(true) {
		t.Fatal("prefetch order must complete")
	}
}
