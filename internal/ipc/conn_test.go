package ipc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
)

// connPair wires two Conns over an in-memory stream pair.
func connPair(t *testing.T, hA, hB Handler) (*Conn, *Conn) {
	t.Helper()
	sa, sb := host.NewStreamPair("pipe:conn", 1, 2)
	if hA == nil {
		hA = func(f Frame, respond func(Frame)) { respond(f.Response(Frame{})) }
	}
	if hB == nil {
		hB = func(f Frame, respond func(Frame)) { respond(f.Response(Frame{})) }
	}
	ca := NewConn(sa, "ipc.A", hA, nil)
	cb := NewConn(sb, "ipc.B", hB, nil)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

func TestConnCallRoundTrip(t *testing.T) {
	echo := func(f Frame, respond func(Frame)) {
		respond(f.Response(Frame{A: f.A * 2, S: f.S, Blob: f.Blob}))
	}
	ca, _ := connPair(t, nil, echo)
	resp, err := ca.Call(Frame{Type: MsgPing, A: 21, S: "hello", Blob: []byte{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.A != 42 || resp.S != "hello" || len(resp.Blob) != 3 {
		t.Fatalf("bad response: %+v", resp)
	}
}

// TestConnConcurrentCalls issues many interleaved calls from multiple
// goroutines; sequence-number multiplexing must route every response to
// its caller even when the flush-combiner batches their frames.
func TestConnConcurrentCalls(t *testing.T) {
	echo := func(f Frame, respond func(Frame)) {
		respond(f.Response(Frame{A: f.A, B: f.B + 1}))
	}
	ca, _ := connPair(t, nil, echo)
	const callers = 8
	const perCaller = 200
	var wg sync.WaitGroup
	errCh := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				want := int64(g*perCaller + i)
				resp, err := ca.Call(Frame{Type: MsgPing, A: want, B: want})
				if err != nil {
					errCh <- err
					return
				}
				if resp.A != want || resp.B != want+1 {
					errCh <- fmt.Errorf("caller %d: response %d/%d cross-delivered (want %d)", g, resp.A, resp.B, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestConnNotifyFlushDelivery checks the coalescing path end to end: a
// burst of notifications from concurrent senders all arrive, and Flush
// returns only after every queued frame reached the stream.
func TestConnNotifyFlushDelivery(t *testing.T) {
	const senders = 6
	const perSender = 300
	var mu sync.Mutex
	got := 0
	all := make(chan struct{})
	count := func(f Frame, respond func(Frame)) {
		mu.Lock()
		got++
		if got == senders*perSender {
			close(all)
		}
		mu.Unlock()
	}
	ca, _ := connPair(t, nil, count)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := ca.Notify(Frame{Type: MsgSignal, A: int64(i)}); err != nil {
					t.Errorf("Notify: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ca.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	<-all
}

// TestConnCallFailsOnPeerClose verifies pending calls observe EPIPE when
// the peer tears the stream down.
func TestConnCallFailsOnPeerClose(t *testing.T) {
	never := func(f Frame, respond func(Frame)) { /* drop: leave caller pending */ }
	ca, cb := connPair(t, nil, never)
	done := make(chan error, 1)
	go func() {
		_, err := ca.Call(Frame{Type: MsgPing})
		done <- err
	}()
	// Let the call get queued, then kill the peer.
	for i := 0; i < 1000; i++ {
		if !cb.Alive() {
			break
		}
		if i == 10 {
			cb.Close()
		}
	}
	if err := <-done; err != api.EPIPE {
		t.Fatalf("pending call err = %v, want EPIPE", err)
	}
}

// TestConnHangUpClosesStreamAndSendsSeeEPIPE: when the peer hangs up, the
// surviving conn closes its own end — a dead conn must not pin an open
// stream — and a sender that raced the teardown sees EPIPE, the error the
// retry and failover paths key on, not the closed stream's EBADF.
func TestConnHangUpClosesStreamAndSendsSeeEPIPE(t *testing.T) {
	sa, sb := host.NewStreamPair("pipe:hangup", 1, 2)
	dropped := make(chan *Conn, 1)
	ca := NewConn(sa, "ipc.A", func(Frame, func(Frame)) {}, func(c *Conn) { dropped <- c })
	sb.Close()
	if c := <-dropped; c != ca {
		t.Fatal("onClose ran for the wrong conn")
	}
	if !sa.Closed() {
		t.Fatal("the peer hung up and the conn is dead, yet its stream is still open")
	}
	// Notify does not look at the conn's state first: it reaches the stream.
	if err := ca.Notify(Frame{Type: MsgPing}); err != api.EPIPE {
		t.Fatalf("send on a torn-down conn: %v, want EPIPE", err)
	}
	if _, err := ca.Call(Frame{Type: MsgPing}); err != api.EPIPE {
		t.Fatalf("call on a torn-down conn: %v, want EPIPE", err)
	}
}

// The deadline sweep (DESIGN.md "Leader failover on the live RPC path"):
// a timed call fails at its own deadline, through one timer per
// connection, and every call gets exactly one response.

// TestCallTimeoutFailsAtItsDeadline: a call to a peer that never answers
// returns ETIMEDOUT no earlier than its deadline and well before twice it.
func TestCallTimeoutFailsAtItsDeadline(t *testing.T) {
	never := func(f Frame, respond func(Frame)) {}
	ca, _ := connPair(t, nil, never)
	const d = 100 * time.Millisecond
	start := time.Now()
	_, err := ca.CallTimeout(Frame{Type: MsgPing}, d)
	elapsed := time.Since(start)
	if err != api.ETIMEDOUT {
		t.Fatalf("unanswered call: %v, want ETIMEDOUT", err)
	}
	if elapsed < d || elapsed >= 2*d {
		t.Fatalf("unanswered call failed after %v, want within [%v, %v)", elapsed, d, 2*d)
	}
}

// TestDeadlineSweepFailsOnlyTheUnanswered starts 1,000 concurrent calls
// with two different deadlines; the peer answers every other one. Exactly
// the unanswered calls time out, none before its own deadline, and every
// answered call gets its own reply. Calls made afterwards on the same
// connection still get their own replies, so no channel went back to the
// pool holding a second response.
func TestDeadlineSweepFailsOnlyTheUnanswered(t *testing.T) {
	answerEven := func(f Frame, respond func(Frame)) {
		if f.A%2 == 0 {
			respond(f.Response(Frame{A: f.A, B: f.A + 1}))
		}
	}
	ca, _ := connPair(t, nil, answerEven)
	const calls = 1000
	deadlines := [2]time.Duration{300 * time.Millisecond, 600 * time.Millisecond}
	var wg sync.WaitGroup
	errCh := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			d := deadlines[(i/2)%2]
			start := time.Now()
			resp, err := ca.CallTimeout(Frame{Type: MsgPing, A: i}, d)
			elapsed := time.Since(start)
			switch {
			case i%2 == 0 && err != nil:
				errCh <- fmt.Errorf("answered call %d: %v", i, err)
			case i%2 == 0 && (resp.A != i || resp.B != i+1):
				errCh <- fmt.Errorf("answered call %d got reply %d/%d", i, resp.A, resp.B)
			case i%2 == 1 && err != api.ETIMEDOUT:
				errCh <- fmt.Errorf("unanswered call %d: %v, want ETIMEDOUT", i, err)
			case i%2 == 1 && elapsed < d:
				errCh <- fmt.Errorf("unanswered call %d timed out after %v, before its deadline %v", i, elapsed, d)
			}
		}(int64(i))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	for i := int64(0); i < 200; i += 2 {
		resp, err := ca.CallTimeout(Frame{Type: MsgPing, A: i}, deadlines[0])
		if err != nil || resp.A != i {
			t.Fatalf("call %d after the sweep: reply %d, %v", i, resp.A, err)
		}
	}
	ca.mu.Lock()
	left := len(ca.pending)
	ca.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d pending entries left after every call returned", left)
	}
}

// TestReplyAtTheDeadlineIsDeliveredOnce races each reply against its
// call's deadline: the peer answers after sleeping about as long as the
// deadline. Each call sees either its reply or ETIMEDOUT, never both: a
// second delivery would sit in a pooled channel and reach a later call,
// which would then read another call's reply.
func TestReplyAtTheDeadlineIsDeliveredOnce(t *testing.T) {
	const d = 5 * time.Millisecond
	late := func(f Frame, respond func(Frame)) {
		if f.B == 0 {
			respond(f.Response(Frame{A: f.A}))
			return
		}
		time.AfterFunc(time.Duration(f.B), func() { respond(f.Response(Frame{A: f.A})) })
	}
	ca, _ := connPair(t, nil, late)
	var replied, timedOut int
	for i := int64(1); i <= 200; i++ {
		// Jitter the reply around the deadline: 4 to 6 ms.
		delay := d - time.Millisecond + time.Duration(i%5)*d/10
		resp, err := ca.CallTimeout(Frame{Type: MsgPing, A: i, B: int64(delay)}, d)
		switch {
		case err == api.ETIMEDOUT:
			timedOut++
		case err != nil:
			t.Fatalf("call %d: %v", i, err)
		case resp.A != i:
			t.Fatalf("call %d got the reply of call %d", i, resp.A)
		default:
			replied++
		}
		// An immediate call right behind it must get its own reply.
		if resp, err := ca.Call(Frame{Type: MsgPing, A: -i}); err != nil || resp.A != -i {
			t.Fatalf("call after %d: reply %d, %v", i, resp.A, err)
		}
	}
	t.Logf("at the deadline: %d replies, %d timeouts", replied, timedOut)
}

// TestClosedConnLeavesNoArmedSweep: closing a connection with a timed
// call pending fails the call with EPIPE and leaves the sweep disarmed.
func TestClosedConnLeavesNoArmedSweep(t *testing.T) {
	never := func(f Frame, respond func(Frame)) {}
	ca, _ := connPair(t, nil, never)
	done := make(chan error, 1)
	go func() {
		_, err := ca.CallTimeout(Frame{Type: MsgPing}, time.Minute)
		done <- err
	}()
	waitFor(t, 2*time.Second, "the timed call to arm the sweep", func() bool {
		ca.mu.Lock()
		defer ca.mu.Unlock()
		return ca.sweepAt != 0
	})
	ca.Close()
	if err := <-done; err != api.EPIPE {
		t.Fatalf("pending timed call on close: %v, want EPIPE", err)
	}
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if ca.sweepAt != 0 || ca.sweep.Stop() {
		t.Fatalf("closed conn still has its sweep armed (sweepAt %d)", ca.sweepAt)
	}
}

// TestConnCallAllocations: neither a call nor a timed call allocates in
// steady state — the response channel and the responder are pooled, and
// a timed call arms no timer of its own. Under -race sync.Pool drops a
// quarter of what is put back, which alone averages 0.75 allocations per
// call here: the gate runs without it.
func TestConnCallAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts under -race measure sync.Pool's random drops")
	}
	ca, _ := connPair(t, nil, nil)
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"Call", func() error { _, err := ca.Call(Frame{Type: MsgPing}); return err }},
		{"CallTimeout", func() error { _, err := ca.CallTimeout(Frame{Type: MsgPing}, time.Minute); return err }},
	} {
		if got := testing.AllocsPerRun(500, func() {
			if err := c.call(); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: %v allocs per call, want 0", c.name, got)
		}
	}
}

// TestChownEpochGuard pins the migration-race fix: a chown carrying a
// stale epoch must not regress the leader's owner map, while an
// epoch-zero claim (queue adoption) always lands.
func TestChownEpochGuard(t *testing.T) {
	l := newLeaderState()
	id, owner, errno := l.keyResolve(NSSysVSem, 55, api.IPCCreat, 9, "ipc.1")
	if errno != 0 || owner != "ipc.1" {
		t.Fatalf("keyResolve: %v %v", owner, errno)
	}
	l.chown(NSSysVSem, id, "ipc.2", 2) // first migration
	l.chown(NSSysVSem, id, "ipc.3", 3) // second migration
	l.chown(NSSysVSem, id, "ipc.1", 2) // stale commit losing the race
	if o, _ := l.idOwner(NSSysVSem, id); o != "ipc.3" {
		t.Fatalf("stale chown regressed owner to %s", o)
	}
	// Equal epoch: last writer wins (the uncertain-handoff re-chown).
	l.chown(NSSysVSem, id, "ipc.4", 3)
	if o, _ := l.idOwner(NSSysVSem, id); o != "ipc.4" {
		t.Fatalf("equal-epoch chown refused, owner %s", o)
	}
	// Epoch 0 = no epoch knowledge (adoption): accepted, bumps epoch.
	l.chown(NSSysVSem, id, "ipc.5", 0)
	if o, _ := l.idOwner(NSSysVSem, id); o != "ipc.5" {
		t.Fatalf("adoption chown refused, owner %s", o)
	}
	l.chown(NSSysVSem, id, "ipc.4", 3) // now stale vs bumped epoch
	if o, _ := l.idOwner(NSSysVSem, id); o != "ipc.5" {
		t.Fatalf("stale chown beat adoption, owner %s", o)
	}
}
