package ipc

import (
	"fmt"
	"sync"
	"testing"

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

// TestConnCallAllocations: a call does not allocate in steady state — the
// response channel and the responder are pooled. Under -race sync.Pool
// drops a quarter of what is put back, which alone averages 0.75
// allocations per call here: the gate runs without it.
func TestConnCallAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts under -race measure sync.Pool's random drops")
	}
	ca, _ := connPair(t, nil, nil)
	if got := testing.AllocsPerRun(500, func() {
		if _, err := ca.Call(Frame{Type: MsgPing}); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Call: %v allocs per call, want 0", got)
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
	// ipc.5 (epoch 4) hands the set to ipc.6 under epoch 5, and ipc.6's
	// removal reaches the leader before the handoff's chown: the chown
	// names a removed object and is dropped, and nothing is kept after.
	l.remove(NSSysVSem, id, 5)
	l.chown(NSSysVSem, id, "ipc.6", 5)
	if o, ok := l.idOwner(NSSysVSem, id); ok {
		t.Fatalf("chown the removal outran resurrected the object, owner %s", o)
	}
	if n := len(l.outran[NSSysVSem]); n != 0 {
		t.Fatalf("%d removal records left after the outrun chown landed", n)
	}
	// A removal under the recorded epoch outruns nothing and keeps nothing.
	id2, _, _ := l.keyResolve(NSSysVSem, 56, api.IPCCreat, 10, "ipc.1")
	l.remove(NSSysVSem, id2, 1)
	if n := len(l.outran[NSSysVSem]); n != 0 {
		t.Fatalf("a plain removal left %d records", n)
	}
	// A claim on an ID the table does not know is recorded: at a new
	// leader it is an object no report has named yet (here an adoption).
	l.chown(NSSysVSem, 77, "ipc.7", 0)
	if o, _ := l.idOwner(NSSysVSem, 77); o != "ipc.7" {
		t.Fatalf("claim on an unreported ID dropped, owner %q", o)
	}
}
