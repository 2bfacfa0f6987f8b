package host

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"graphene/internal/api"
)

func TestStreamRoundTrip(t *testing.T) {
	a, b := NewStreamPair("pipe:test", 1, 2)
	msg := []byte("over the byte stream")
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := a.Write(msg); err != nil {
			t.Errorf("Write: %v", err)
		}
	}()
	buf := make([]byte, 64)
	n, err := b.Read(buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(buf[:n], msg) {
		t.Fatalf("got %q want %q", buf[:n], msg)
	}
	<-done
}

func TestStreamEOFOnPeerClose(t *testing.T) {
	a, b := NewStreamPair("pipe:eof", 1, 2)
	if _, err := a.Write([]byte("last")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	buf := make([]byte, 16)
	n, err := b.Read(buf)
	if err != nil || string(buf[:n]) != "last" {
		t.Fatalf("buffered data lost on close: %q, %v", buf[:n], err)
	}
	n, err = b.Read(buf)
	if n != 0 || err != nil {
		t.Fatalf("expected clean EOF, got n=%d err=%v", n, err)
	}
}

func TestStreamEPIPEOnWriteAfterPeerClose(t *testing.T) {
	a, b := NewStreamPair("pipe:epipe", 1, 2)
	b.Close()
	if _, err := a.Write([]byte("x")); err != api.EPIPE {
		t.Fatalf("err = %v, want EPIPE", err)
	}
}

func TestStreamBackpressure(t *testing.T) {
	a, b := NewStreamPair("pipe:bp", 1, 2)
	big := make([]byte, streamBufCap+1000)
	wrote := make(chan error, 1)
	go func() {
		_, err := a.Write(big)
		wrote <- err
	}()
	select {
	case <-wrote:
		t.Fatal("oversized write completed without a reader")
	case <-time.After(20 * time.Millisecond):
	}
	// Drain; the writer must now complete.
	total := 0
	buf := make([]byte, 8192)
	for total < len(big) {
		n, err := b.Read(buf)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		total += n
	}
	if err := <-wrote; err != nil {
		t.Fatalf("Write: %v", err)
	}
}

func TestStreamConcurrentPingPong(t *testing.T) {
	a, b := NewStreamPair("pipe:pp", 1, 2)
	const rounds = 1000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]byte, 1)
		for i := 0; i < rounds; i++ {
			if _, err := a.Write([]byte{byte(i)}); err != nil {
				t.Errorf("a.Write: %v", err)
				return
			}
			if _, err := a.Read(buf); err != nil {
				t.Errorf("a.Read: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		buf := make([]byte, 1)
		for i := 0; i < rounds; i++ {
			if _, err := b.Read(buf); err != nil {
				t.Errorf("b.Read: %v", err)
				return
			}
			if _, err := b.Write(buf); err != nil {
				t.Errorf("b.Write: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestCloseDrainsInFlightHandles pins the SCM_RIGHTS rule from unix(7):
// a descriptor still in flight when the receiving endpoint closes is
// itself closed. The passed connection's far side must observe EOF, not
// hang on a reference buried in a dead endpoint's queue.
func TestCloseDrainsInFlightHandles(t *testing.T) {
	a, b := NewStreamPair("pipe:drain", 1, 2)
	conn, farSide := NewStreamPair("pipe:conn", 1, 3)
	if err := a.SendHandle(&Handle{Kind: HandleStream, Stream: conn}); err != nil {
		t.Fatalf("SendHandle: %v", err)
	}
	conn.Close() // sender drops its reference; the in-flight ref remains
	b.Close()    // receiver dies with the handle still queued
	buf := make([]byte, 8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if n, err := farSide.Read(buf); n != 0 || err != nil {
			t.Errorf("far side read: n=%d err=%v, want clean EOF", n, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("far side of an in-flight connection hung after receiver close")
	}
}

// TestForceCloseDrainsInFlightHandles covers the sandbox-split sever path.
func TestForceCloseDrainsInFlightHandles(t *testing.T) {
	a, b := NewStreamPair("pipe:fdrain", 1, 2)
	conn, farSide := NewStreamPair("pipe:fconn", 1, 3)
	if err := a.SendHandle(&Handle{Kind: HandleStream, Stream: conn}); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	b.ForceClose()
	if _, err := farSide.Write([]byte("x")); err != api.EPIPE {
		t.Fatalf("far side write = %v, want EPIPE", err)
	}
}

// TestAdoptByExitedProcessReleasesTheStream: a passed connection whose
// receiver exits between taking the handle and adopting it is closed, so
// the client sees EOF; listed in the dead receiver's table it stayed open
// forever (a fleet worker killed at drain left its client hanging).
func TestAdoptByExitedProcessReleasesTheStream(t *testing.T) {
	k := NewKernel()
	client, _ := k.CreateProcess(nil, false)
	master, _ := k.CreateProcess(nil, false)
	worker, _ := k.CreateProcess(nil, false)
	_, conn := k.StreamPair(client, master)
	conn.Ref()                  // the reference the passed handle carries
	k.StreamClose(master, conn) // the master closes its descriptor after the pass
	worker.Exit(0)
	k.AdoptStream(worker, conn)
	if !conn.Closed() {
		t.Fatal("a stream adopted by an exited picoprocess stays open")
	}
}

func TestHandlePassing(t *testing.T) {
	a, b := NewStreamPair("pipe:hp", 1, 2)
	inner, _ := NewStreamPair("pipe:inner", 1, 3)
	h := &Handle{Kind: HandleStream, Stream: inner}
	if err := a.SendHandle(h); err != nil {
		t.Fatalf("SendHandle: %v", err)
	}
	got, err := b.ReceiveHandle()
	if err != nil {
		t.Fatalf("ReceiveHandle: %v", err)
	}
	if got.Stream != inner {
		t.Fatal("received wrong handle")
	}
	if _, ok := b.TryReceiveHandle(); ok {
		t.Fatal("spurious second handle")
	}
}

func TestListenerConnectAccept(t *testing.T) {
	k := NewKernel()
	p1, _ := k.CreateProcess(nil, false)
	p2, _ := k.CreateProcess(nil, false)
	l, err := k.StreamListen(p1, "pipe.srv:svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go func() {
		s, err := k.StreamAccept(p1, l)
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		buf := make([]byte, 8)
		n, _ := s.Read(buf)
		if _, err := s.Write(bytes.ToUpper(buf[:n])); err != nil {
			t.Errorf("server Write: %v", err)
		}
	}()
	c, err := k.StreamConnect(p2, "pipe.srv:svc")
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := c.Read(buf)
	if err != nil || string(buf[:n]) != "PING" {
		t.Fatalf("echo: %q, %v", buf[:n], err)
	}
}

func TestConnectToMissingListenerRefused(t *testing.T) {
	k := NewKernel()
	p, _ := k.CreateProcess(nil, false)
	if _, err := k.StreamConnect(p, "pipe.srv:nobody"); err != api.ECONNREFUSED {
		t.Fatalf("err = %v, want ECONNREFUSED", err)
	}
}

func TestDuplicateListenerRejected(t *testing.T) {
	k := NewKernel()
	p, _ := k.CreateProcess(nil, false)
	if _, err := k.StreamListen(p, "pipe.srv:dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.StreamListen(p, "pipe.srv:dup"); err != api.EADDRINUSE {
		t.Fatalf("err = %v, want EADDRINUSE", err)
	}
}

// recvChan runs s.Recv on a goroutine and hands each message it reads to
// the returned channel, for a test that selects on it with a timeout. The
// channel closes when s is detached; the test's cleanup detaches s and
// ends the goroutine.
func recvChan(t *testing.T, s *BroadcastSub) <-chan BroadcastMsg {
	ch := make(chan BroadcastMsg)
	done := make(chan struct{})
	t.Cleanup(func() {
		close(done)
		s.bc.Unsubscribe(s.PID)
	})
	go func() {
		defer close(ch)
		for {
			m, ok := s.Recv()
			if !ok {
				return
			}
			select {
			case ch <- m:
			case <-done:
				return
			}
		}
	}()
	return ch
}

func TestBroadcastDelivery(t *testing.T) {
	bc := NewBroadcastChannel()
	s1, err := bc.Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := bc.Subscribe(2)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := bc.Subscribe(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.Send(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*BroadcastSub{s2, s3} {
		m, ok := s.Recv()
		if !ok || string(m.Data) != "hello" || m.FromPID != 1 {
			t.Fatalf("sub %d: got %+v ok=%v", s.PID, m, ok)
		}
	}
	// Sender must not receive its own message.
	select {
	case m := <-recvChan(t, s1):
		t.Fatalf("sender received own broadcast: %+v", m)
	case <-time.After(10 * time.Millisecond):
	}
}

func TestBroadcastUnsubscribe(t *testing.T) {
	bc := NewBroadcastChannel()
	s1, _ := bc.Subscribe(1)
	if _, err := bc.Subscribe(1); err != api.EEXIST {
		t.Fatalf("double subscribe err = %v, want EEXIST", err)
	}
	bc.Unsubscribe(1)
	if _, ok := s1.Recv(); ok {
		t.Fatal("Recv on unsubscribed endpoint succeeded")
	}
	if got := len(bc.Members()); got != 0 {
		t.Fatalf("members = %d, want 0", got)
	}
}

// TestBroadcastDeliversPastAFullQueue: a subscriber that reads nothing
// while thousands of messages are sent loses none of them and gets them
// in the order they were sent; one detached with a backlog still queued
// sees its endpoint close.
func TestBroadcastDeliversPastAFullQueue(t *testing.T) {
	bc := NewBroadcastChannel()
	s1, _ := bc.Subscribe(1)
	s2, _ := bc.Subscribe(2)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := bc.Send(3, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	c1 := recvChan(t, s1)
	for i := 0; i < n; i++ {
		select {
		case m, ok := <-c1:
			if !ok {
				t.Fatalf("endpoint closed after %d of %d messages", i, n)
			}
			if got := int(m.Data[0]) | int(m.Data[1])<<8; got != i {
				t.Fatalf("message %d arrived as number %d", got, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d of %d never arrived", i, n)
		}
	}
	select {
	case m := <-c1:
		t.Fatalf("extra message %+v", m)
	default:
	}
	bc.Unsubscribe(2)
	closed := make(chan struct{})
	go func() {
		for {
			if _, ok := s2.Recv(); !ok {
				close(closed)
				return
			}
		}
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("a detached endpoint with a backlog never closed")
	}
}

// TestStreamWritabilityWakeOnDrain is the regression test for the
// read-side wakeup: a WaitAny parked on writability must be poked when a
// reader drains a full queue, not only when a writer adds data.
func TestStreamWritabilityWakeOnDrain(t *testing.T) {
	a, b := NewStreamPair("pipe:wrdy", 1, 2)
	defer a.Close()
	defer b.Close()
	// Fill a's outbound queue to capacity so it is unwritable.
	if _, err := a.Write(make([]byte, streamBufCap)); err != nil {
		t.Fatal(err)
	}
	if a.Writable() {
		t.Fatal("full queue reported writable")
	}
	woke := make(chan error, 1)
	go func() {
		_, err := WaitAny([]Waitable{a.WriteWaitable()}, 5*time.Second)
		woke <- err
	}()
	// Give the waiter time to park, then drain from the peer.
	time.Sleep(10 * time.Millisecond)
	buf := make([]byte, streamBufCap)
	if _, err := b.Read(buf); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-woke:
		if err != nil {
			t.Fatalf("WaitAny: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writability waiter never woken by reader drain")
	}
	if !a.Writable() {
		t.Fatal("drained queue reported unwritable")
	}
}

// TestStreamRingWraparound pushes a deterministic byte pattern through the
// ring with read/write sizes chosen to straddle the wrap point repeatedly,
// checking that no byte is lost, duplicated, or reordered.
func TestStreamRingWraparound(t *testing.T) {
	a, b := NewStreamPair("pipe:wrap", 1, 2)
	defer b.Close()
	const total = 8 * streamBufCap
	// Coprime-ish odd sizes so the head walks every offset of the ring.
	writeSizes := []int{1, 977, 8191, streamBufCap - 1, 313}
	readSizes := []int{4093, 1, 631, streamBufCap, 17}
	go func() {
		defer a.Close()
		seq := byte(0)
		sent := 0
		wi := 0
		for sent < total {
			n := writeSizes[wi%len(writeSizes)]
			wi++
			if n > total-sent {
				n = total - sent
			}
			chunk := make([]byte, n)
			for i := range chunk {
				chunk[i] = seq
				seq++
			}
			if _, err := a.Write(chunk); err != nil {
				t.Errorf("Write: %v", err)
				return
			}
			sent += n
		}
	}()
	var got []byte
	ri := 0
	for len(got) < total {
		buf := make([]byte, readSizes[ri%len(readSizes)])
		ri++
		n, err := b.Read(buf)
		if err != nil {
			t.Fatalf("Read after %d bytes: %v", len(got), err)
		}
		if n == 0 {
			t.Fatalf("EOF after %d bytes, want %d", len(got), total)
		}
		got = append(got, buf[:n]...)
	}
	seq := byte(0)
	for i, v := range got {
		if v != seq {
			t.Fatalf("byte %d = %d, want %d (wraparound corruption)", i, v, seq)
		}
		seq++
	}
}

// TestStreamRingConcurrentWriters hammers one queue from several writers;
// the ring must never lose or invent bytes (sums preserved).
func TestStreamRingConcurrentWriters(t *testing.T) {
	a, b := NewStreamPair("pipe:cw", 1, 2)
	const writers = 4
	const perWriter = 3 * streamBufCap
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chunk := bytes.Repeat([]byte{byte(w + 1)}, 769)
			sent := 0
			for sent < perWriter {
				n := len(chunk)
				if n > perWriter-sent {
					n = perWriter - sent
				}
				if _, err := a.Write(chunk[:n]); err != nil {
					t.Errorf("w%d Write: %v", w, err)
					return
				}
				sent += n
			}
		}(w)
	}
	go func() { wg.Wait(); a.Close() }()
	counts := make(map[byte]int)
	buf := make([]byte, 4096)
	for {
		n, err := b.Read(buf)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if n == 0 {
			break // EOF
		}
		for _, v := range buf[:n] {
			counts[v]++
		}
	}
	for w := 0; w < writers; w++ {
		if counts[byte(w+1)] != perWriter {
			t.Fatalf("writer %d: %d bytes survived, want %d", w, counts[byte(w+1)], perWriter)
		}
	}
}

// TestStreamHalfCloseMidWrap closes the writer while data straddles the
// wrap point; the reader must still drain every buffered byte before EOF.
func TestStreamHalfCloseMidWrap(t *testing.T) {
	a, b := NewStreamPair("pipe:hc", 1, 2)
	defer b.Close()
	// Advance the ring head off zero, then leave wrapped data buffered.
	if _, err := a.Write(make([]byte, streamBufCap)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, streamBufCap-100)
	if _, err := b.Read(buf); err != nil {
		t.Fatal(err)
	}
	// 100 bytes remain near the end of the ring; this write wraps.
	tail := bytes.Repeat([]byte{7}, 500)
	if _, err := a.Write(tail); err != nil {
		t.Fatal(err)
	}
	a.Close()
	var got []byte
	for {
		n, err := b.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if len(got) != 600 {
		t.Fatalf("drained %d bytes after close, want 600", len(got))
	}
	for i, v := range got[100:] {
		if v != 7 {
			t.Fatalf("wrapped byte %d corrupted: %d", i, v)
		}
	}
}
