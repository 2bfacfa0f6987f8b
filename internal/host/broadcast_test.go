package host

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBroadcastTotalOrderUnderChurn: concurrent senders, some of them
// subscribers, and subscribers that join and leave while messages flow.
// Any two subscribers agree on the relative order of every message both
// read, each sender's messages arrive in the order it sent them, and a
// subscriber that stays to the end reads every message sent after it
// subscribed, other than its own Sends.
func TestBroadcastTotalOrderUnderChurn(t *testing.T) {
	const (
		senders  = 4
		perSend  = 400
		stayers  = 3  // subscribe first, read to the end marker
		churners = 12 // join mid-stream; a third each leave, are detached or stay
		endPID   = 999
	)
	bc := NewBroadcastChannel()
	// started[i] is how many Send calls sender i has begun: a message whose
	// number is at least what a subscriber read here after Subscribe
	// returned was sent after it subscribed.
	var started [senders]atomic.Int64
	encode := func(from, seq int) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, uint32(from)), uint32(seq))
	}
	type reader struct {
		pid   int
		from  [senders]int64 // started[] when it subscribed
		got   []uint64       // from<<32 | seq, in read order
		stays bool
	}
	read := func(r *reader, s *BroadcastSub, limit int) {
		for limit != 0 {
			m, ok := s.Recv()
			if !ok {
				return
			}
			if m.FromPID == endPID {
				return
			}
			from := binary.LittleEndian.Uint32(m.Data)
			seq := binary.LittleEndian.Uint32(m.Data[4:])
			r.got = append(r.got, uint64(from)<<32|uint64(seq))
			limit--
		}
	}
	subscribe := func(pid int, stays bool) (*reader, *BroadcastSub) {
		s, err := bc.Subscribe(pid)
		if err != nil {
			t.Fatalf("subscribe %d: %v", pid, err)
		}
		r := &reader{pid: pid, stays: stays}
		for i := range started {
			r.from[i] = started[i].Load()
		}
		return r, s
	}

	var readers []*reader
	var wg sync.WaitGroup
	// Senders 0 to 2 are the subscribers that stay (PIDs 1 to 3): sender 0
	// reads its own messages back (SendAll), 1 and 2 do not. Sender 3
	// (PID 4) is not subscribed.
	for i := 0; i < stayers; i++ {
		r, s := subscribe(i+1, true)
		readers = append(readers, r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			read(r, s, -1)
		}()
	}
	var sent sync.WaitGroup
	for i := 0; i < senders; i++ {
		sent.Add(1)
		go func() {
			defer sent.Done()
			for seq := 0; seq < perSend; seq++ {
				started[i].Add(1)
				send := bc.Send
				if i == 0 {
					send = bc.SendAll
				}
				if err := send(i+1, encode(i, seq)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// The churners join while the senders run, each after a random pause.
	// One in three reads to the end marker; the others stop after a random
	// number of messages, by leaving or by being detached.
	rng := rand.New(rand.NewSource(1))
	for j := 0; j < churners; j++ {
		for k := rng.Intn(200); k > 0; k-- {
			runtime.Gosched()
		}
		pid := 100 + j
		r, s := subscribe(pid, j%3 == 1)
		readers = append(readers, r)
		limit := rng.Intn(perSend)
		if r.stays {
			limit = -1
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if j%3 == 0 {
				// Detached from outside while it may be parked in Recv.
				done := make(chan struct{})
				go func() {
					defer close(done)
					read(r, s, -1)
				}()
				for k := 0; k < limit; k++ {
					runtime.Gosched()
				}
				bc.Unsubscribe(pid)
				<-done
			} else {
				read(r, s, limit)
				bc.Unsubscribe(pid)
			}
			if _, ok := s.Recv(); ok {
				t.Errorf("subscriber %d read after it was detached", pid)
			}
		}()
	}
	sent.Wait()
	if err := bc.Send(endPID, nil); err != nil {
		t.Fatal(err)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		// One lost the end marker; detach everyone and report what it lost.
		t.Error("a subscriber never read the end marker")
		for _, r := range readers {
			bc.Unsubscribe(r.pid)
		}
		<-finished
	}
	for _, r := range readers[:stayers] {
		bc.Unsubscribe(r.pid)
	}
	if n := bc.held(); n != 0 {
		t.Fatalf("every subscriber gone, the channel still holds %d messages", n)
	}

	// Each reader's position of each message it read.
	pos := make([]map[uint64]int, len(readers))
	for i, r := range readers {
		pos[i] = make(map[uint64]int, len(r.got))
		last := [senders]int64{-1, -1, -1, -1}
		for k, id := range r.got {
			if _, dup := pos[i][id]; dup {
				t.Fatalf("subscriber %d read message %#x twice", r.pid, id)
			}
			pos[i][id] = k
			from, seq := int(id>>32), int64(uint32(id))
			if from == r.pid-1 && from != 0 {
				t.Fatalf("subscriber %d read its own Send %#x", r.pid, id)
			}
			if seq <= last[from] {
				t.Fatalf("subscriber %d read sender %d's message %d after %d", r.pid, from, seq, last[from])
			}
			last[from] = seq
		}
		if !r.stays {
			continue
		}
		for from := 0; from < senders; from++ {
			if from == r.pid-1 && from != 0 {
				continue
			}
			for seq := r.from[from]; seq < perSend; seq++ {
				if _, ok := pos[i][uint64(from)<<32|uint64(seq)]; !ok {
					t.Fatalf("subscriber %d lost sender %d's message %d, sent after it subscribed", r.pid, from, seq)
				}
			}
		}
	}
	// Pairwise agreement: the messages two readers both read come in the
	// same order to each.
	for i := range readers {
		for j := i + 1; j < len(readers); j++ {
			var common []uint64
			for _, id := range readers[i].got {
				if _, ok := pos[j][id]; ok {
					common = append(common, id)
				}
			}
			for k := 1; k < len(common); k++ {
				if pos[j][common[k-1]] > pos[j][common[k]] {
					t.Fatalf("subscribers %d and %d disagree on the order of %#x and %#x",
						readers[i].pid, readers[j].pid, common[k-1], common[k])
				}
			}
		}
	}
}

// held is the number of messages the channel keeps for some reader.
func (b *BroadcastChannel) held() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.log)
}

// TestBroadcastHoldsOnlyUnread: the channel keeps a message while a
// subscriber it was sent to has not read it, and nothing once every
// subscriber has read it or been detached with it unread.
func TestBroadcastHoldsOnlyUnread(t *testing.T) {
	bc := NewBroadcastChannel()
	if err := bc.Send(9, []byte("nobody")); err != nil {
		t.Fatal(err)
	}
	if n := bc.held(); n != 0 {
		t.Fatalf("a message sent to no subscriber is held: %d", n)
	}
	s1, _ := bc.Subscribe(1)
	s2, _ := bc.Subscribe(2)
	s3, _ := bc.Subscribe(3)
	_ = bc.Send(1, []byte("a"))    // to 2 and 3
	_ = bc.SendAll(2, []byte("b")) // to 1, 2 and 3
	_ = bc.Send(9, []byte("c"))    // to 1, 2 and 3
	if n := bc.held(); n != 3 {
		t.Fatalf("held %d, want 3", n)
	}
	for _, want := range []string{"b", "c"} {
		if m, ok := s1.Recv(); !ok || string(m.Data) != want {
			t.Fatalf("sub 1 read %q, %v; want %q", m.Data, ok, want)
		}
	}
	for _, want := range []string{"a", "b", "c"} {
		if m, ok := s3.Recv(); !ok || string(m.Data) != want {
			t.Fatalf("sub 3 read %q, %v; want %q", m.Data, ok, want)
		}
	}
	if n := bc.held(); n != 3 {
		t.Fatalf("sub 2 has read nothing, yet the channel holds %d of its 3", n)
	}
	if m, ok := s2.Recv(); !ok || string(m.Data) != "a" {
		t.Fatalf("sub 2 read %q, %v; want a", m.Data, ok)
	}
	if n := bc.held(); n != 2 {
		t.Fatalf("held %d after sub 2 read one, want 2", n)
	}
	bc.Unsubscribe(2)
	if n := bc.held(); n != 0 {
		t.Fatalf("sub 2 detached with 2 unread, the channel holds %d", n)
	}
	if _, ok := s2.Recv(); ok {
		t.Fatal("a detached subscriber read")
	}
	// A subscriber's own Sends at the head of the log are dropped under
	// its cursor; it reads on from what it was sent.
	_ = bc.Send(1, []byte("d"))
	if m, ok := s3.Recv(); !ok || string(m.Data) != "d" {
		t.Fatalf("sub 3 read %q, %v; want d", m.Data, ok)
	}
	_ = bc.Send(3, []byte("e"))
	if m, ok := s1.Recv(); !ok || string(m.Data) != "e" {
		t.Fatalf("sub 1 read %q, %v; want e", m.Data, ok)
	}
	bc.Unsubscribe(1)
	bc.Unsubscribe(3)
	if n := bc.held(); n != 0 {
		t.Fatalf("every subscriber gone, the channel holds %d", n)
	}
}
