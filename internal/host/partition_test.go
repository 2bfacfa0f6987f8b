package host

import (
	"testing"
	"time"
)

// readResult carries one Read's outcome off the blocked goroutine.
type readResult struct {
	n   int
	err error
	buf []byte
}

func bgRead(s *Stream, n int) chan readResult {
	ch := make(chan readResult, 1)
	go func() {
		buf := make([]byte, n)
		rn, err := s.Read(buf)
		ch <- readResult{n: rn, err: err, buf: buf[:max(rn, 0)]}
	}()
	return ch
}

func TestPartitionStallsReadUntilHeal(t *testing.T) {
	k := NewKernel()
	p1, _ := k.CreateProcess(nil, false)
	p2, _ := k.CreateProcess(nil, false)
	a, b := k.StreamPair(p1, p2)

	// Bytes written before the partition stay buffered, not torn away.
	if _, err := a.Write([]byte("before")); err != nil {
		t.Fatal(err)
	}
	k.Partition(p1.ID, p2.ID)
	got := bgRead(b, 16)
	select {
	case r := <-got:
		t.Fatalf("read completed through a partition: %d bytes, err=%v", r.n, r.err)
	case <-time.After(30 * time.Millisecond):
	}
	// Writes during the partition buffer too (under the ring cap).
	if _, err := a.Write([]byte(" during")); err != nil {
		t.Fatalf("small write during partition must buffer, got %v", err)
	}
	k.Heal(p1.ID, p2.ID)
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("read after heal: %v", r.err)
		}
		if string(r.buf) != "before during" && string(r.buf) != "before" {
			t.Fatalf("read after heal got %q", r.buf)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader never woke after heal")
	}
	if k.Partitioned(p1.ID, p2.ID) || k.Partitioned(p2.ID, p1.ID) {
		t.Fatal("edges survived the heal")
	}
}

func TestPartitionDoesNotTearCloseStillWakes(t *testing.T) {
	k := NewKernel()
	p1, _ := k.CreateProcess(nil, false)
	p2, _ := k.CreateProcess(nil, false)
	a, b := k.StreamPair(p1, p2)

	k.Partition(p1.ID, p2.ID)
	got := bgRead(b, 16)
	select {
	case <-got:
		t.Fatal("read completed through the partition")
	case <-time.After(30 * time.Millisecond):
	}
	// A peer close must wake the stalled reader even while the partition
	// stands — the endpoint died, not the link.
	a.Close()
	select {
	case r := <-got:
		if r.err != nil || r.n != 0 {
			t.Fatalf("reader woke with n=%d err=%v, want clean EOF", r.n, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer close did not wake a partition-stalled reader")
	}
	k.HealAll()
}

// TestCloseWithoutPartitionLeavesTheTable: with no edge installed nobody
// can be stalled on the partition table, so a close leaves its wake
// channel and lock alone; once an edge exists, a close pokes again.
func TestCloseWithoutPartitionLeavesTheTable(t *testing.T) {
	k := NewKernel()
	p1, _ := k.CreateProcess(nil, false)
	p2, _ := k.CreateProcess(nil, false)
	wake := func() chan struct{} {
		k.partitions.mu.Lock()
		defer k.partitions.mu.Unlock()
		return k.partitions.wake
	}
	before := wake()
	a, b := k.StreamPair(p1, p2)
	a.Close()
	b.Close()
	if wake() != before {
		t.Fatal("a close with no partition replaced the table's wake channel")
	}
	k.Partition(p1.ID, p2.ID)
	before = wake()
	a, b = k.StreamPair(p1, p2)
	a.Close()
	if wake() == before {
		t.Fatal("a close under a partition did not poke the table")
	}
	b.Close()
	k.HealAll()
}

func TestPartitionDropsBroadcastDelivery(t *testing.T) {
	k := NewKernel()
	bc := k.BroadcastOf(1)
	s2, err := bc.Subscribe(2)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := bc.Subscribe(3)
	if err != nil {
		t.Fatal(err)
	}
	k.Partition(1, 2)
	if err := bc.Send(1, []byte("cut")); err != nil {
		t.Fatal(err)
	}
	// The unpartitioned subscriber hears it; the partitioned one lost it
	// for good (a partition is the channel's one loss).
	if m, ok := s3.Recv(); !ok || string(m.Data) != "cut" {
		t.Fatalf("unpartitioned subscriber: %+v ok=%v", m, ok)
	}
	select {
	case m := <-s2.Chan():
		t.Fatalf("partitioned subscriber received %+v", m)
	case <-time.After(20 * time.Millisecond):
	}
	k.Heal(1, 2)
	if err := bc.Send(1, []byte("back")); err != nil {
		t.Fatal(err)
	}
	if m, ok := s2.Recv(); !ok || string(m.Data) != "back" {
		t.Fatalf("after heal: %+v ok=%v", m, ok)
	}
}

func TestPartitionCountedInstallsCompose(t *testing.T) {
	k := NewKernel()
	// Two overlapping partitions of one pair: healing the inner one must
	// not tear down the outer (installs are counted per edge).
	k.Partition(1, 2)
	k.Partition(1, 2)
	k.Heal(1, 2)
	if !k.Partitioned(1, 2) || !k.Partitioned(2, 1) {
		t.Fatal("an inner heal healed an overlapping partition")
	}
	k.Heal(1, 2)
	if k.Partitioned(1, 2) {
		t.Fatal("edge survived its matching heal")
	}
}
