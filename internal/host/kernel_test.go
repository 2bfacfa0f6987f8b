package host

import (
	"testing"
	"time"

	"graphene/internal/api"
)

func TestCreateProcessAssignsPIDs(t *testing.T) {
	k := NewKernel()
	p1, err := k.CreateProcess(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := k.CreateProcess(p1, false)
	if err != nil {
		t.Fatal(err)
	}
	if p1.ID == p2.ID {
		t.Fatal("duplicate host PIDs")
	}
	if p2.ParentID != p1.ID {
		t.Fatalf("child parent = %d, want %d", p2.ParentID, p1.ID)
	}
	if k.Process(p1.ID) != p1 {
		t.Fatal("process table lookup failed")
	}
}

func TestProcessExitLifecycle(t *testing.T) {
	k := NewKernel()
	p, _ := k.CreateProcess(nil, false)
	done := make(chan struct{})
	p.NewThread(func(tid int) {
		<-done
	})
	if p.Dead() {
		t.Fatal("fresh process dead")
	}
	close(done)
	p.Exit(42)
	if !p.Dead() || p.ExitCode() != 42 {
		t.Fatalf("dead=%v code=%d", p.Dead(), p.ExitCode())
	}
	if err := p.ExitEvent().Wait(time.Second); err != nil {
		t.Fatalf("exit event: %v", err)
	}
	if k.Process(p.ID) != nil {
		t.Fatal("exited process still in table")
	}
	p.Exit(7) // idempotent
	if p.ExitCode() != 42 {
		t.Fatal("second Exit changed code")
	}
}

func TestProcessExitClosesStreams(t *testing.T) {
	k := NewKernel()
	p1, _ := k.CreateProcess(nil, false)
	p2, _ := k.CreateProcess(nil, false)
	s1, s2 := k.StreamPair(p1, p2)
	p1.Exit(0)
	if !s1.Closed() {
		t.Fatal("exiting process left its endpoint open")
	}
	buf := make([]byte, 1)
	if n, err := s2.Read(buf); n != 0 || err != nil {
		t.Fatalf("peer did not observe EOF: n=%d err=%v", n, err)
	}
}

type denyAllFilter struct{}

func (denyAllFilter) Evaluate(nr int, fromPAL bool) SyscallAction {
	if fromPAL {
		return ActionAllow
	}
	return ActionTrap
}

func TestGateEnforcesFilter(t *testing.T) {
	k := NewKernel()
	p, _ := k.CreateProcess(nil, false)
	if err := k.Gate(p, SysOpen, false); err != nil {
		t.Fatalf("unfiltered gate: %v", err)
	}
	if err := p.SetFilter(denyAllFilter{}); err != nil {
		t.Fatal(err)
	}
	if err := k.Gate(p, SysOpen, true); err != nil {
		t.Fatalf("PAL call blocked: %v", err)
	}
	if err := k.Gate(p, SysOpen, false); err != ErrSigsys {
		t.Fatalf("app call err = %v, want ErrSigsys", err)
	}
}

func TestFilterImmutableAndInherited(t *testing.T) {
	k := NewKernel()
	p, _ := k.CreateProcess(nil, false)
	if err := p.SetFilter(denyAllFilter{}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetFilter(denyAllFilter{}); err != api.EPERM {
		t.Fatalf("second SetFilter err = %v, want EPERM", err)
	}
	child, _ := k.CreateProcess(p, false)
	if child.Filter() == nil {
		t.Fatal("filter not inherited by child")
	}
}

func TestBulkIPCTransfersPagesCOW(t *testing.T) {
	k := NewKernel()
	sender, _ := k.CreateProcess(nil, false)
	receiver, _ := k.CreateProcess(nil, false)

	base, _ := sender.AS.Alloc(0, 4*PageSize, api.ProtRead|api.ProtWrite)
	if err := sender.AS.Write(base+PageSize, []byte("page one")); err != nil {
		t.Fatal(err)
	}
	if err := sender.AS.Write(base+3*PageSize, []byte("page three")); err != nil {
		t.Fatal(err)
	}

	st, err := k.CreateIPCStore(sender)
	if err != nil {
		t.Fatal(err)
	}
	n, err := st.Commit(sender.AS, base, base+4*PageSize)
	if err != nil || n != 2 {
		t.Fatalf("Commit = %d, %v; want 2 pages", n, err)
	}

	target, _ := receiver.AS.Alloc(0, 4*PageSize, api.ProtRead|api.ProtWrite)
	n, err = st.Map(receiver.AS, target)
	if err != nil || n != 2 {
		t.Fatalf("Map = %d, %v; want 2 pages", n, err)
	}

	buf := make([]byte, 10)
	if err := receiver.AS.Read(target+PageSize, buf[:8]); err != nil || string(buf[:8]) != "page one" {
		t.Fatalf("receiver page one: %q, %v", buf[:8], err)
	}
	if err := receiver.AS.Read(target+3*PageSize, buf); err != nil || string(buf) != "page three" {
		t.Fatalf("receiver page three: %q, %v", buf, err)
	}

	// COW: receiver's write is private.
	if err := receiver.AS.Write(target+PageSize, []byte("CHANGED!")); err != nil {
		t.Fatal(err)
	}
	if err := sender.AS.Read(base+PageSize, buf[:8]); err != nil || string(buf[:8]) != "page one" {
		t.Fatalf("sender corrupted by receiver write: %q, %v", buf[:8], err)
	}
}

func TestBulkIPCQueueOrderAndEmpty(t *testing.T) {
	k := NewKernel()
	s, _ := k.CreateProcess(nil, false)
	r, _ := k.CreateProcess(nil, false)
	st, _ := k.CreateIPCStore(s)

	target, _ := r.AS.Alloc(0, PageSize, api.ProtRead|api.ProtWrite)
	if _, err := st.Map(r.AS, target); err != api.EAGAIN {
		t.Fatalf("Map on empty store err = %v, want EAGAIN", err)
	}

	for i, word := range []string{"first", "second"} {
		base, _ := s.AS.Alloc(0, PageSize, api.ProtRead|api.ProtWrite)
		if err := s.AS.Write(base, []byte(word)); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Commit(s.AS, base, base+PageSize); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if st.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", st.Pending())
	}
	buf := make([]byte, 6)
	if _, err := st.Map(r.AS, target); err != nil {
		t.Fatal(err)
	}
	if err := r.AS.Read(target, buf[:5]); err != nil || string(buf[:5]) != "first" {
		t.Fatalf("fifo order violated: %q, %v", buf[:5], err)
	}
}

func TestBulkIPCCloseDiscards(t *testing.T) {
	k := NewKernel()
	s, _ := k.CreateProcess(nil, false)
	st, _ := k.CreateIPCStore(s)
	base, _ := s.AS.Alloc(0, PageSize, api.ProtRead|api.ProtWrite)
	if err := s.AS.Write(base, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(s.AS, base, base+PageSize); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if st.Pending() != 0 {
		t.Fatal("Close left batches")
	}
	if _, err := st.Commit(s.AS, base, base+PageSize); err != api.EBADF {
		t.Fatalf("Commit after Close err = %v, want EBADF", err)
	}
}

// TestBulkIPCMapNextDeadline verifies the timeout is an absolute bound on
// the whole call: with the avail event stuck signaled but no batch ever
// landing for this mapper (a sender trickling commits that other mappers
// drain keeps it set), MapNext must return ETIMEDOUT at the deadline
// instead of restarting the clock on every wakeup.
func TestBulkIPCMapNextDeadline(t *testing.T) {
	k := NewKernel()
	s, _ := k.CreateProcess(nil, false)
	r, _ := k.CreateProcess(nil, false)
	st, _ := k.CreateIPCStore(s)
	target, _ := r.AS.Alloc(0, PageSize, api.ProtRead|api.ProtWrite)
	st.avail.Set() // permanently-signaled event, empty queue
	start := time.Now()
	_, err := st.MapNext(r.AS, target, 50*time.Millisecond)
	if err != api.ETIMEDOUT {
		t.Fatalf("MapNext err = %v, want ETIMEDOUT", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("deadline not honored: took %v", took)
	}
}

// TestIPCStoreClosesWithItsCreator: a store's creator exiting closes the
// store, so a receiver blocked for the next batch — a forked child whose
// parent died mid-fork — fails at once instead of waiting for a commit
// that will never come.
func TestIPCStoreClosesWithItsCreator(t *testing.T) {
	k := NewKernel()
	s, _ := k.CreateProcess(nil, false)
	r, _ := k.CreateProcess(nil, false)
	st, _ := k.CreateIPCStore(s)
	target, _ := r.AS.Alloc(0, PageSize, api.ProtRead|api.ProtWrite)
	mapped := make(chan error, 1)
	go func() {
		_, err := st.MapNext(r.AS, target, 0) // no deadline
		mapped <- err
	}()
	s.Exit(137)
	select {
	case err := <-mapped:
		if err != api.EBADF {
			t.Fatalf("MapNext after the creator exited: %v, want EBADF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver still waiting for the batch of a creator that exited")
	}
	if got := k.Census().Stores; got != 0 {
		t.Fatalf("census lists %d stores after the creator exited, want 0", got)
	}
}

func TestSeverCrossSandboxStreams(t *testing.T) {
	k := NewKernel()
	p1, _ := k.CreateProcess(nil, false)
	p2, _ := k.CreateProcess(nil, false)
	p1.SandboxID = 1
	p2.SandboxID = 1
	sa, sb := k.StreamPair(p1, p2)
	// Same sandbox: severing does nothing.
	k.SeverCrossSandboxStreams()
	if sa.Closed() || sb.Closed() {
		t.Fatal("same-sandbox stream severed")
	}
	// Split p2 into its own sandbox.
	p2.SandboxID = 2
	k.SeverCrossSandboxStreams()
	if !sa.Closed() && !sb.Closed() {
		t.Fatal("cross-sandbox stream survived a split")
	}
}

func TestKernelMisc(t *testing.T) {
	k := NewKernel()
	now := k.Now()
	if now <= 0 {
		t.Fatal("Now() not positive")
	}
	buf := make([]byte, 16)
	n, err := k.Random(buf)
	if err != nil || n != 16 {
		t.Fatalf("Random: n=%d err=%v", n, err)
	}
	zero := true
	for _, b := range buf {
		if b != 0 {
			zero = false
		}
	}
	if zero {
		t.Fatal("Random returned all zeros")
	}
}
