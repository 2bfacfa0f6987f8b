package ipc

import (
	"testing"
	"time"

	"graphene/internal/api"
)

// The paper's "Failure and Disconnection Tolerance" (§4.2): Graphene makes
// disconnections isomorphic to reasonable application behavior. These
// tests inject owner crashes at awkward moments.

func TestBlockedRemoteRecvSurvivesOwnerCrash(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())

	// The member owns a queue; the leader parks in a blocking remote recv.
	id, err := mh.Msgget(42, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, _, err := lh.Msgrcv(id, 0, 0)
		got <- err
	}()
	time.Sleep(20 * time.Millisecond) // the recv is parked at the owner

	// The owner exits: its shutdown fails parked waiters with EXDEV and
	// persists the (empty) queue; the blocked receiver retries, adopts the
	// queue, and parks locally.
	mh.Shutdown()
	mh.pal.Proc().Exit(1)

	select {
	case err := <-got:
		// Acceptable outcome: the retry adopted an empty queue and would
		// block forever; but if recv returned, it must be a clean errno.
		if err != nil && api.ToErrno(err) != api.EIDRM {
			t.Fatalf("blocked recv returned unexpected error: %v", err)
		}
	case <-time.After(300 * time.Millisecond):
		// Blocking again on the adopted local queue is the faithful
		// semantic (the queue exists, it is just empty). Feed it and the
		// receiver must complete.
		if err := lh.Msgsnd(id, 1, []byte("after crash"), 0); err != nil {
			t.Fatalf("send to adopted queue: %v", err)
		}
		select {
		case err := <-got:
			if err != nil {
				t.Fatalf("recv after adoption: %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("receiver never completed after adoption")
		}
	}
}

func TestSignalToDeadProcessESRCH(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 0, newFakeService())
	pid, _ := lh.AllocPID(mh.Addr)
	mh.RegisterPID(pid, mh.Addr)

	// Prime the cache with a successful signal, then crash the target.
	svc := newFakeService()
	_ = svc
	if err := lh.SendSignal(pid, api.SIGUSR1); err != nil {
		t.Fatalf("priming signal: %v", err)
	}
	mh.Shutdown()
	mh.pal.Proc().Exit(1)
	time.Sleep(10 * time.Millisecond)

	// The cached stream is dead: the sender must see ESRCH, not hang.
	if err := lh.SendSignal(pid, api.SIGUSR1); api.ToErrno(err) != api.ESRCH {
		t.Fatalf("signal to dead process: %v, want ESRCH", err)
	}
}

// TestSignalToCrashedProcessESRCHFast crashes the target with no shutdown
// handshake — its streams just die — and requires each signal attempt to
// come back at once, converging on ESRCH (kill(2): "The target process or
// process group does not exist"). A supervisor's kill-retry loop leans on
// this bound: retried kills against a worker that already died must not
// park the killer. The crash itself is the answer: the dead picoprocess's
// streams fail the call with EPIPE.
func TestSignalToCrashedProcessESRCHFast(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 0, newFakeService())
	pid, _ := lh.AllocPID(mh.Addr)
	mh.RegisterPID(pid, mh.Addr)
	if err := lh.SendSignal(pid, api.SIGUSR1); err != nil {
		t.Fatalf("priming signal: %v", err)
	}

	mh.pal.Proc().Exit(137) // crash: no Shutdown, nothing deregistered

	const attemptBudget = 150 * time.Millisecond
	deadline := time.Now().Add(2 * time.Second)
	for {
		start := time.Now()
		err := lh.SendSignal(pid, api.SIGUSR1)
		if elapsed := time.Since(start); elapsed > attemptBudget {
			t.Fatalf("signal attempt took %v (budget %v), err=%v", elapsed, attemptBudget, err)
		}
		if api.ToErrno(err) == api.ESRCH {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never converged on ESRCH; last err=%v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSignalToUnknownPIDESRCH: a PID that was never allocated resolves to
// no owner at the namespace leader; the sender gets ESRCH immediately,
// with no dial.
func TestSignalToUnknownPIDESRCH(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())
	_ = lh
	const budget = 150 * time.Millisecond
	start := time.Now()
	err := mh.SendSignal(999_999, api.SIGUSR1)
	if api.ToErrno(err) != api.ESRCH {
		t.Fatalf("signal to unknown pid: %v, want ESRCH", err)
	}
	if elapsed := time.Since(start); elapsed > budget {
		t.Fatalf("unknown-pid ESRCH took %v (budget %v)", elapsed, budget)
	}
}

func TestSemaphoreWaiterSurvivesOwnerExit(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())

	// The member owns a zero semaphore; the leader blocks acquiring it.
	id, err := mh.Semget(77, 1, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		got <- lh.Semop(id, []api.SemBuf{{Num: 0, Op: -1}})
	}()
	time.Sleep(20 * time.Millisecond)

	// Owner exits: the set migrates to the leader (shutdown eviction);
	// the parked waiter retries there and blocks again. A release must
	// then satisfy it.
	mh.Shutdown()
	mh.pal.Proc().Exit(1)
	time.Sleep(50 * time.Millisecond)

	if err := lh.Semop(id, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
		t.Fatalf("release on evicted semaphore: %v", err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("blocked acquire after owner exit: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("acquire never completed after owner exit")
	}
}

// TestPIDBatchOfOneStillUnique allocates across batch refills: two
// members draw 3*PIDBatchSize+1 PIDs in turn, so each crosses batch
// boundaries while the other's refills move the leader's cursor, and no
// PID is handed out twice.
func TestPIDBatchOfOneStillUnique(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())
	seen := make(map[int64]bool)
	for i := 0; i < 3*PIDBatchSize+1; i++ {
		h := m1
		if i%2 == 1 {
			h = m2
		}
		pid, err := h.AllocPID("x")
		if err != nil {
			t.Fatal(err)
		}
		if seen[pid] {
			t.Fatalf("duplicate pid %d after %d allocations", pid, i)
		}
		seen[pid] = true
	}
}

func TestMigrationOffKeepsOwnershipPut(t *testing.T) {
	SetMigrationEnabled(false)
	defer SetMigrationEnabled(true)
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())
	id, _ := lh.Msgget(11, api.IPCCreat)
	for i := 0; i < migrateThreshold*3; i++ {
		if err := lh.Msgsnd(id, 1, []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := mh.Msgrcv(id, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	mh.mu.Lock()
	_, migrated := mh.queues[id]
	mh.mu.Unlock()
	if migrated {
		t.Fatal("queue migrated despite migration being disabled")
	}
}
