package ipc

import (
	"testing"
	"time"

	"graphene/internal/api"
)

// crashLeader simulates leader failure: shut its helper down and kill its
// picoprocess so members' RPCs fail.
func crashLeader(h *Helper) {
	h.Shutdown()
	h.pal.Proc().Exit(137)
}

func TestLeaderElectionAfterCrash(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 0, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 0, newFakeService())

	// Give the members real guest PIDs (as fork would).
	pid1, err := lh.AllocPID(m1.Addr)
	if err != nil {
		t.Fatal(err)
	}
	pid2, err := lh.AllocPID(m2.Addr)
	if err != nil {
		t.Fatal(err)
	}
	m1.GuestPID = pid1
	m1.RegisterPID(pid1, m1.Addr)
	m2.GuestPID = pid2
	m2.RegisterPID(pid2, m2.Addr)

	crashLeader(lh)

	// m1 detects the failure and triggers an election; m1 has the lowest
	// surviving PID and must win.
	newLeader, err := m1.ElectLeader()
	if err != nil {
		t.Fatalf("ElectLeader: %v", err)
	}
	if newLeader != m1.Addr {
		t.Fatalf("winner = %q, want lowest-PID member %q", newLeader, m1.Addr)
	}
	if !m1.isLeader() {
		t.Fatal("winner did not promote itself")
	}
	// m2 learns the new leader via the broadcast announcement.
	deadline := time.After(2 * time.Second)
	for {
		if m2.LeaderAddr() == m1.Addr {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("m2 leader = %q, want %q", m2.LeaderAddr(), m1.Addr)
		case <-time.After(time.Millisecond):
		}
	}
}

func TestElectionRecoversNamespaceState(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 0, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 0, newFakeService())
	pid1, _ := lh.AllocPID(m1.Addr)
	pid2, _ := lh.AllocPID(m2.Addr)
	m1.GuestPID, m2.GuestPID = pid1, pid2
	m1.RegisterPID(pid1, m1.Addr)
	m2.RegisterPID(pid2, m2.Addr)

	// m2 owns a message queue created pre-crash.
	qid, err := m2.Msgget(42, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Msgsnd(qid, 1, []byte("pre-crash"), 0); err != nil {
		t.Fatal(err)
	}

	crashLeader(lh)
	if _, err := m1.ElectLeader(); err != nil {
		t.Fatal(err)
	}
	// Allow m2's MsgRecoverState to land at the new leader.
	time.Sleep(150 * time.Millisecond)

	// The key mapping survived: m1 resolves key 42 to the same queue and
	// receives m2's pre-crash message over RPC.
	qid2, err := m1.Msgget(42, 0)
	if err != nil {
		t.Fatalf("post-recovery msgget: %v", err)
	}
	if int64(qid2) != qid {
		t.Fatalf("recovered qid = %d, want %d", qid2, qid)
	}
	mt, data, err := m1.Msgrcv(qid, 0, api.IPCNoWait)
	if err != nil || mt != 1 || string(data) != "pre-crash" {
		t.Fatalf("post-recovery recv: %d %q %v", mt, data, err)
	}

	// PID resolution works through the new leader too: m1 can reach m2.
	if err := m1.SendSignal(pid2, api.SIGUSR1); err != nil {
		t.Fatalf("post-recovery signal: %v", err)
	}

	// Fresh allocations never collide with pre-crash IDs.
	fresh, err := m1.AllocPID(m1.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if fresh <= pid2 {
		t.Fatalf("fresh pid %d collides with pre-crash ids (max %d)", fresh, pid2)
	}
}

func TestConcurrentElectionsConverge(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 0, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 0, newFakeService())
	m3, _ := g.member(lp, lh.Addr, 0, newFakeService())
	pids := make([]int64, 3)
	for i, m := range []*Helper{m1, m2, m3} {
		pid, _ := lh.AllocPID(m.Addr)
		m.GuestPID = pid
		m.RegisterPID(pid, m.Addr)
		pids[i] = pid
	}
	crashLeader(lh)

	// All three detect the failure simultaneously.
	type res struct {
		addr string
		err  error
	}
	ch := make(chan res, 3)
	for _, m := range []*Helper{m1, m2, m3} {
		m := m
		go func() {
			addr, err := m.ElectLeader()
			ch <- res{addr, err}
		}()
	}
	var winners []string
	for i := 0; i < 3; i++ {
		r := <-ch
		if r.err != nil {
			t.Fatalf("election: %v", r.err)
		}
		winners = append(winners, r.addr)
	}
	for _, w := range winners[1:] {
		if w != winners[0] {
			t.Fatalf("split brain: %v", winners)
		}
	}
	if winners[0] != m1.Addr {
		t.Fatalf("winner = %q, want lowest pid %q", winners[0], m1.Addr)
	}
}

func TestElectionPreservesProcessGroups(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	svc := newFakeService()
	m1, _ := g.member(lp, lh.Addr, 0, svc)
	pid1, _ := lh.AllocPID(m1.Addr)
	m1.GuestPID = pid1
	m1.RegisterPID(pid1, m1.Addr)
	if err := m1.JoinGroup(pid1, pid1); err != nil {
		t.Fatal(err)
	}

	crashLeader(lh)
	if _, err := m1.ElectLeader(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	// The group membership was reconstructed: signaling the group works.
	if err := m1.SignalGroup(pid1, api.SIGUSR1); err != nil {
		t.Fatalf("post-recovery group signal: %v", err)
	}
	if svc.signalCount() == 0 {
		t.Fatal("group member never signaled after recovery")
	}
}

// TestElectedLeaderClearsPIDsMintedBeforeJoin: the old leader's own PID
// and first batch were minted before any member joined, so no MsgNSHwm
// ever announced them, and the old leader cannot report once it is cut
// off. A member that joined by claim must still elect a leader whose PID
// cursor stands past them — from the moment its leaderState serves.
func TestElectedLeaderClearsPIDsMintedBeforeJoin(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	minted := lh.leader.cursor(NSPid)

	g.k.Isolate(lp.Proc().ID)
	defer g.k.HealIsolate(lp.Proc().ID)
	if addr, err := m1.ElectLeader(); err != nil || addr != m1.Addr {
		t.Fatalf("ElectLeader = (%q, %v), want %q", addr, err, m1.Addr)
	}
	if got := m1.leader.cursor(NSPid); got < minted {
		t.Fatalf("elected leader's PID cursor = %d, want >= %d: it can mint the old leader's PIDs again", got, minted)
	}
}
