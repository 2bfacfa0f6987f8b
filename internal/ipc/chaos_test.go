package ipc

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
)

// Chaos suite: deterministic crash interleavings via the host fault-
// injection layer (host.FaultPlan). Every scenario arms a fault at a named
// RPC point on a specific picoprocess — no scheduler races, no sleeps for
// correctness — then asserts the failover pipeline converges: the
// interrupted operation completes through election + retry (or fails with
// a real errno), surviving helpers agree on the new leader, and no parked
// waiter hangs. Deadline polls below are bounded convergence checks, not
// correctness sleeps.

// TestMain emits the failover-pipeline counters at suite teardown so a CI
// log shows what the chaos schedules actually exercised (a schedule that
// stops reaching its fault paths silently stops testing anything).
func TestMain(m *testing.M) {
	code := m.Run()
	c := ReadFailoverCounters()
	fmt.Printf("chaos teardown counters: failovers=%d members_reaped=%d stale_announces_dropped=%d\n",
		c.Failovers, c.MembersReaped, c.StaleAnnouncementsDropped)
	os.Exit(code)
}

// failoverDeadline bounds every convergence wait and the latency of one
// operation that rides a leader crash.
const failoverDeadline = 500 * time.Millisecond

// chaosRPCBudget bounds one logical operation that rides leader crashes
// through its failoverAttempts retries, each behind an election.
const chaosRPCBudget = 1600 * time.Millisecond

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestChaosKillLeaderMidKeyCreate kills the leader after it has executed
// a member's IPC_CREAT|IPC_EXCL create but before the reply leaves — the
// worst spot: the mapping is in the dead leader's table, the response is
// lost, and the requester is in the dark. The requester made no object,
// so no report names the key, and its retried create is the first the
// new leader (itself, the one survivor that noticed the death) sees: it
// returns one ID, never EEXIST, within the latency budget. The other
// survivor must look the key up to the same ID, and the new leader must
// map the key to the object its creator owns.
func TestChaosKillLeaderMidKeyCreate(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())

	plan := host.NewFaultPlan().Rule("rpc.MsgKeyGet.reply", 1, host.FaultKill)
	lp.Proc().SetFaultPlan(plan)

	start := time.Now()
	id, err := m1.Msgget(42, api.IPCCreat|api.IPCExcl)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("exclusive msgget across leader crash: %v; want one id", err)
	}
	if fired := plan.Fired(); len(fired) == 0 {
		t.Fatal("fault plan never fired; the scenario did not exercise the crash")
	}
	if !m1.isLeader() {
		t.Fatalf("the detector did not take over (leader=%q)", m1.LeaderAddr())
	}
	if elapsed > failoverDeadline {
		t.Fatalf("failover took %v, budget %v", elapsed, failoverDeadline)
	}
	t.Logf("msgget across leader crash completed in %v (budget %v)", elapsed, failoverDeadline)

	// The other survivor transparently re-resolves and sees the same id.
	waitFor(t, 2*time.Second, "m2 to converge on the recreated key", func() bool {
		id2, err := m2.Msgget(42, 0)
		return err == nil && id2 == id
	})
	if v := CheckInvariants([]*Helper{m1, m2}); len(v) != 0 {
		t.Fatalf("invariants violated after the create rode the crash: %v", v)
	}
}

// TestChaosKillLeaderMidPIDAlloc kills the leader as a PID-batch request
// enters its handler (request never executed). Allocation must resume
// against the elected leader with no duplicate or reused PIDs across the
// crash, from either survivor.
func TestChaosKillLeaderMidPIDAlloc(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())

	seen := make(map[int64]bool)
	claim := func(h *Helper) {
		t.Helper()
		pid, err := h.AllocPID(h.Addr)
		if err != nil {
			t.Fatalf("alloc pid: %v", err)
		}
		if seen[pid] {
			t.Fatalf("pid %d issued twice across the crash", pid)
		}
		seen[pid] = true
	}
	// A member starts without a PID batch, so its first AllocPID is one
	// MsgNSAlloc at the leader: arm a kill on it.
	plan := host.NewFaultPlan().Rule("rpc.MsgNSAlloc.enter", 1, host.FaultKill)
	lp.Proc().SetFaultPlan(plan)

	claim(m1) // rides through the crash
	if len(plan.Fired()) == 0 {
		t.Fatal("fault never fired")
	}
	if !m1.isLeader() {
		t.Fatalf("m1 (the detector) is not leader after failover")
	}
	for i := 0; i < 4; i++ {
		claim(m1)
	}
	for i := 0; i < 5; i++ {
		claim(m2) // m2's first refill re-resolves to the new leader transparently
	}
}

// TestChaosKillLeaderAfterPIDBatchGrant kills the leader after it granted
// a member's PID batch and before the reply left: the grant is in the dead
// leader's table only, and the member never learns it. The retried
// AllocPID is served by the new leader's tables, rebuilt from the
// members' reports, and must return a PID no other helper holds — not one
// of the batch the other member was granted before the crash, which that
// member keeps minting from.
func TestChaosKillLeaderAfterPIDBatchGrant(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())

	minted := make(map[int64]string)
	alloc := func(h *Helper) {
		t.Helper()
		pid, err := h.AllocPID(h.Addr)
		if err != nil {
			t.Fatalf("alloc pid at %s: %v", h.Addr, err)
		}
		if prev, ok := minted[pid]; ok {
			t.Fatalf("pid %d minted by both %s and %s", pid, prev, h.Addr)
		}
		minted[pid] = h.Addr
	}
	alloc(m2) // m2 holds a batch granted before the crash
	plan := host.NewFaultPlan().Rule("rpc.MsgNSAlloc.reply", 1, host.FaultKill)
	lp.Proc().SetFaultPlan(plan)
	alloc(m1) // granted, the answer lost with the leader, retried at the next
	if len(plan.Fired()) == 0 || !lp.Proc().Dead() {
		t.Fatal("the leader was not killed between its grant and its reply")
	}
	if !m1.isLeader() {
		t.Fatalf("the detector did not take over (leader %q)", m1.LeaderAddr())
	}
	// Past the end of m2's batch on both sides: a new leader whose cursor
	// missed that batch hands m1 the PIDs m2 mints next.
	for i := 0; i < PIDBatchSize; i++ {
		alloc(m1)
		alloc(m2)
	}
	if v := CheckInvariants([]*Helper{m1, m2}); len(v) != 0 {
		t.Fatalf("invariants violated after the grant died with the leader: %v", v)
	}
}

// TestChaosOwnShutdownRetriesNothing: a helper's Shutdown closes every
// stream it holds, among them the one a leader call of its own may be
// waiting on. The EPIPE that call then gets is no death of the live
// leader: failover surfaces it, with no election and no retry that would
// execute the call at the same leader a second time, even though the call
// began before the shutdown.
func TestChaosOwnShutdownRetriesNothing(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	m1.mu.Lock()
	epoch := m1.leaderEpoch
	m1.mu.Unlock()

	m1.Shutdown()
	before := ReadFailoverCounters()
	if err := m1.failover(0, 0, epoch, api.EPIPE); err != api.EPIPE {
		t.Fatalf("failover under the helper's own shutdown = %v, want EPIPE surfaced", err)
	}
	if d := ReadFailoverCounters().Failovers - before.Failovers; d != 0 {
		t.Fatalf("%d failovers ran for a stream the helper closed itself", d)
	}
	if !lh.isLeader() {
		t.Fatal("the live leader lost its place")
	}
}

// TestChaosSecededMemberLeadsItsNewSandbox: a sandbox split moves a
// member into a sandbox of its own, where its leader is out of reach. Its
// next leader call must make it the new sandbox's leader, even when the
// call runs before its broadcast loop has seen the old subscription end:
// a claim sent then is never read back. GOMAXPROCS 1 keeps the loop from
// running in between.
func TestChaosSecededMemberLeadsItsNewSandbox(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, m1p := g.member(lp, lh.Addr, 2, newFakeService())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := g.m.Detach(m1p.Proc(), []string{"/"}); err != nil {
		t.Fatalf("sandbox split: %v", err)
	}
	if _, err := m1.AllocPID(m1.Addr); err != nil {
		t.Fatalf("first leader call after the split: %v", err)
	}
	if !m1.isLeader() {
		t.Fatalf("the seceded member does not lead its sandbox (leader %q)", m1.LeaderAddr())
	}
	if !lh.isLeader() {
		t.Fatal("the old sandbox lost its leader")
	}
}

// TestChaosKillLeaderMidMsgsnd kills the leader as a send to a
// leader-owned queue enters its handler. The queue dies with its owner and
// was never persisted, so the sender must get a real errno (EIDRM) from
// the post-failover owner lookup — never a hang.
func TestChaosKillLeaderMidMsgsnd(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	_, _ = g.member(lp, lh.Addr, 3, newFakeService())

	id, err := lh.Msgget(55, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	plan := host.NewFaultPlan().Rule("rpc.MsgQSend.enter", 1, host.FaultKill)
	lp.Proc().SetFaultPlan(plan)

	done := make(chan error, 1)
	go func() { done <- m1.Msgsnd(id, 1, []byte("doomed"), 0) }()
	select {
	case err := <-done:
		if api.ToErrno(err) != api.EIDRM {
			t.Fatalf("send to queue that died with the leader: %v, want EIDRM", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send hung instead of surfacing the dead queue")
	}
	if len(plan.Fired()) == 0 {
		t.Fatal("fault never fired")
	}
	if !m1.isLeader() {
		t.Fatal("m1 did not take over after the crash")
	}
}

// TestChaosCrashedMemberReaped crashes a non-leader member that created a
// key and owns the backing queue — no MsgBye, no shutdown eviction. The
// leader must reap it off the dead-stream notification: remove the
// queue and let a survivor re-create the key with a fresh id.
func TestChaosCrashedMemberReaped(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())

	oldID, err := m2.Msgget(42, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	before := ReadFailoverCounters()
	m2.pal.Proc().Exit(137) // crash: no shutdown, nothing persisted

	waitFor(t, 2*time.Second, "leader to reap the crashed member", func() bool {
		return ReadFailoverCounters().MembersReaped > before.MembersReaped
	})
	// The reap removed m2's queue: the key is creatable again at the
	// leader and never resolves to the ghost.
	waitFor(t, 2*time.Second, "key to become creatable after the reap", func() bool {
		newID, err := m1.Msgget(42, api.IPCCreat)
		return err == nil && newID != oldID
	})
	_ = lh
}

// TestChaosDyingLeaderReapsNoLiveMember kills the leader after two
// members created keys through it. The leader's exit closes every stream
// it holds, and none of those deaths is a member's: it must reap no live
// member, so its tables still map every key to its creator.
func TestChaosDyingLeaderReapsNoLiveMember(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	members := []*Helper{}
	for pid := int64(2); pid <= 3; pid++ {
		m, _ := g.member(lp, lh.Addr, pid, newFakeService())
		if _, err := m.Msgget(100+pid, api.IPCCreat); err != nil {
			t.Fatal(err)
		}
		members = append(members, m)
	}
	lp.Proc().Exit(137)
	// The leader's read loops see their streams close and drop each conn;
	// a reap would start right after. Give it time to land.
	waitFor(t, 2*time.Second, "the dead leader to drop its conns", func() bool {
		return lh.AcceptedConns() == 0
	})
	time.Sleep(50 * time.Millisecond)
	l := lh.ledState()
	l.mu.RLock()
	defer l.mu.RUnlock()
	for i, m := range members {
		key := int64(102 + i)
		if e, ok := l.keys[NSSysVMsg][key]; !ok || e.owner != m.Addr {
			t.Errorf("the dead leader maps key %d to %+v (mapped=%v); want owner %s", key, e, ok, m.Addr)
		}
	}
}

// TestChaosCrashedOwnerWakesParkedWaiter parks a blocking receive at a
// remote queue owner, then crashes the owner without shutdown. The waiter's
// deferred RPC dies with the owner's streams; its retry resolves through
// the leader — which by then has reaped the owner — and must surface EIDRM
// within the deadline instead of re-parking forever.
func TestChaosCrashedOwnerWakesParkedWaiter(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())

	id, err := m2.Msgget(77, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, _, err := lh.Msgrcv(id, 0, 0)
		got <- err
	}()
	// Wait until the receive is genuinely parked at the owner before
	// crashing it (the deferred receive is one of the queue's waiters).
	waitFor(t, 2*time.Second, "receiver to park at the owner", func() bool {
		m2.mu.Lock()
		q := m2.queues[id]
		m2.mu.Unlock()
		if q == nil {
			return false
		}
		q.mu.Lock()
		defer q.mu.Unlock()
		return len(q.waiters) > 0
	})
	m2.pal.Proc().Exit(137)

	select {
	case err := <-got:
		if api.ToErrno(err) != api.EIDRM {
			t.Fatalf("parked waiter woke with %v, want EIDRM", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked waiter hung after the owner crashed")
	}
}

// TestChaosStaleLeaderAnnouncementRejected feeds a survivor a MsgNewLeader
// announcement carrying an epoch no newer than its accepted leader's: the
// stale claim must be dropped (and counted), not installed.
func TestChaosStaleLeaderAnnouncementRejected(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())

	before := ReadFailoverCounters()
	m1.handleNewLeaderBroadcast(Frame{Type: MsgNewLeader, A: 0, From: "ipc.bogus", S: "ipc.bogus"})
	if got := m1.LeaderAddr(); got != lh.Addr {
		t.Fatalf("stale announcement installed leader %q", got)
	}
	if d := ReadFailoverCounters().StaleAnnouncementsDropped - before.StaleAnnouncementsDropped; d != 1 {
		t.Fatalf("stale announcements dropped = %d, want 1", d)
	}
}

// TestChaosGracefulDepartureNotReaped: a member that says MsgBye on its
// way out (persisting its objects) must never be reaped — reaping would
// remove objects the shutdown path just persisted for adoption.
func TestChaosGracefulDepartureNotReaped(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())

	if _, err := m2.Msgget(88, api.IPCCreat); err != nil {
		t.Fatal(err)
	}
	before := ReadFailoverCounters()
	m2.Shutdown()
	m2.pal.Proc().Exit(0)

	// Give the leader's conn teardown (the reap trigger) time to run, then
	// verify it declined: the departure was graceful.
	time.Sleep(50 * time.Millisecond)
	if d := ReadFailoverCounters().MembersReaped - before.MembersReaped; d != 0 {
		t.Fatalf("graceful departure was reaped (%d)", d)
	}
	// The persisted/evicted object is still reachable through the leader.
	if _, err := lh.Msgget(88, 0); err != nil {
		t.Fatalf("object lost after graceful departure: %v", err)
	}
}

// TestChaosAdoptionAfterLeaderKillIsRecorded: a queue persisted by a
// member that left gracefully has no one to report it, so after the
// leader is killed the new leader first hears of it from its adopter's
// claim. The claim is recorded: MsgKeyOwner answers the adopter, and the
// queue keeps its messages.
func TestChaosAdoptionAfterLeaderKillIsRecorded(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, mp := g.member(lp, lh.Addr, 2, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())
	m3, _ := g.member(lp, lh.Addr, 4, newFakeService())

	id, err := m1.Msgget(73728, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	// m3 learns the owner, so its next send dials m1 itself.
	if err := m3.Msgsnd(id, 1, []byte("before"), 0); err != nil {
		t.Fatal(err)
	}
	m1.Shutdown() // persists the queue for adoption
	mp.Proc().Exit(0)
	lp.Proc().Exit(137)

	// m2, the one member that notices the kill, takes over on its first
	// leader call.
	if _, err := m2.AllocPID(m2.Addr); err != nil {
		t.Fatalf("alloc across the leader kill: %v", err)
	}
	if !m2.isLeader() {
		t.Fatalf("m2 did not take over (leader %q)", m2.LeaderAddr())
	}
	waitFor(t, failoverDeadline, "m3 to accept the new leader", func() bool {
		return m3.LeaderAddr() == m2.Addr
	})
	// m3's send finds m1 gone and adopts the persisted queue.
	if err := m3.Msgsnd(id, 1, []byte("after"), 0); err != nil {
		t.Fatalf("send adopting the persisted queue: %v", err)
	}
	resp, err := m2.callLeader(Frame{Type: MsgKeyOwner, A: NSSysVMsg, B: id})
	if err != nil || resp.S != m3.Addr {
		t.Fatalf("owner of the adopted queue at the new leader: %q err=%v, want %s", resp.S, err, m3.Addr)
	}
	for _, want := range []string{"before", "after"} {
		if _, data, err := m2.Msgrcv(id, 0, api.IPCNoWait); err != nil || string(data) != want {
			t.Fatalf("recv from the adopted queue: %q %v, want %q", data, err, want)
		}
	}
}

// TestChaosExclCreateAfterLeaderKillFindsTheLiveKey kills the leader and
// then has a member create, IPC_CREAT|IPC_EXCL, a key another member owns.
// The creator notices the death, wins the election and serves its own
// create — but only after the owner's report is in, so the create fails
// with EEXIST instead of making a second live object for the key.
func TestChaosExclCreateAfterLeaderKillFindsTheLiveKey(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	creator, _ := g.member(lp, lh.Addr, 2, newFakeService())
	owner, _ := g.member(lp, lh.Addr, 3, newFakeService())
	const key = 0x7300
	id, err := owner.Msgget(key, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	lp.Proc().Exit(137)
	if got, err := creator.Msgget(key, api.IPCCreat|api.IPCExcl); err != api.EEXIST {
		t.Fatalf("exclusive create of a live key across the leader kill: id %d, err %v; want EEXIST", got, err)
	}
	if !creator.isLeader() {
		t.Fatalf("the detector did not take over (leader %q)", creator.LeaderAddr())
	}
	if got, err := creator.Msgget(key, 0); err != nil || got != id {
		t.Fatalf("lookup at the new leader: id %d, err %v; want %d", got, err, id)
	}
	if v := CheckInvariants([]*Helper{creator, owner}); len(v) != 0 {
		t.Fatalf("invariants violated: %v", v)
	}
}

// TestChaosChildForkedAfterAnElectionClaimsATakenEpoch: a child forked
// after an election is told its leader's address but not its epoch. When
// it is the first to notice that leader's death, its claim repeats an
// epoch the older members have already accepted, and only they can tell
// it so. The child must not lead beside the leader they would elect: its
// promotion learns the taken epoch from their reports, and it claims the
// next one instead.
func TestChaosChildForkedAfterAnElectionClaimsATakenEpoch(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, mp1 := g.member(lp, lh.Addr, 2, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())
	lp.Proc().Exit(137)
	if _, err := m1.AllocPID(m1.Addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, failoverDeadline, "m2 to accept m1 at epoch 1", func() bool {
		return m2.LeaderAddr() == m1.Addr
	})
	ch, _, _ := g.forked(m1, mp1, newFakeService())
	mp1.Proc().Exit(137)

	if _, err := ch.AllocPID(ch.Addr); err != nil {
		t.Fatalf("the child's call across its leader's death: %v", err)
	}
	if _, err := m2.AllocPID(m2.Addr); err != nil {
		t.Fatalf("the older member's call: %v", err)
	}
	waitFor(t, failoverDeadline, "one leader both follow", func() bool {
		return ch.LeaderAddr() == m2.LeaderAddr() && ch.isLeader() != m2.isLeader()
	})
	for _, h := range []*Helper{ch, m2} {
		h.mu.Lock()
		epoch := h.leaderEpoch
		h.mu.Unlock()
		if epoch != 2 {
			t.Errorf("%s accepted epoch %d, want 2: epoch 1 was m1's", h.Addr, epoch)
		}
	}
	if v := CheckInvariants([]*Helper{ch, m2}); len(v) != 0 {
		t.Fatalf("invariants violated: %v", v)
	}
}

// TestChaosLeaderKilledUnderAnElectionHerd kills the leader of a sandbox
// of 300 members, and every member notices at once: each claims the next
// epoch, so the broadcast log takes 300 claims that no reader has drained
// yet. The herd must settle on one leader — the first claim in broadcast
// order — that every member accepts, and every member's first call must
// go through.
func TestChaosLeaderKilledUnderAnElectionHerd(t *testing.T) {
	const members = 300
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	ms := make([]*Helper, members)
	for i := range ms {
		ms[i], _ = g.member(lp, lh.Addr, int64(2+i), newFakeService())
	}
	lp.Proc().Exit(137)

	errs := make(chan error, members)
	for _, m := range ms {
		go func(m *Helper) {
			_, err := m.AllocPID(m.Addr)
			errs <- err
		}(m)
	}
	for range ms {
		if err := <-errs; err != nil {
			t.Fatalf("a member's call across the leader kill: %v", err)
		}
	}
	var winner string
	agreed := func() bool {
		winner = ms[0].LeaderAddr()
		for _, m := range ms {
			if m.LeaderAddr() != winner || winner == "" {
				return false
			}
		}
		return true
	}
	for end := time.Now().Add(5 * time.Second); !agreed(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(end) {
			follow := make(map[string]int)
			for _, m := range ms {
				m.mu.Lock()
				follow[fmt.Sprintf("%q@%d lead=%v", m.leaderAddr, m.leaderEpoch, m.leader != nil)]++
				m.mu.Unlock()
			}
			t.Fatalf("members never agreed on one leader: %v", follow)
		}
	}
	leaders := 0
	for _, m := range ms {
		if m.isLeader() {
			leaders++
			if m.Addr != winner {
				t.Fatalf("%s leads, but every member follows %s", m.Addr, winner)
			}
		}
	}
	if leaders != 1 {
		t.Fatalf("%d helpers lead", leaders)
	}
	if v := CheckInvariants(ms); len(v) != 0 {
		t.Fatalf("invariants violated after the herd: %v", v)
	}
}
