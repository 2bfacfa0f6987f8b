package ipc

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"graphene/internal/api"
)

// Partition chaos: schedules built on the host partition layer
// (Kernel.Partition/Isolate) rather than kills. The defining property is
// that nothing tears — a partitioned leader stays alive, keeps believing
// it leads, and resumes talking after the heal — so these scenarios
// exercise the fencing protocol (epoch-stamped requests, heartbeat
// re-asserts, step-down + reconcile) that kill-based chaos never reaches.

// TestMain emits the failover-pipeline counters at suite teardown so a CI
// log shows what the chaos schedules actually exercised (a schedule that
// stops reaching its fault paths silently stops testing anything).
func TestMain(m *testing.M) {
	code := m.Run()
	c := ReadFailoverCounters()
	fmt.Printf("chaos teardown counters: failovers=%d replays_deduped=%d members_reaped=%d "+
		"rpc_timeouts=%d fenced_requests=%d step_downs=%d reconciled=%d reconcile_tombstoned=%d "+
		"recover_retries=%d recover_failures=%d stale_announces_dropped=%d\n",
		c.Failovers, c.ReplaysDeduped, c.MembersReaped,
		c.RPCTimeouts, c.FencedRequests, c.LeaderStepDowns, c.ReconciledObjects, c.ReconcileTombstoned,
		c.RecoverSendRetries, c.RecoverSendFailures, c.StaleAnnouncementsDropped)
	os.Exit(code)
}

// chaosRPCBudget bounds one logical operation that spans a partition:
// every attempt rides the RPC deadline and failover is bounded, so the
// worst case is all attempts timing out plus the full failover window —
// never an unbounded hang.
const chaosRPCBudget = (failoverAttempts+1)*rpcCallTimeout + 2*failoverDeadline

// TestChaosPartitionLeaderMidMsggetChurn is the acceptance scenario: the
// leader is partitioned (not killed) in the middle of msgget churn. The
// majority must elect a replacement and keep every operation inside the
// deadline budget; after the heal the deposed leader must step down,
// reconcile its objects (one survives, one lost to a during-partition
// recreate and is tombstoned), and the invariant checker must pass.
func TestChaosPartitionLeaderMidMsggetChurn(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())

	before := ReadFailoverCounters()

	// Leader-owned keyed queues: 700 is untouched during the partition
	// (reconciles cleanly), 777 is recreated by the majority (the deposed
	// leader's copy must lose and be tombstoned).
	survivorID, err := lh.Msgget(700, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	loserID, err := lh.Msgget(777, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}

	// Every create is one MsgKeyGet round trip to the leader, the call the
	// partition must interrupt.
	churnKey := func(i int) int64 { return int64(1000 + 64*i) }
	for i := 0; i < 4; i++ {
		if _, err := m1.Msgget(churnKey(i), api.IPCCreat); err != nil {
			t.Fatalf("warmup msgget: %v", err)
		}
	}

	// Partition the leader mid-churn. It stays alive: no EPIPE anywhere.
	g.k.Isolate(lp.Proc().ID)

	start := time.Now()
	if _, err := m1.Msgget(churnKey(4), api.IPCCreat); err != nil {
		t.Fatalf("msgget across the partition: %v", err)
	}
	elapsed := time.Since(start)
	if elapsed > chaosRPCBudget {
		t.Fatalf("op spanning the partition took %v, budget %v", elapsed, chaosRPCBudget)
	}
	if !m1.isLeader() {
		t.Fatalf("majority did not elect a replacement (m1 leader=%v, addr=%q)", m1.isLeader(), m1.LeaderAddr())
	}
	t.Logf("op spanning the partition completed in %v (budget %v)", elapsed, chaosRPCBudget)

	// Churn continues against the new leader; every op stays bounded.
	for i := 5; i < 8; i++ {
		start := time.Now()
		if _, err := m1.Msgget(churnKey(i), api.IPCCreat); err != nil {
			t.Fatalf("churn after election: %v", err)
		}
		if el := time.Since(start); el > chaosRPCBudget {
			t.Fatalf("post-election op took %v, budget %v", el, chaosRPCBudget)
		}
	}
	waitFor(t, 2*time.Second, "m2 to accept the new leader", func() bool {
		return m2.LeaderAddr() == m1.Addr
	})
	for i := 8; i < 10; i++ {
		if _, err := m2.Msgget(churnKey(i), api.IPCCreat); err != nil {
			t.Fatalf("m2 churn after election: %v", err)
		}
	}
	// The majority recreates key 777 while the deposed leader still holds
	// its copy: classic split brain, to be resolved at heal time.
	newLoserID, err := m1.Msgget(777, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	if newLoserID == loserID {
		t.Fatalf("recreated key reused id %d", loserID)
	}

	healStart := time.Now()
	g.k.HealIsolate(lp.Proc().ID)

	// Convergence trigger is the new leader's heartbeat: the deposed
	// leader hears the newer epoch and steps down.
	waitFor(t, 2*time.Second, "deposed leader to step down", func() bool {
		return !lh.isLeader() && lh.LeaderAddr() == m1.Addr
	})
	// ... then reconciles: one object re-registered, one tombstoned.
	waitFor(t, 2*time.Second, "deposed leader to reconcile", func() bool {
		c := ReadFailoverCounters()
		return c.ReconciledObjects > before.ReconciledObjects &&
			c.ReconcileTombstoned > before.ReconcileTombstoned
	})
	t.Logf("heal -> step-down + reconcile completed in %v", time.Since(healStart))

	// Exactly one accepted leader, agreed upon sandbox-wide.
	leaders := 0
	for _, h := range []*Helper{lh, m1, m2} {
		if h.isLeader() {
			leaders++
		}
		if got := h.LeaderAddr(); got != m1.Addr {
			t.Fatalf("%s accepted leader %q, want %q", h.Addr, got, m1.Addr)
		}
	}
	if leaders != 1 {
		t.Fatalf("accepted leaders = %d, want exactly 1", leaders)
	}
	// The untouched key still resolves to the deposed leader's object; the
	// contested key resolves to the majority's copy everywhere — including
	// at the deposed leader, whose losing copy is gone.
	if got, err := lh.Msgget(700, 0); err != nil || got != survivorID {
		t.Fatalf("survivor key after heal: id=%d err=%v, want %d", got, err, survivorID)
	}
	if got, err := lh.Msgget(777, 0); err != nil || got != newLoserID {
		t.Fatalf("contested key at deposed leader: id=%d err=%v, want %d", got, err, newLoserID)
	}
	if got, err := m2.Msgget(777, 0); err != nil || got != newLoserID {
		t.Fatalf("contested key at m2: id=%d err=%v, want %d", got, err, newLoserID)
	}

	if v := CheckInvariants([]*Helper{lh, m1, m2}); len(v) != 0 {
		t.Fatalf("invariants violated after heal: %v", v)
	}
	after := ReadFailoverCounters()
	if after.RPCTimeouts == before.RPCTimeouts {
		t.Fatal("no RPC deadline ever fired; the partition was not exercised")
	}
	if after.LeaderStepDowns == before.LeaderStepDowns {
		t.Fatal("the deposed leader never counted a step-down")
	}
}

// TestChaosFencedRequestDemotesDeposedLeader drives the request-borne
// fencing path directly: a mutation stamped with a higher epoch than the
// receiving leader's own is proof of demotion. The leader must step down
// (bounce the request with EPERM from the now-leaderless handler) rather
// than execute against tables the sandbox no longer trusts.
func TestChaosFencedRequestDemotesDeposedLeader(t *testing.T) {
	g := newTestGroup(t)
	lh, _ := g.leader(newFakeService())

	before := ReadFailoverCounters()
	respCh := make(chan Frame, 1)
	lh.dispatch(Frame{
		Type: MsgNSAlloc, A: int64(NSPid), B: 1,
		From: "ipc.phantom", ReqID: 901, Epoch: 5,
	}, func(r Frame) { respCh <- r })

	select {
	case r := <-respCh:
		if r.Err != api.EPERM {
			t.Fatalf("fenced request answered %v, want EPERM", r.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fenced request never answered")
	}
	if lh.isLeader() {
		t.Fatal("leader executed past a fencing epoch instead of stepping down")
	}
	lh.mu.Lock()
	epoch := lh.leaderEpoch
	lh.mu.Unlock()
	if epoch != 5 {
		t.Fatalf("post-fence epoch = %d, want 5 (adopted from the request)", epoch)
	}
	after := ReadFailoverCounters()
	if after.FencedRequests != before.FencedRequests+1 {
		t.Fatalf("fenced requests delta = %d, want 1", after.FencedRequests-before.FencedRequests)
	}
	if after.LeaderStepDowns != before.LeaderStepDowns+1 {
		t.Fatalf("step-down delta = %d, want 1", after.LeaderStepDowns-before.LeaderStepDowns)
	}
}

// TestChaosDelayedAnnouncementAfterHeal runs a real partition + election,
// heals, and then replays the two announcement shapes a heal lets loose:
// a delayed copy of the old leader's claim (must be dropped by epoch) and
// an equal-epoch duplicate of the accepted announcement — the heartbeat
// shape — which must be idempotent: neither re-installed nor counted as
// stale (counting it would make every heartbeat look like a rejected
// usurper in the metrics).
func TestChaosDelayedAnnouncementAfterHeal(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())

	g.k.Isolate(lp.Proc().ID)
	if _, err := m1.Msgget(3100, api.IPCCreat); err != nil {
		t.Fatalf("msgget across the partition: %v", err)
	}
	waitFor(t, 2*time.Second, "m2 to accept the new leader", func() bool {
		return m2.LeaderAddr() == m1.Addr
	})
	g.k.HealIsolate(lp.Proc().ID)
	waitFor(t, 2*time.Second, "deposed leader to step down", func() bool {
		return !lh.isLeader()
	})

	m2.mu.Lock()
	accepted := m2.leaderEpoch
	m2.mu.Unlock()

	before := ReadFailoverCounters()
	// Delayed copy of the old leader's epoch-0 announcement.
	m2.handleNewLeaderBroadcast(Frame{Type: MsgNewLeader, A: 0, From: lh.Addr, S: lh.Addr})
	if got := m2.LeaderAddr(); got != m1.Addr {
		t.Fatalf("delayed announcement installed %q over %q", got, m1.Addr)
	}
	if d := ReadFailoverCounters().StaleAnnouncementsDropped - before.StaleAnnouncementsDropped; d != 1 {
		t.Fatalf("stale announcements dropped delta = %d, want 1", d)
	}
	// Equal-epoch duplicate of the accepted announcement (heartbeat shape).
	m2.handleNewLeaderBroadcast(Frame{Type: MsgNewLeader, A: accepted, From: m1.Addr, S: m1.Addr})
	if got := m2.LeaderAddr(); got != m1.Addr {
		t.Fatalf("idempotent duplicate changed leader to %q", got)
	}
	if d := ReadFailoverCounters().StaleAnnouncementsDropped - before.StaleAnnouncementsDropped; d != 1 {
		t.Fatal("idempotent duplicate was miscounted as a stale announcement")
	}
}

// TestChaosEqualEpochTieBreak covers symmetric double elections: two
// leaders at the same epoch (both sides of a partition elected
// independently and the epochs collided). The tie breaks deterministically
// by address — lower wins — so the pair converges without a third round.
func TestChaosEqualEpochTieBreak(t *testing.T) {
	g := newTestGroup(t)
	lh, _ := g.leader(newFakeService())

	// Rival at our epoch with a HIGHER address: we win the tie-break and
	// stay leader (re-asserting so the rival's side converges onto us).
	lh.handleNewLeaderBroadcast(Frame{Type: MsgNewLeader, A: 0, From: "~" + lh.Addr, S: "~" + lh.Addr})
	if !lh.isLeader() {
		t.Fatal("leader stepped down to a tie-break loser")
	}

	// Rival at our epoch with a LOWER address: we lose and must step down,
	// adopting the winner.
	before := ReadFailoverCounters()
	rival := "!" + lh.Addr
	lh.handleNewLeaderBroadcast(Frame{Type: MsgNewLeader, A: 0, From: rival, S: rival})
	if lh.isLeader() {
		t.Fatal("leader survived losing the equal-epoch tie-break")
	}
	if got := lh.LeaderAddr(); got != rival {
		t.Fatalf("deposed leader accepted %q, want tie-break winner %q", got, rival)
	}
	if d := ReadFailoverCounters().LeaderStepDowns - before.LeaderStepDowns; d != 1 {
		t.Fatalf("step-down delta = %d, want 1", d)
	}
	// The step-down spawned a background reconcile toward the phantom
	// rival; let it fail terminally here so its counter bump cannot bleed
	// into a later test's delta assertions.
	waitFor(t, 5*time.Second, "background reconcile to settle", func() bool {
		return ReadFailoverCounters().RecoverSendFailures > before.RecoverSendFailures
	})
}

// TestChaosRecoverStuckBehindPartition pins the recover-state retry loop
// against a partitioned new leader: every attempt times out, and the
// absolute deadline must turn the formerly endless retry schedule into a
// terminal, counted failure.
func TestChaosRecoverStuckBehindPartition(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, p1 := g.member(lp, lh.Addr, 2, newFakeService())

	before := ReadFailoverCounters()
	g.k.Partition(p1.Proc().ID, lp.Proc().ID)

	start := time.Now()
	m1.sendRecoverState(lh.Addr) // synchronous: returns only when done
	elapsed := time.Since(start)

	// The loop must stop at its absolute deadline (plus at most one
	// in-flight attempt), not run the full 10-attempt schedule at one
	// attempt timeout each.
	if limit := recoverDeadline + 2*recoverAttemptTimeout; elapsed > limit {
		t.Fatalf("recover loop ran %v, deadline limit %v", elapsed, limit)
	}
	after := ReadFailoverCounters()
	if after.RecoverSendFailures != before.RecoverSendFailures+1 {
		t.Fatalf("recover failures delta = %d, want 1 (terminal, surfaced)", after.RecoverSendFailures-before.RecoverSendFailures)
	}
	if after.RecoverSendRetries == before.RecoverSendRetries {
		t.Fatal("recover loop never retried before giving up")
	}
	g.k.HealAll()
}

// TestChaosRandomPartitionSchedule runs randomized partition/heal
// schedules (fixed seeds, so CI failures reproduce) through msgget, PID
// allocation, and async send churn with forks of leadership mid-stream.
// Operations may fail with real errnos while the sandbox is degraded, but
// they must never block past the deadline budget, and after the final
// heal the sandbox must converge to one leader with every safety
// invariant intact.
func TestChaosRandomPartitionSchedule(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ResetFailoverCounters()
			rng := rand.New(rand.NewSource(seed))
			g := newTestGroup(t)
			lh, lp := g.leader(newFakeService())
			m1, p1 := g.member(lp, lh.Addr, 2, newFakeService())
			m2, p2 := g.member(lp, lh.Addr, 3, newFakeService())
			helpers := []*Helper{lh, m1, m2}
			hostPID := []int{lp.Proc().ID, p1.Proc().ID, p2.Proc().ID}

			opBudget := 2*chaosRPCBudget + time.Second
			isolated := -1 // index of the currently isolated helper
			healAt := 0
			var nextKey int64
			var createdQ []int64
			seenPIDs := make(map[int64]string)

			for step := 0; step < 50; step++ {
				if isolated < 0 && rng.Intn(8) == 0 {
					// Strand whoever currently leads — the partitioned-
					// yet-alive leader is the interesting victim. Churn
					// stays on the majority side while it is gone.
					idx := 0
					for i, h := range helpers {
						if h.isLeader() {
							idx = i
							break
						}
					}
					isolated = idx
					g.k.Isolate(hostPID[idx])
					healAt = step + 4 + rng.Intn(8)
				}
				if isolated >= 0 && step >= healAt {
					healed := isolated
					g.k.HealIsolate(hostPID[healed])
					isolated = -1
					// A deposed leader serves local allocations from stale
					// tables until the first post-heal heartbeat demotes it
					// (the documented fencing gap); hold off driving ops
					// through the healed helper until it has converged.
					waitFor(t, 5*time.Second, "healed helper to converge", func() bool {
						var addr string
						for _, hh := range helpers {
							if hh.isLeader() {
								if addr != "" {
									return false // two leaders: not converged
								}
								addr = hh.Addr
							}
						}
						return addr != "" && helpers[healed].LeaderAddr() == addr
					})
				}

				idx := rng.Intn(len(helpers))
				if idx == isolated {
					idx = (idx + 1) % len(helpers)
				}
				h := helpers[idx]

				start := time.Now()
				switch rng.Intn(3) {
				case 0:
					key := 5000 + 64*(nextKey%8) // clustered key space: recreates collide
					nextKey++
					if id, err := h.Msgget(key, api.IPCCreat); err == nil {
						createdQ = append(createdQ, id)
					}
				case 1:
					if pid, err := h.AllocPID(h.Addr); err == nil {
						if prev, dup := seenPIDs[pid]; dup {
							t.Fatalf("step %d: PID %d allocated twice (%s then %s)", step, pid, prev, h.Addr)
						}
						seenPIDs[pid] = h.Addr
					}
				case 2:
					if len(createdQ) > 0 {
						_ = h.Msgsnd(createdQ[rng.Intn(len(createdQ))], 1, []byte("m"), 0)
					}
				}
				if el := time.Since(start); el > opBudget {
					t.Fatalf("step %d blocked %v (budget %v)", step, el, opBudget)
				}
			}

			g.k.HealAll()
			waitFor(t, 5*time.Second, "post-heal convergence on one leader", func() bool {
				leaders := 0
				for _, h := range helpers {
					if h.isLeader() {
						leaders++
					}
				}
				addr := helpers[0].LeaderAddr()
				if leaders != 1 || addr == "" {
					return false
				}
				for _, h := range helpers {
					if h.LeaderAddr() != addr {
						return false
					}
				}
				return true
			})
			// Repair is asynchronous past the leader agreement above: recover
			// reports are retried off heartbeats and the losing copies of
			// conflicted keys are dropped in background reconciles. The
			// invariants must *converge* to clean — poll briefly, then report
			// whatever violation persists.
			violations := CheckInvariants(helpers)
			for deadline := time.Now().Add(5 * time.Second); len(violations) != 0 && time.Now().Before(deadline); {
				time.Sleep(5 * time.Millisecond)
				violations = CheckInvariants(helpers)
			}
			if len(violations) != 0 {
				t.Fatalf("invariants violated after chaos schedule: %v", violations)
			}
			c := ReadFailoverCounters()
			t.Logf("seed %d: failovers=%d rpc_timeouts=%d step_downs=%d reconciled=%d tombstoned=%d",
				seed, c.Failovers, c.RPCTimeouts, c.LeaderStepDowns, c.ReconciledObjects, c.ReconcileTombstoned)
		})
	}
}
