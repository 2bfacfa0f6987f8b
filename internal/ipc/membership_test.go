package ipc

import (
	"fmt"
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/pal"
)

// The membership rule (DESIGN.md "Membership lifecycle"): a helper contacts
// a shard leader on first need and says goodbye only to leaders it shares a
// stream with. These tests hold the leader's side of it: what reaches its
// dispatcher and what its tables record.

// countingPlan installs an empty fault plan on p's picoprocess: nothing
// fires, but every frame its dispatcher serves is counted under
// "rpc.<type>.enter" — an exact server-side count, tracing on or off.
func countingPlan(p *pal.PAL) *host.FaultPlan {
	plan := host.NewFaultPlan()
	p.Proc().SetFaultPlan(plan)
	return plan
}

func served(plan *host.FaultPlan, t MsgType) int {
	return plan.Hits("rpc." + t.String() + ".enter")
}

// forked builds the helper of a child of parent the way liblinux's
// restoreChild does: the PID comes out of the parent's batch, the helper
// is told the leader's address and nothing else.
func (g *testGroup) forked(parent *Helper, parentPAL *pal.PAL, svc Service) (*Helper, *pal.PAL, int64) {
	g.t.Helper()
	cp := g.forkPAL(parentPAL)
	pid, err := parent.AllocPID(AddrForHostPID(cp.Proc().ID))
	if err != nil {
		g.t.Fatal(err)
	}
	h, err := NewForkedMember(cp, svc, pid, parent.ShardLeaderAddrs())
	if err != nil {
		g.t.Fatal(err)
	}
	return h, cp, pid
}

// leaderTables renders everything a leaderState records about members.
func leaderTables(l *leaderState) string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return fmt.Sprintf("ranges=%v next=%v leases=%v owners=%v keys=%v departed=%v",
		l.ranges, l.next, l.leases, l.owners, l.keys, l.departed)
}

// TestNSHwmOnlyWhenCursorMoved: claims of IDs some range already covers
// leave the cursor where it is and wake no subscriber; one claim above the
// cursor is one broadcast.
func TestNSHwmOnlyWhenCursorMoved(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())
	sub, err := g.forkPAL(lp).BroadcastSubscribe()
	if err != nil {
		t.Fatal(err)
	}
	// hwms drains the subscription and counts the cursor announcements,
	// after one ping round trip per helper so that everything the claims
	// caused has been sent.
	hwms := func() (n int) {
		if err := mh.Ping(lh.Addr); err != nil {
			t.Fatal(err)
		}
		for {
			select {
			case msg := <-sub.Chan():
				if f, err := DecodeFrame(bytesReader(msg.Data)); err == nil && f.Type == MsgNSHwm {
					n++
				}
			case <-time.After(20 * time.Millisecond):
				return n
			}
		}
	}
	hwms() // the member's own join claim (PID 2 sits inside the leader's batch)

	cursor := lh.leader.cursor(NSPid)
	for i := 0; i < 20; i++ {
		covered := 2 + int64(i)%(cursor-2)
		if _, err := mh.callLeader(Frame{Type: MsgNSClaim, A: NSPid, B: covered}); err != nil {
			t.Fatal(err)
		}
	}
	if n := hwms(); n != 0 {
		t.Errorf("20 claims of covered PIDs caused %d cursor broadcasts, want 0", n)
	}
	if got := lh.leader.cursor(NSPid); got != cursor {
		t.Errorf("covered claims moved the cursor %d -> %d", cursor, got)
	}
	if _, err := mh.callLeader(Frame{Type: MsgNSClaim, A: NSPid, B: cursor + 10}); err != nil {
		t.Fatal(err)
	}
	if n := hwms(); n != 1 {
		t.Errorf("a claim above the cursor caused %d broadcasts, want 1", n)
	}
	if got := lh.leader.cursor(NSPid); got != cursor+11 {
		t.Errorf("cursor = %d after claiming %d, want %d", got, cursor+10, cursor+11)
	}
}

// TestAssignedPIDStillClaims: a member that brings its own PID reserves it
// at the leader before it is returned; one built for a forked child, whose
// PID the leader granted to its parent, is never heard of.
func TestAssignedPIDStillClaims(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	plan := countingPlan(lp)

	const assigned = 7777
	mh, mp := g.member(lp, lh.Addr, assigned, newFakeService())
	if n := served(plan, MsgNSClaim); n != 1 {
		t.Fatalf("assigned-PID join made %d claims, want 1", n)
	}
	if owner, ok := lh.leader.rangeOwner(NSPid, assigned); !ok || owner != mh.Addr {
		t.Fatalf("PID %d is owned by %q (found %v), want the member", assigned, owner, ok)
	}
	if c := lh.leader.cursor(NSPid); c <= assigned {
		t.Fatalf("cursor %d did not clear the assigned PID", c)
	}

	accepted := lh.AcceptedConns()
	ch, _, pid := g.forked(mh, mp, newFakeService())
	if n := served(plan, MsgNSClaim); n != 1 {
		t.Errorf("a forked child's join claimed (now %d claims)", n)
	}
	if got := lh.AcceptedConns(); got != accepted {
		t.Errorf("a forked child's join dialed the leader: %d accepted conns, was %d", got, accepted)
	}
	if owner, _ := lh.leader.rangeOwner(NSPid, pid); owner != mh.Addr {
		t.Errorf("child PID %d is in %q's range, want its parent's", pid, owner)
	}
	// First need: the child reaches the leader the moment it asks for something.
	if _, err := ch.AllocPID("ipc.grandchild"); err != nil {
		t.Fatal(err)
	}
	if got := lh.AcceptedConns(); got != accepted+1 {
		t.Errorf("after the child's first leader RPC: %d accepted conns, want %d", got, accepted+1)
	}
}

// TestStatelessChildLeavesLeaderUntouched: forked children that never
// coordinate — one exiting cleanly, one killed — leave every leader table
// as it was, whether their parent is a plain member (no stream to the
// leader at all) or the leader itself (a stream, for the exit
// notification, and so a goodbye — but nothing worth recording).
func TestStatelessChildLeavesLeaderUntouched(t *testing.T) {
	g := newTestGroup(t)
	lsvc := newFakeService()
	lh, lp := g.leader(lsvc)
	plan := countingPlan(lp)
	mh, mp := g.member(lp, lh.Addr, 2, newFakeService())

	// Fill the parents' batches first: a refill is the parent's traffic.
	if _, err := mh.AllocPID("ipc.none"); err != nil {
		t.Fatal(err)
	}
	before := leaderTables(lh.leader)
	reaped := ReadFailoverCounters().MembersReaped
	accepted := lh.AcceptedConns()

	for _, parent := range []struct {
		h    *Helper
		p    *pal.PAL
		byes int // goodbyes the clean exit owes
	}{{mh, mp, 0}, {lh, lp, 1}} {
		byes := served(plan, MsgBye)
		clean, cleanPAL, cleanPID := g.forked(parent.h, parent.p, newFakeService())
		if err := clean.NotifyExitTo(parent.h.Addr, cleanPID, 0, 0); err != nil {
			t.Fatal(err)
		}
		clean.Shutdown()
		cleanPAL.Proc().Exit(0)
		parent.h.ForgetPID(cleanPID)

		_, killedPAL, killedPID := g.forked(parent.h, parent.p, newFakeService())
		killedPAL.Proc().Exit(137)
		parent.h.ForgetPID(killedPID)

		waitFor(t, 2*time.Second, "the leader's accepted set to settle", func() bool {
			return lh.AcceptedConns() == accepted
		})
		if got := served(plan, MsgBye) - byes; got != parent.byes {
			t.Errorf("children of %s said %d goodbyes, want %d", parent.h.Addr, got, parent.byes)
		}
	}
	// A teardown's reap runs off the read loop: give it the time the
	// graceful-departure test gives it.
	time.Sleep(50 * time.Millisecond)
	if after := leaderTables(lh.leader); after != before {
		t.Errorf("leader tables moved:\n before %s\n after  %s", before, after)
	}
	if n := served(plan, MsgNSClaim); n != 1 {
		t.Errorf("%d claims served, want only the member's own", n)
	}
	if d := ReadFailoverCounters().MembersReaped - reaped; d != 0 {
		t.Errorf("%d members reaped, want 0", d)
	}
}

// TestCoordinatingChildStillSaysGoodbye: a forked child that did take
// something from the leader — here a queue, with the ID batch and key
// lease behind it — says MsgBye before its streams close, is marked
// departed, and is not reaped; its queue survives it.
func TestCoordinatingChildStillSaysGoodbye(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	plan := countingPlan(lp)
	mh, mp := g.member(lp, lh.Addr, 2, newFakeService())
	ch, cp, _ := g.forked(mh, mp, newFakeService())

	if _, err := ch.Msgget(4242, api.IPCCreat); err != nil {
		t.Fatal(err)
	}
	reaped := ReadFailoverCounters().MembersReaped
	accepted := lh.AcceptedConns()
	ch.Shutdown()
	cp.Proc().Exit(0)
	waitFor(t, 2*time.Second, "the child's stream to the leader to close", func() bool {
		return lh.AcceptedConns() == accepted-1
	})
	time.Sleep(50 * time.Millisecond)
	if n := served(plan, MsgBye); n != 1 {
		t.Errorf("%d goodbyes served, want 1", n)
	}
	lh.leader.mu.RLock()
	_, marked := lh.leader.departed[ch.Addr]
	lh.leader.mu.RUnlock()
	if !marked {
		t.Error("a member that left an ID range behind was not marked departed")
	}
	if d := ReadFailoverCounters().MembersReaped - reaped; d != 0 {
		t.Errorf("graceful departure was reaped (%d)", d)
	}
	if _, err := mh.Msgget(4242, 0); err != nil {
		t.Errorf("queue lost after its creator's graceful exit: %v", err)
	}
}

// TestChaosLeaderKilledBeforeForkedChildSpeaks: the leader dies on the
// first frame a forked child ever sends it — nothing at the old leader
// knew the child existed, beyond the batch its parent drew its PID from.
// Whoever wins the election must never mint that PID (or any other PID of
// the parent's batch) again.
func TestChaosLeaderKilledBeforeForkedChildSpeaks(t *testing.T) {
	for _, seed := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := newTestGroup(t)
			lh, lp := g.leader(newFakeService())
			mh, mp := g.member(lp, lh.Addr, 2, newFakeService())

			// The seed is how deep into its batch the parent is at the fork.
			seen := map[int64]string{}
			for i := 0; i < seed*7; i++ {
				pid, err := mh.AllocPID("ipc.sibling")
				if err != nil {
					t.Fatal(err)
				}
				seen[pid] = mh.Addr
			}
			ch, _, childPID := g.forked(mh, mp, newFakeService())
			seen[childPID] = mh.Addr

			// The member's batch came with the 1st MsgNSAlloc; the 2nd is
			// the child's first leader RPC, and the leader dies serving it.
			plan := host.NewFaultPlan().Rule("rpc.MsgNSAlloc.enter", 1, host.FaultKill)
			lp.Proc().SetFaultPlan(plan)
			start := time.Now()
			mint := func(h *Helper) {
				t.Helper()
				pid, err := h.AllocPID("ipc.later")
				if err != nil {
					t.Fatalf("AllocPID at %s: %v", h.Addr, err)
				}
				if prev, dup := seen[pid]; dup {
					t.Fatalf("PID %d minted twice (%s, then %s)", pid, prev, h.Addr)
				}
				seen[pid] = h.Addr
			}
			mint(ch) // rides through the election
			if got := plan.Fired(); len(got) != 1 {
				t.Fatalf("fault plan fired %v, want the one kill", got)
			}
			if d := time.Since(start); d > 2*chaosRPCBudget {
				t.Errorf("the child's first RPC took %v across the failover", d)
			}
			for i := 0; i < 3*PIDBatchSize; i++ {
				mint(ch)
				mint(mh)
			}
			waitFor(t, 5*time.Second, "one leader", func() bool {
				return mh.LeaderAddr() == ch.LeaderAddr() && mh.isLeader() != ch.isLeader()
			})
			if v := CheckInvariants([]*Helper{mh, ch}); len(v) != 0 {
				t.Fatalf("invariant violations: %v", v)
			}
		})
	}
}
