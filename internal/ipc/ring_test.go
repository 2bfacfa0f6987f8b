package ipc

import (
	"sync"
	"testing"
	"time"

	"graphene/internal/api"
)

// Kernel-bypass ring suite: the grant handshake, the three fast paths
// (msgsnd push, msgrcv pop, semop CAS), every fallback edge the design
// promises (selective receive, removal, migration), and the chaos
// scenarios — owner death mid-traffic, sandbox split mid-receive — that
// must leave no live ring behind (invariant 5). Tests that pin a stable
// attachment disable migration, exactly like the migration-ablation tests:
// the migrate threshold (4 remote receives) is below the ring-attach
// threshold (8 remote ops), so ownership would otherwise chase the client.

// qAttached reports the client's live attachment for queue id (nil if
// none), and whether it includes a receive ring.
func qAttached(h *Helper, id int64) (rc *ringClient, hasRecv bool) {
	h.ringState.mu.Lock()
	defer h.ringState.mu.Unlock()
	rc = h.ringState.clients[sysvRef{NSSysVMsg, id}]
	if rc == nil {
		return nil, false
	}
	return rc, rc.recv != nil
}

func semAttached(h *Helper, id int64) *ringClient {
	h.ringState.mu.Lock()
	defer h.ringState.mu.Unlock()
	return h.ringState.clients[sysvRef{NSSysVSem, id}]
}

// driveQAttach sends threshold remote messages and waits for the send-ring
// grant to land.
func driveQAttach(t *testing.T, client *Helper, id int64) {
	t.Helper()
	for i := 0; i < ringAttachThreshold; i++ {
		if err := client.Msgsnd(id, 1, []byte{byte(i)}, 0); err != nil {
			t.Fatalf("warm-up send %d: %v", i, err)
		}
	}
	waitFor(t, 2*time.Second, "ring attach", func() bool {
		rc, _ := qAttached(client, id)
		return rc != nil
	})
}

func TestRingSendFastPath(t *testing.T) {
	SetMigrationEnabled(false)
	defer SetMigrationEnabled(true)
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())

	id, err := lh.Msgget(31, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	driveQAttach(t, mh, id)

	// Steady state: sends land in the ring, not on the RPC plane.
	hits := mh.ringHits.Load()
	const extra = 12
	for i := ringAttachThreshold; i < ringAttachThreshold+extra; i++ {
		if err := mh.Msgsnd(id, 1, []byte{byte(i)}, 0); err != nil {
			t.Fatalf("ring send %d: %v", i, err)
		}
	}
	if got := mh.ringHits.Load() - hits; got == 0 {
		t.Fatal("no ring hits after attach; sends still on RPC")
	}

	// FIFO across the path switch: RPC warm-up messages, then ring pushes,
	// arrive at the owner in send order.
	for i := 0; i < ringAttachThreshold+extra; i++ {
		mt, data, err := lh.Msgrcv(id, 0, 0)
		if err != nil {
			t.Fatalf("owner recv %d: %v", i, err)
		}
		if mt != 1 || len(data) != 1 || data[0] != byte(i) {
			t.Fatalf("recv %d = (mtype %d, %v): FIFO broken across path switch", i, mt, data)
		}
	}
}

func TestRingSendFullRingFallsBackInOrder(t *testing.T) {
	SetMigrationEnabled(false)
	defer SetMigrationEnabled(true)
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())

	id, err := lh.Msgget(32, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	driveQAttach(t, mh, id)
	for i := 0; i < ringAttachThreshold; i++ { // drain the warm-up backlog
		if _, _, err := lh.Msgrcv(id, 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	// Interleave ring-eligible sends with oversize ones (beyond a slot's
	// capacity, deterministically forced onto RPC) and overrun the slot
	// count, so the stream mixes both paths arbitrarily. Order must hold
	// anyway: the owner ingests the ring before acting on any RPC send.
	const total = 200 // well past RingSlots=64
	for i := 0; i < total; i++ {
		payload := []byte{byte(i), byte(i >> 8)}
		if i%5 == 4 {
			big := make([]byte, 2048)
			big[0], big[1] = payload[0], payload[1]
			payload = big
		}
		if err := mh.Msgsnd(id, 2, payload, 0); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if mh.ringMisses.Load() == 0 {
		t.Fatal("expected ring misses; the fallback path was never exercised")
	}
	for i := 0; i < total; i++ {
		_, data, err := lh.Msgrcv(id, 0, 0)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got := int(data[0]) | int(data[1])<<8; got != i {
			t.Fatalf("recv %d delivered payload %d: mixed ring/RPC path reordered", i, got)
		}
	}
}

// driveRecvRingAttach builds an attachment that includes the receive ring:
// paired send/recv warm-up keeps the owner's backlog empty, so the grant
// (which requires an empty, waiter-free queue) includes both directions.
func driveRecvRingAttach(t *testing.T, owner, client *Helper, id int64) {
	t.Helper()
	for i := 0; i < ringAttachThreshold; i++ {
		if err := owner.Msgsnd(id, 1, []byte{byte(i)}, 0); err != nil {
			t.Fatalf("owner send %d: %v", i, err)
		}
		if _, _, err := client.Msgrcv(id, 0, 0); err != nil {
			t.Fatalf("client recv %d: %v", i, err)
		}
	}
	waitFor(t, 2*time.Second, "receive-ring grant", func() bool {
		_, hasRecv := qAttached(client, id)
		return hasRecv
	})
}

func TestRingRecvFastPath(t *testing.T) {
	SetMigrationEnabled(false)
	defer SetMigrationEnabled(true)
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())

	id, err := lh.Msgget(33, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	driveRecvRingAttach(t, lh, mh, id)

	// Owner-side send forwards into the receive ring; the client pops it
	// without touching the RPC plane.
	hits := mh.ringHits.Load()
	if err := lh.Msgsnd(id, 2, []byte("via-ring"), 0); err != nil {
		t.Fatal(err)
	}
	mt, data, err := mh.Msgrcv(id, 0, 0)
	if err != nil || mt != 2 || string(data) != "via-ring" {
		t.Fatalf("ring recv = (%d, %q, %v)", mt, data, err)
	}
	if mh.ringHits.Load() == hits {
		t.Fatal("receive did not use the ring")
	}

	// Empty ring + IPC_NOWAIT is answered locally: while the ring is live
	// the queue is empty iff the ring is.
	if _, _, err := mh.Msgrcv(id, 0, api.IPCNoWait); api.ToErrno(err) != api.ENOMSG {
		t.Fatalf("non-blocking recv on empty ring: %v, want ENOMSG", err)
	}

	// A blocking receive parks on the doorbell and wakes on the next
	// owner-side send.
	type res struct {
		mt   int64
		data []byte
		err  error
	}
	got := make(chan res, 1)
	go func() {
		mt, data, err := mh.Msgrcv(id, 0, 0)
		got <- res{mt, data, err}
	}()
	time.Sleep(20 * time.Millisecond)
	if err := lh.Msgsnd(id, 3, []byte("wake"), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.err != nil || r.mt != 3 || string(r.data) != "wake" {
			t.Fatalf("doorbell recv = (%d, %q, %v)", r.mt, r.data, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocking ring receive never woke")
	}
}

func TestRingSelectiveRecvReclaimsRecvRing(t *testing.T) {
	SetMigrationEnabled(false)
	defer SetMigrationEnabled(true)
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())

	id, err := lh.Msgget(34, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	driveRecvRingAttach(t, lh, mh, id)

	// Two messages sit in the receive ring; a selective (mtype>0) receive
	// cannot use the FIFO ring, so it rides RPC and makes the owner
	// reclaim — folding the undelivered messages back without loss.
	if err := lh.Msgsnd(id, 5, []byte("five"), 0); err != nil {
		t.Fatal(err)
	}
	if err := lh.Msgsnd(id, 6, []byte("six"), 0); err != nil {
		t.Fatal(err)
	}
	mt, data, err := mh.Msgrcv(id, 6, 0)
	if err != nil || mt != 6 || string(data) != "six" {
		t.Fatalf("selective recv = (%d, %q, %v)", mt, data, err)
	}
	// The skipped message survived the reclaim and is still first in FIFO
	// order (the client transparently falls back to RPC for it).
	mt, data, err = mh.Msgrcv(id, 0, 0)
	if err != nil || mt != 5 || string(data) != "five" {
		t.Fatalf("post-reclaim recv = (%d, %q, %v)", mt, data, err)
	}
}

func TestRingSemFastPath(t *testing.T) {
	SetMigrationEnabled(false)
	defer SetMigrationEnabled(true)
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())

	id, err := lh.Semget(41, 1, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ringAttachThreshold/2; i++ {
		if err := mh.Semop(id, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
			t.Fatalf("warm-up post %d: %v", i, err)
		}
		if err := mh.Semop(id, []api.SemBuf{{Num: 0, Op: -1}}); err != nil {
			t.Fatalf("warm-up acquire %d: %v", i, err)
		}
	}
	waitFor(t, 2*time.Second, "sem segment grant", func() bool {
		return semAttached(mh, id) != nil
	})

	hits := mh.ringHits.Load()
	if err := mh.Semop(id, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
		t.Fatalf("ring post: %v", err)
	}
	if err := mh.Semop(id, []api.SemBuf{{Num: 0, Op: -1}}); err != nil {
		t.Fatalf("ring acquire: %v", err)
	}
	if got := mh.ringHits.Load() - hits; got < 2 {
		t.Fatalf("ring hits after attach = %d, want >= 2", got)
	}

	// Non-blocking would-block is answered locally — the shared word is
	// the authoritative value, so the local EAGAIN is exact.
	err = mh.Semop(id, []api.SemBuf{{Num: 0, Op: -1, Flg: api.IPCNoWait}})
	if api.ToErrno(err) != api.EAGAIN {
		t.Fatalf("non-blocking acquire on zero: %v, want EAGAIN", err)
	}

	// A blocking acquire falls back to RPC parking at the owner; an
	// owner-side post (which lands in the shared segment) must wake it.
	done := make(chan error, 1)
	go func() {
		done <- mh.Semop(id, []api.SemBuf{{Num: 0, Op: -1}})
	}()
	time.Sleep(20 * time.Millisecond)
	if err := lh.Semop(id, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
		t.Fatalf("owner post: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("parked acquire after segment post: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked acquire never woke after an owner-side post")
	}
}

func TestRingRevokedOnRemoval(t *testing.T) {
	SetMigrationEnabled(false)
	defer SetMigrationEnabled(true)
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())

	qid, err := lh.Msgget(35, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	driveQAttach(t, mh, qid)
	rc, _ := qAttached(mh, qid)

	// Drain the warm-up backlog so removal is clean, then remove: the
	// owner collapses the rings, which the client observes as revocation
	// and an error on the next (RPC-fallback) send.
	for i := 0; i < ringAttachThreshold; i++ {
		if _, _, err := lh.Msgrcv(qid, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := lh.MsgRmid(qid); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "send-ring revocation", rc.send.Revoked)
	if err := mh.Msgsnd(qid, 1, []byte("late"), 0); err == nil {
		t.Fatal("send to a removed queue succeeded")
	}
	waitFor(t, 2*time.Second, "attachment drop", func() bool {
		_ = mh.Msgsnd(qid, 1, []byte("x"), 0) // any path re-checks and drops
		got, _ := qAttached(mh, qid)
		return got == nil
	})

	// Same for semaphores: removal seals the segment; the client's next op
	// sees EAGAIN on the segment, falls back, and gets the removal errno.
	sid, err := lh.Semget(42, 1, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ringAttachThreshold/2; i++ {
		if err := mh.Semop(sid, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
			t.Fatal(err)
		}
		if err := mh.Semop(sid, []api.SemBuf{{Num: 0, Op: -1}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, "sem segment grant", func() bool {
		return semAttached(mh, sid) != nil
	})
	sc := semAttached(mh, sid)
	if err := lh.SemRmid(sid); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "sem segment revocation", sc.seg.Revoked)
	if err := mh.Semop(sid, []api.SemBuf{{Num: 0, Op: 1}}); err == nil {
		t.Fatal("semop on a removed set succeeded")
	}
}

// TestChaosRingKillOwnerMidSend crashes the owner (no shutdown, nothing
// persisted) while a client is streaming sends through the ring. The
// kernel's exit path must revoke the segments in the same critical section
// that removes the picoprocess, the client must observe the revocation and
// fall back (surfacing an error once re-resolution fails), and the ring
// invariant — no live segment with a dead endpoint — must hold throughout.
func TestChaosRingKillOwnerMidSend(t *testing.T) {
	SetMigrationEnabled(false)
	defer SetMigrationEnabled(true)
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	m2, m2p := g.member(lp, lh.Addr, 3, newFakeService())

	id, err := m2.Msgget(51, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	driveQAttach(t, m1, id)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Errors are expected once the owner dies; the assertion is
			// that sends return (fall back) rather than wedge or panic.
			_ = m1.Msgsnd(id, 1, []byte{byte(i)}, 0)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	m2.Shutdown() // stop helper goroutines; the crash below skips persistence
	m2p.Proc().Exit(137)
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The exit revoked every segment the dead owner created.
	for _, ri := range g.k.RingSegments() {
		if ri.CreatorPID == m2p.Proc().ID && !ri.Revoked {
			t.Fatalf("segment %d survived its creator's death unrevoked", ri.ID)
		}
	}
	// The client noticed and dropped the attachment.
	waitFor(t, 2*time.Second, "client attachment drop after owner death", func() bool {
		_ = m1.Msgsnd(id, 1, []byte("probe"), 0)
		rc, _ := qAttached(m1, id)
		return rc == nil
	})
	if v := CheckInvariants([]*Helper{lh, m1}); len(v) != 0 {
		t.Fatalf("invariant violations after owner death: %v", v)
	}
}

// TestChaosRingSandboxSplitRevokesMidRecv splits the client into its own
// sandbox while it is parked in a ring receive. The monitor's detach path
// revokes every cross-sandbox segment; the revocation must wake the parked
// client through the doorbell, and the RPC fallback must fail too (the
// split also severs streams) — isolation, not a hang.
func TestChaosRingSandboxSplitRevokesMidRecv(t *testing.T) {
	SetMigrationEnabled(false)
	defer SetMigrationEnabled(true)
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, mhp := g.member(lp, lh.Addr, 2, newFakeService())

	id, err := lh.Msgget(52, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	driveRecvRingAttach(t, lh, mh, id)

	res := make(chan error, 1)
	go func() {
		_, _, err := mh.Msgrcv(id, 0, 0)
		res <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the receive park on the doorbell

	if _, err := g.m.Detach(mhp.Proc(), []string{"/"}); err != nil {
		t.Fatalf("sandbox split: %v", err)
	}

	select {
	case err := <-res:
		if err == nil {
			t.Fatal("receive across a sandbox split returned a message")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked ring receive hung across the sandbox split")
	}
	// No segment may bridge the split: everything pairing the two
	// now-separated picoprocesses is revoked.
	for _, ri := range g.k.RingSegments() {
		if ri.Revoked {
			continue
		}
		cp, cl := g.k.Process(ri.CreatorPID), g.k.Process(ri.ClientPID)
		if cp == nil || cl == nil || cp.SandboxID != cl.SandboxID {
			t.Fatalf("segment %d still live across the sandbox split", ri.ID)
		}
	}
	// Post-split the two helpers are separate coordination domains, so the
	// invariant sweep runs per-domain (a joint check would — correctly —
	// flag their now-overlapping namespace ranges as isolation working).
	if v := CheckInvariants([]*Helper{lh}); len(v) != 0 {
		t.Fatalf("invariant violations after split: %v", v)
	}
}

// TestChaosRingMigrationWhileAttached runs the migration heuristic against
// a live attachment: the client's receive traffic pulls ownership toward
// it mid-stream. The migrating owner must collapse the rings (folding
// pending ring messages into the blob) before the snapshot, so the client
// — whose cached attachment dies with the chown — sees every message
// exactly once, in order, across the ownership move.
func TestChaosRingMigrationWhileAttached(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())

	id, err := m2.Msgget(53, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	driveQAttach(t, m1, id) // sends 0..7 over RPC

	// More sends via the ring, some of which will still be in flight (in
	// the ring, undelivered) when migration fires below.
	const total = ringAttachThreshold + 8
	for i := ringAttachThreshold; i < total; i++ {
		if err := m1.Msgsnd(id, 1, []byte{byte(i)}, 0); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	// Receiving from m1 crosses migrateThreshold and pulls the queue to
	// m1; the collapse on m2 must not lose or reorder ring contents.
	for i := 0; i < total; i++ {
		_, data, err := m1.Msgrcv(id, 0, 0)
		if err != nil {
			t.Fatalf("recv %d across migration: %v", i, err)
		}
		if len(data) != 1 || data[0] != byte(i) {
			t.Fatalf("recv %d delivered payload %v: migration lost or reordered ring messages", i, data)
		}
	}
	waitFor(t, 2*time.Second, "queue migration to the consumer", func() bool {
		m1.mu.Lock()
		_, owned := m1.queues[id]
		m1.mu.Unlock()
		return owned
	})
	// The old attachment (owner moved) is unusable and gets dropped on the
	// next touch; post-migration traffic flows owner-locally.
	if err := m1.Msgsnd(id, 1, []byte("post"), 0); err != nil {
		t.Fatalf("post-migration send: %v", err)
	}
	if _, data, err := m1.Msgrcv(id, 0, 0); err != nil || string(data) != "post" {
		t.Fatalf("post-migration recv = (%q, %v)", data, err)
	}
	if v := CheckInvariants([]*Helper{lh, m1, m2}); len(v) != 0 {
		t.Fatalf("invariant violations after migration: %v", v)
	}
}

// TestRingSetOfTwoStaysOnRPC pins the route rule the RPC-plane semop
// benchmark relies on: a set of two semaphores is never granted a ring, so
// no volume of traffic creates an attachment and every op is an RPC, and
// after the owner's first refusal the client stops asking.
func TestRingSetOfTwoStaysOnRPC(t *testing.T) {
	SetMigrationEnabled(false)
	defer SetMigrationEnabled(true)
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())

	id, err := lh.Semget(36, 2, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ringAttachThreshold*3; i++ {
		if err := mh.Semop(id, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if semAttached(mh, id) != nil {
		t.Fatal("a set of two semaphores was granted a ring")
	}
	mh.ringState.mu.Lock()
	n := mh.ringState.ops[sysvRef{NSSysVSem, id}]
	mh.ringState.mu.Unlock()
	if n != ringNever {
		t.Fatalf("op count after the owner's refusal = %d, want ringNever: the client keeps asking", n)
	}
	if mh.ringHits.Load() != 0 {
		t.Fatal("ring hits recorded for a set without a ring")
	}
	for i := 0; i < ringAttachThreshold*3; i++ {
		if err := mh.Semop(id, []api.SemBuf{{Num: 0, Op: -1, Flg: int16(api.IPCNoWait)}}); err != nil {
			t.Fatalf("take %d: %v", i, err)
		}
	}
	if err := mh.Semop(id, []api.SemBuf{{Num: 0, Op: -1, Flg: int16(api.IPCNoWait)}}); err != api.EAGAIN {
		t.Fatalf("take past the posts: %v, want EAGAIN", err)
	}
}
