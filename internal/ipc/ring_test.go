package ipc

import (
	"sync"
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
)

// Kernel-bypass ring suite: the grant handshake, the send fast path, the
// route rule (only sends ask for a ring), every fallback edge the design
// promises (full ring, removal, migration), and the chaos scenarios —
// owner death mid-send, sandbox split mid-send — that must leave no live
// ring behind (invariant 5). Tests that pin a stable attachment disable
// migration, exactly like the migration-ablation tests: a remote consumer
// would otherwise pull the queue to itself.

// qAttached reports the client's live attachment for queue id (nil if
// none).
func qAttached(h *Helper, id int64) *ringClient {
	h.ringState.mu.Lock()
	defer h.ringState.mu.Unlock()
	return h.ringState.clients[id]
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
	waitFor(t, 2*time.Second, "ring attach", func() bool { return qAttached(client, id) != nil })
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
	rc := qAttached(mh, qid)

	// Drain the warm-up backlog so removal is clean, then remove: the
	// owner collapses the ring, which the client observes as revocation
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
		return qAttached(mh, qid) == nil
	})
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
		return qAttached(m1, id) == nil
	})
	if v := CheckInvariants([]*Helper{lh, m1}); len(v) != 0 {
		t.Fatalf("invariant violations after owner death: %v", v)
	}
}

// TestChaosRingSandboxSplitRevokesMidSend splits an attached sender into
// its own sandbox while it streams sends through the ring. The monitor's
// detach path revokes every cross-sandbox segment; the sender's next send
// must fail (the split also severs the streams its RPC fallback would
// use) — isolation, not a hang — and the owner must hold exactly the
// messages acknowledged before the split.
func TestChaosRingSandboxSplitRevokesMidSend(t *testing.T) {
	SetMigrationEnabled(false)
	defer SetMigrationEnabled(true)
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, mhp := g.member(lp, lh.Addr, 2, newFakeService())

	id, err := lh.Msgget(52, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	driveQAttach(t, mh, id)
	rc := qAttached(mh, id)
	const before = ringAttachThreshold + 8
	for i := ringAttachThreshold; i < before; i++ {
		if err := mh.Msgsnd(id, 1, []byte{byte(i)}, 0); err != nil {
			t.Fatalf("ring send %d: %v", i, err)
		}
	}

	if _, err := g.m.Detach(mhp.Proc(), []string{"/"}); err != nil {
		t.Fatalf("sandbox split: %v", err)
	}
	if !rc.send.Revoked() {
		t.Fatal("the split left the sender's ring unrevoked")
	}
	res := make(chan error, 1)
	go func() { res <- mh.Msgsnd(id, 1, []byte("after"), 0) }()
	select {
	case err := <-res:
		if err == nil {
			t.Fatal("send across a sandbox split succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send hung across the sandbox split")
	}

	// The owner holds exactly what was sent before the split, in order.
	for i := 0; i < before; i++ {
		_, data, err := lh.Msgrcv(id, 0, api.IPCNoWait)
		if err != nil || len(data) != 1 || data[0] != byte(i) {
			t.Fatalf("owner recv %d = (%v, %v), want the message sent before the split", i, data, err)
		}
	}
	if _, data, err := lh.Msgrcv(id, 0, api.IPCNoWait); api.ToErrno(err) != api.ENOMSG {
		t.Fatalf("owner holds %q past the pre-split messages (err %v)", data, err)
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
	// invariant sweep runs per domain (a joint check would — correctly —
	// flag their now-overlapping namespace ranges as isolation working).
	for _, h := range []*Helper{lh, mh} {
		if v := CheckInvariants([]*Helper{h}); len(v) != 0 {
			t.Fatalf("invariant violations after split in %s's domain: %v", h.Addr, v)
		}
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

// TestRingRouteRuleSendsOnly pins the route rule: only a send
// acknowledged by RPC counts toward a ring attach. Remote FIFO receives
// and one-semaphore semops, twice the attach threshold of each with
// migration off, make no MsgRingAttach and create no segment; the same
// count of remote sends then does attach, which shows the owner-side
// count sees an attach when there is one.
func TestRingRouteRuleSendsOnly(t *testing.T) {
	SetMigrationEnabled(false)
	defer SetMigrationEnabled(true)
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())
	plan := host.NewFaultPlan() // no rules: it only counts the frames served
	lp.Proc().SetFaultPlan(plan)
	const attach = "rpc.MsgRingAttach.enter"

	qid, err := lh.Msgget(36, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	sid, err := lh.Semget(37, 1, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2 * ringAttachThreshold
	for i := 0; i < n; i++ {
		if err := lh.Msgsnd(qid, 1, []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	rings := g.k.Census().Rings
	for i := 0; i < n; i++ {
		if _, data, err := mh.Msgrcv(qid, 0, 0); err != nil || len(data) != 1 || data[0] != byte(i) {
			t.Fatalf("remote recv %d = (%v, %v)", i, data, err)
		}
		if err := mh.Semop(sid, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
			t.Fatalf("remote post %d: %v", i, err)
		}
		if err := mh.Semop(sid, []api.SemBuf{{Num: 0, Op: -1}}); err != nil {
			t.Fatalf("remote acquire %d: %v", i, err)
		}
	}
	if got := plan.Hits(attach); got != 0 {
		t.Fatalf("%d MsgRingAttach after remote receives and semops, want 0", got)
	}
	if got := g.k.Census().Rings; got != rings {
		t.Fatalf("Census().Rings = %d after remote receives and semops, want %d", got, rings)
	}
	if mh.ringHits.Load()+mh.ringMisses.Load() != 0 {
		t.Fatal("a receive or semop touched the ring datapath")
	}

	driveQAttach(t, mh, qid)
	if got := plan.Hits(attach); got != 1 {
		t.Fatalf("%d MsgRingAttach after %d remote sends, want 1", got, ringAttachThreshold)
	}
}
