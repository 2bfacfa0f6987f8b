package ipc

import (
	"time"

	"graphene/internal/api"
)

// Epoch fencing and partition reconciliation. A leader cut off by a
// partition (rather than killed) keeps believing it leads while the other
// side elects a replacement under a higher epoch. Three mechanisms keep
// the namespace single-writer:
//
//  1. Every leader-bound mutation carries the sender's accepted epoch
//     (Frame.Epoch, stamped in callShard). A leader that receives a
//     higher epoch than its own learns of its demotion from the request
//     itself: it steps down and the request bounces with EPERM, exactly
//     like any other stale-address hit, so the caller re-resolves.
//  2. Every leader heartbeats its claim (a periodic MsgNewLeader
//     re-assert). After a heal this is the convergence trigger: the
//     deposed leader hears the newer epoch and steps down even if no
//     fenced request ever reaches it; symmetric double elections at equal
//     epochs tie-break deterministically by address.
//  3. A stepped-down leader reconciles: it reports its state to the new
//     leader like any member, then re-registers each surviving locally
//     owned keyed object. The registration response carries the
//     authoritative ID for the key — a mismatch means the key was
//     recreated on the other side of the partition, and the loser copy is
//     tombstoned locally so parked waiters wake with EIDRM instead of
//     blocking on an object the rest of the sandbox no longer sees.
//
// In a sharded plane each mechanism runs per shard group: a shard's
// heartbeat, step-down, and reconcile never touch the other shards.

// heartbeatInterval is the leader's re-assert period. Two election
// windows: frequent enough that a healed partition converges well inside
// the failover budget, rare enough to be noise next to RPC traffic.
const heartbeatInterval = 2 * electionWindow

// startHeartbeatLocked launches one shard's leader heartbeat goroutine.
// Caller holds h.mu and has just installed (or constructed) g.leader.
func (h *Helper) startHeartbeatLocked(g *shardGroup) {
	if g.hbStop != nil || h.shutdown {
		return
	}
	stop := make(chan struct{})
	g.hbStop = stop
	go h.heartbeatLoop(g, stop)
}

// stopHeartbeatLocked stops one shard's heartbeat (step-down or
// shutdown). Caller holds h.mu.
func (h *Helper) stopHeartbeatLocked(g *shardGroup) {
	if g.hbStop != nil {
		close(g.hbStop)
		g.hbStop = nil
	}
}

func (h *Helper) heartbeatLoop(g *shardGroup, stop chan struct{}) {
	t := time.NewTicker(heartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		h.mu.Lock()
		leading := g.leader != nil && !h.shutdown
		epoch := g.leaderEpoch
		h.mu.Unlock()
		if !leading {
			return
		}
		f := Frame{Type: MsgNewLeader, A: epoch, Shard: int32(g.shard), From: h.Addr, S: h.Addr}
		if h.pal.BroadcastSend(EncodeFrame(&f)) != nil {
			return // the picoprocess died under us
		}
	}
}

// stepDownShard demotes this (deposed) shard leader after evidence of a
// newer claim: a fenced request or an announcement carrying epoch,
// optionally naming the new leader's address (empty when only the epoch
// is known — the reconcile path discovers the address). The old
// leaderState is simply dropped; the authoritative copy of everything it
// tracked lives with the new leader, reconstructed from the surviving
// members' reports plus our own below.
func (h *Helper) stepDownShard(g *shardGroup, epoch int64, newAddr string) {
	h.mu.Lock()
	if g.leader == nil || h.shutdown {
		h.mu.Unlock()
		return
	}
	// Remember our (authoritative until now) allocation cursors before the
	// leaderState is dropped, so the recover-state report below advances
	// the new leader past every grant we ever made — including grants the
	// surviving members never heard a MsgNSHwm broadcast for.
	for _, kind := range []int{NSPid, NSSysVMsg, NSSysVSem} {
		k := idbKey{kind: kind, shard: g.shard}
		if next := g.leader.cursor(kind); next > h.nsHwm[k] {
			mapSet(&h.nsHwm, k, next)
		}
	}
	g.leader = nil
	h.stopHeartbeatLocked(g)
	h.clearLeaderLocked(g)
	// Drop the unexhausted local ID batches this shard granted: they came
	// from the leaderState being discarded, and the new leader — which
	// never saw those grants — may hand the same ID space to someone else.
	// IDs already minted from them stay safe (the recover-state report
	// below reserves every local PID and live object individually); the
	// unused remainder is abandoned and the next allocation refills from
	// the new leader's authoritative cursor. Batches granted by *other*
	// shards are untouched — their grantors still stand behind them.
	if h.pidBatch.shard == g.shard {
		h.pidBatch = idBatch{shard: h.pidBatch.shard}
	}
	for k, b := range h.idBatches {
		if k.shard == g.shard {
			*b = idBatch{shard: k.shard}
		}
	}
	if newAddr != "" && newAddr != h.Addr {
		h.setLeaderLocked(g, newAddr, epoch)
	} else if epoch > g.leaderEpoch {
		g.leaderEpoch = epoch
	}
	h.mu.Unlock()
	statStepDowns.Add(1)
	h.bgGo(func() { h.reconcileAfterDemotion(g) })
}

// reconcileAfterDemotion runs after a step-down: report our state to the
// shard's new leader, then settle each locally owned keyed object the
// shard places against its (authoritative) key table.
func (h *Helper) reconcileAfterDemotion(g *shardGroup) {
	addr, err := h.discoverShard(g)
	if err != nil || addr == h.Addr {
		return
	}
	h.memberReconcile(g, addr)
}

// memberReconcile is the full member-side settlement against one shard's
// (new) leader: ship recover state (PID mappings, batch high-water marks,
// owned objects, held leases), then re-register each locally owned keyed
// object the shard places, so a copy that lost a during-partition
// conflict is tombstoned instead of lingering as a second live ID. Every
// member runs this — not just a deposed leader — because any member's
// report can lose first-writer-wins merges it never hears about
// otherwise. Single-flight per shard group; a report that failed outright
// is retried off the leader's next heartbeat (see
// handleNewLeaderBroadcast), so a partition that outlives the recover
// deadline still converges after the heal.
func (h *Helper) memberReconcile(g *shardGroup, addr string) {
	h.mu.Lock()
	if g.reconciling {
		h.mu.Unlock()
		return
	}
	g.reconciling = true
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		g.reconciling = false
		h.mu.Unlock()
	}()
	// Spread the post-announcement herd: after a leader change every
	// member reports at once, and on a large sandbox the pile-up at the
	// new leader times out the very reports it is serving. The stagger is
	// a pure function of the guest PID, so chaos replays stay
	// reproducible; on small sandboxes (low PIDs) it is negligible. It
	// runs inside the single-flight section so duplicate triggers
	// collapse before, not after, the wait.
	if d := time.Duration(h.GuestPID%128) * 2 * time.Millisecond; d > 0 {
		// Interruptible: the stagger can reach ~254ms and Shutdown must not
		// block a process exit behind it. The delay value itself stays the
		// deterministic PID-keyed function above, so chaos replays see the
		// same report ordering.
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-h.shutdownCh:
			t.Stop()
			return
		}
		h.mu.Lock()
		stale := g.leaderAddr != addr || h.shutdown
		h.mu.Unlock()
		if stale {
			return
		}
	}
	if !h.sendRecoverState(g, addr) {
		return
	}
	h.reconcileKeyedObjects(g.shard)
}

// reconcileKeyedObjects settles each locally owned keyed object placed on
// the given shard against that shard leader's authoritative key table.
func (h *Helper) reconcileKeyedObjects(shard int) {
	type keyedObj struct {
		kind    int
		id, key int64
	}
	var objs []keyedObj
	h.mu.Lock()
	for id, q := range h.queues {
		q.mu.Lock()
		if !q.removed && q.movedTo == "" && q.key != api.IPCPrivate &&
			h.keyShardOf(NSSysVMsg, q.key) == shard {
			objs = append(objs, keyedObj{NSSysVMsg, id, q.key})
		}
		q.mu.Unlock()
	}
	for id, s := range h.sems {
		s.mu.Lock()
		if !s.removed && s.movedTo == "" && s.key != api.IPCPrivate &&
			h.keyShardOf(NSSysVSem, s.key) == shard {
			objs = append(objs, keyedObj{NSSysVSem, id, s.key})
		}
		s.mu.Unlock()
	}
	h.mu.Unlock()

	for _, o := range objs {
		resp, err := h.callLeader(Frame{Type: MsgKeyRegister, A: int64(o.kind), B: o.key, C: o.id, S: h.Addr})
		if err != nil {
			continue // best-effort; the object stays local and reachable by ID
		}
		if resp.A == o.id {
			statReconciled.Add(1)
			continue
		}
		// The key resolves to a different live ID (recreated during the
		// partition) or our ID was tombstoned cluster-wide (resp.A == 0):
		// our copy lost. Tombstone it locally — parked waiters wake with
		// EIDRM — and at the leader, so stale owner caches die too.
		statReconcileTombs.Add(1)
		if o.kind == NSSysVMsg {
			h.removeLocalQueue(o.id)
		} else {
			h.removeLocalSem(o.id)
		}
	}
}
