package ipc

import (
	"encoding/binary"
	"log"
	"sync"
	"time"

	"graphene/internal/api"
)

// Leader recovery (§4.2, "Leader Recovery"): the paper's prototype leaves
// this unimplemented but sketches the design — detect leader failure by
// RPC channel disconnection, run "a simple consensus algorithm over the
// broadcast channel ... such as selecting the picoprocess with the lowest
// process ID", and reconstruct leader state "by querying each picoprocess
// in the sandbox". This file implements that sketch:
//
//  1. A helper whose leader RPC fails broadcasts MsgElection with its own
//     guest PID; every live helper answers with its PID.
//  2. After a settling window, the lowest PID promotes itself, seeds a
//     fresh leaderState, and broadcasts MsgNewLeader.
//  3. Every member (including the new leader) re-registers its slice of
//     the distributed state: locally known PID mappings, the high-water
//     marks of its ID batches, owned System V objects, and its process
//     group, via MsgRecoverState.
//
// All picoprocesses in a sandbox trust each other (§3), so the new leader
// accepts members' reports verbatim, exactly as the paper assumes.

// electionWindow is how long candidates collect peers' PIDs.
const electionWindow = 50 * time.Millisecond

// ElectionWindow exports the settling window so failover consumers (the
// hot-standby fleet master, the bench harness) can state their budgets in
// terms of it instead of hard-coding a copy that could drift.
const ElectionWindow = electionWindow

// electionState tracks one in-flight election round at a helper.
type electionState struct {
	mu      sync.Mutex
	active  bool
	epoch   int64 // the round's election epoch (see Helper.leaderEpoch)
	lowest  int64
	lowAddr string
	done    chan struct{}
	// announced closes when a winner announcement for this round (same or
	// newer epoch) is accepted, letting the settling window resolve early
	// instead of hard-sleeping (and letting losers stop waiting the moment
	// the winner speaks).
	announced chan struct{}
}

// noteAnnouncement resolves an active round early: a MsgNewLeader at or
// above the round's epoch was accepted.
func (e *electionState) noteAnnouncement(epoch int64) {
	e.mu.Lock()
	if e.active && epoch >= e.epoch {
		select {
		case <-e.announced:
		default:
			close(e.announced)
		}
	}
	e.mu.Unlock()
}

// recoverPayload is the per-member state report to the new leader.
type recoverPayload struct {
	pids    []pgMember // locally known guest PID -> helper address
	batchHi []int64    // [NSPid, NSSysVMsg, NSSysVSem] high-water marks
	objects []recoverObject
	pgid    int64 // the member's own process group (0 = none)
	pid     int64
}

type recoverObject struct {
	Kind  int
	ID    int64
	Key   int64
	Epoch int64
}

func encodeRecover(r recoverPayload) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(r.pid))
	out = binary.LittleEndian.AppendUint64(out, uint64(r.pgid))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(r.batchHi)))
	for _, v := range r.batchHi {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	out = append(out, encodeMembers(r.pids)...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(r.objects)))
	for _, o := range r.objects {
		out = binary.LittleEndian.AppendUint32(out, uint32(o.Kind))
		out = binary.LittleEndian.AppendUint64(out, uint64(o.ID))
		out = binary.LittleEndian.AppendUint64(out, uint64(o.Key))
		out = binary.LittleEndian.AppendUint64(out, uint64(o.Epoch))
	}
	return out
}

func decodeRecover(blob []byte) (recoverPayload, error) {
	var r recoverPayload
	if len(blob) < 20 {
		return r, api.EINVAL
	}
	r.pid = int64(binary.LittleEndian.Uint64(blob))
	r.pgid = int64(binary.LittleEndian.Uint64(blob[8:]))
	n := int(binary.LittleEndian.Uint32(blob[16:]))
	off := 20
	if off+8*n > len(blob) {
		return r, api.EINVAL
	}
	for i := 0; i < n; i++ {
		r.batchHi = append(r.batchHi, int64(binary.LittleEndian.Uint64(blob[off:])))
		off += 8
	}
	pids, err := decodeMembers(blob[off:])
	if err != nil {
		return r, api.EINVAL
	}
	r.pids = pids
	// Re-walk to find where the member list ended.
	off += 4
	for range pids {
		al := int(binary.LittleEndian.Uint32(blob[off+8:]))
		off += 12 + al
	}
	if off+4 > len(blob) {
		return r, api.EINVAL
	}
	m := int(binary.LittleEndian.Uint32(blob[off:]))
	off += 4
	if off+28*m > len(blob) {
		return r, api.EINVAL
	}
	for i := 0; i < m; i++ {
		r.objects = append(r.objects, recoverObject{
			Kind:  int(binary.LittleEndian.Uint32(blob[off:])),
			ID:    int64(binary.LittleEndian.Uint64(blob[off+4:])),
			Key:   int64(binary.LittleEndian.Uint64(blob[off+12:])),
			Epoch: int64(binary.LittleEndian.Uint64(blob[off+20:])),
		})
		off += 28
	}
	return r, nil
}

// collectRecoverState gathers this helper's slice of distributed state:
// its PID table, the high-water marks of its batches, its live owned
// objects, and its process group.
func (h *Helper) collectRecoverState() recoverPayload {
	h.mu.Lock()
	r := recoverPayload{pid: h.GuestPID, pgid: h.ownPgid}
	for pid, addr := range h.localPIDs {
		r.pids = append(r.pids, pgMember{PID: pid, Addr: addr})
	}
	// Report the larger of our own batch high-water mark and the last
	// cursor heard in a MsgNSHwm broadcast: the broadcast is how grants to
	// helpers that cannot report (the old leader's own batch above all)
	// still advance the new leader's cursor past every minted ID.
	r.batchHi = []int64{h.pidBatch.hi, 0, 0}
	for i, kind := range []int{NSSysVMsg, NSSysVSem} {
		if b := h.idBatches[kind]; b != nil {
			r.batchHi[i+1] = b.hi
		}
	}
	for i, kind := range []int{NSPid, NSSysVMsg, NSSysVSem} {
		if hwm := h.nsHwm[kind] - 1; hwm > r.batchHi[i] {
			r.batchHi[i] = hwm
		}
	}
	for _, o := range h.objectsLocked() {
		hd := o.header()
		hd.mu.Lock()
		if hd.liveLocked() {
			r.objects = append(r.objects, recoverObject{Kind: hd.kind, ID: hd.id, Key: hd.key, Epoch: hd.epoch})
		}
		hd.mu.Unlock()
	}
	h.mu.Unlock()
	return r
}

// installRecoverState merges one member's report into the new leader.
func (l *leaderState) installRecoverState(r recoverPayload, fromAddr string) {
	l.mu.Lock()
	// Advance namespace cursors past everything any member has seen, so
	// fresh allocations never collide with pre-failure IDs.
	kinds := []int{NSPid, NSSysVMsg, NSSysVSem}
	for i, kind := range kinds {
		if i < len(r.batchHi) && r.batchHi[i] >= l.next[kind] {
			l.next[kind] = r.batchHi[i] + 1
		}
	}
	// Every reported PID is reserved so it is never re-issued. The range
	// owner is the helper the PID actually lives at (a parent's table maps
	// its children's PIDs to *their* helpers, not to the parent), and a
	// PID reported by several members — the allocator and the process
	// itself — is recorded once, not as overlapping one-ID ranges.
	for _, m := range r.pids {
		owner := m.Addr
		if owner == "" {
			owner = fromAddr
		}
		if !l.coveredLocked(NSPid, m.PID) {
			l.addRangeLocked(NSPid, idRange{lo: m.PID, hi: m.PID, owner: owner})
		}
		if m.PID >= l.next[NSPid] {
			l.next[NSPid] = m.PID + 1
		}
	}
	for _, o := range r.objects {
		if m := l.owners[o.Kind]; m != nil {
			// When two members both report a live copy (a migration was
			// in flight when the old leader died), the higher migration
			// epoch is the more recent owner.
			if cur, ok := m[o.ID]; !ok || o.Epoch >= cur.epoch {
				l.setOwnerLocked(o.Kind, o.ID, ownerEntry{addr: fromAddr, epoch: o.Epoch})
				if o.Key != api.IPCPrivate {
					// First writer wins on the *key* mapping: after a
					// partition, a deposed leader's report can collide with
					// a key recreated (under a different ID) on this side.
					// Overwriting would flip the key to the loser's ID under
					// survivors that already resolved it — split brain. The
					// late reporter discovers the conflict via reconcile
					// (MsgKeyRegister returns the authoritative ID) and
					// tombstones its copy.
					if _, exists := l.keys[o.Kind][o.Key]; !exists {
						l.setKeyLocked(o.Kind, o.Key, o.ID)
					}
				}
			}
		}
		if o.ID >= l.next[o.Kind] {
			l.next[o.Kind] = o.ID + 1
		}
	}
	l.mu.Unlock()
	if r.pgid != 0 {
		l.pgs.join(r.pgid, r.pid, fromAddr)
	}
}

// ElectLeader runs the recovery protocol after the current leader became
// unreachable. It returns the new leader's address (possibly this
// helper's own). Concurrent elections converge: every participant
// computes the same minimum over the broadcast exchange. Each round
// carries an election epoch one above the last accepted leader's, so a
// slow announcement from an earlier round can never clobber a newer
// leader (see handleNewLeaderBroadcast).
func (h *Helper) ElectLeader() (string, error) {
	h.mu.Lock()
	if h.election == nil {
		h.election = &electionState{}
	}
	e := h.election
	roundEpoch := h.leaderEpoch + 1
	h.mu.Unlock()

	e.mu.Lock()
	if e.active {
		done := e.done
		e.mu.Unlock()
		<-done
		return h.awaitNewLeader(10 * electionWindow)
	}
	e.active = true
	if roundEpoch > e.epoch {
		e.epoch = roundEpoch
	}
	roundEpoch = e.epoch
	e.lowest = h.GuestPID
	e.lowAddr = h.Addr
	e.done = make(chan struct{})
	e.announced = make(chan struct{})
	announced := e.announced
	e.mu.Unlock()
	// The old leader is dead; forget it so stale reads cannot win races.
	h.mu.Lock()
	if h.leader == nil {
		h.leaderAddr = ""
	}
	h.mu.Unlock()

	// Announce our candidacy; peers answer with their own (handled in
	// handleElectionBroadcast, which also folds their PIDs into e).
	f := Frame{Type: MsgElection, A: roundEpoch, B: h.GuestPID, From: h.Addr, S: h.Addr}
	if err := h.pal.BroadcastSend(EncodeFrame(&f)); err != nil {
		e.finish()
		return "", err
	}
	h.electionWait(announced)
	return h.settleElection(e)
}

// ElectEpoch runs one epoch-fenced election round and returns the epoch
// the plane settled on. This is the standby-master takeover primitive: a
// standby that detects its primary's death elects through the same
// machinery as any dead-leader recovery, and uses the returned epoch to
// fence its adoption of shared state (the scoreboard) — a stale primary's
// writes carry an older epoch and lose.
func (h *Helper) ElectEpoch() (int64, error) {
	if _, err := h.ElectLeader(); err != nil {
		return 0, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.leaderEpoch, nil
}

// electionWait holds the settling window open, resolving early when a
// winner announcement arrives — the loser side of an election no longer
// hard-sleeps the full window.
func (h *Helper) electionWait(announced chan struct{}) {
	timer := time.NewTimer(electionWindow)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-announced:
	}
}

// settleElection resolves an election round after its settling window:
// promote and announce if we hold the lowest PID (and nobody announced
// first), otherwise wait for the winner's announcement.
func (h *Helper) settleElection(e *electionState) (string, error) {
	e.mu.Lock()
	won := e.lowest == h.GuestPID
	epoch := e.epoch
	select {
	case <-e.announced:
		// Someone already won this (or a newer) round.
		won = false
	default:
	}
	e.mu.Unlock()

	if won {
		h.promote(epoch)
		// Peers send their state on MsgNewLeader.
		nf := Frame{Type: MsgNewLeader, A: epoch, From: h.Addr, S: h.Addr}
		_ = h.pal.BroadcastSend(EncodeFrame(&nf))
		h.mu.Lock()
		deposed := h.leader == nil
		h.mu.Unlock()
		if deposed {
			// Deposed between promotion and here: a higher-epoch winner's
			// announcement (or a fenced request) already stepped us down
			// and nilled the leaderState. The replacement collects our
			// state through the reconcile report like any member's.
			e.finish()
			return h.awaitNewLeader(10 * electionWindow)
		}
		e.finish()
		return h.Addr, nil
	}
	// Wait for the winner's announcement (handled by broadcastLoop).
	addr, err := h.awaitNewLeader(10 * electionWindow)
	e.finish()
	return addr, err
}

// awaitNewLeader blocks until the leader address is known (set by our own
// promotion or a MsgNewLeader broadcast, both of which signal the
// leader-change channel) or the deadline passes.
func (h *Helper) awaitNewLeader(timeout time.Duration) (string, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		h.mu.Lock()
		addr := h.leaderAddr
		ch := h.leaderChange
		h.mu.Unlock()
		if addr != "" {
			return addr, nil
		}
		select {
		case <-ch:
		case <-timer.C:
			return "", api.ETIMEDOUT
		}
	}
}

func (e *electionState) finish() {
	e.mu.Lock()
	if e.active {
		e.active = false
		close(e.done)
	}
	e.mu.Unlock()
}

// promote turns this helper into the leader with a fresh, reconstructable
// state, under the given election epoch. The fresh state takes this
// helper's own slice before it is published: a request served before that
// would draw IDs from a cursor that has not seen them.
func (h *Helper) promote(epoch int64) {
	self := h.collectRecoverState()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.leader != nil {
		if epoch > h.leaderEpoch {
			h.leaderEpoch = epoch
		}
		return
	}
	l := newLeaderState()
	l.installRecoverState(self, h.Addr)
	h.leader = l
	// A fresh leaderState starts a fresh dedup generation: replays minted
	// against a previous incarnation's tables must re-execute here.
	h.leaderStateEpoch = epoch
	h.setLeaderLocked(h.Addr, epoch)
	h.startHeartbeatLocked()
}

// handleElectionBroadcast folds a peer's candidacy into any local round
// and answers with our own PID so the peer's round sees us.
func (h *Helper) handleElectionBroadcast(f Frame) {
	h.mu.Lock()
	if h.election == nil {
		h.election = &electionState{}
	}
	e := h.election
	shutdown := h.shutdown
	isLeader := h.leader != nil
	curEpoch := h.leaderEpoch
	haveLeader := h.leaderAddr != ""
	h.mu.Unlock()
	if shutdown {
		return
	}
	if isLeader {
		// We are alive and leading: the sender's failure detection was
		// wrong (a single torn stream, not a crash). Re-assert leadership,
		// claiming the sender's round epoch so the round resolves to us.
		h.mu.Lock()
		if f.A > h.leaderEpoch {
			h.leaderEpoch = f.A
		}
		epoch := h.leaderEpoch
		h.mu.Unlock()
		nf := Frame{Type: MsgNewLeader, A: epoch, From: h.Addr, S: h.Addr}
		_ = h.pal.BroadcastSend(EncodeFrame(&nf))
		return
	}
	if f.A <= curEpoch && haveLeader {
		// A stale round: the sender missed an announcement we already
		// accepted. The (live) leader corrects it; we stay quiet.
		return
	}
	e.mu.Lock()
	joinRound := !e.active
	if !e.active {
		// A peer started an election: join it with our own candidacy.
		e.active = true
		e.epoch = f.A
		if curEpoch+1 > e.epoch {
			e.epoch = curEpoch + 1
		}
		e.lowest = h.GuestPID
		e.lowAddr = h.Addr
		e.done = make(chan struct{})
		e.announced = make(chan struct{})
	} else if f.A > e.epoch {
		e.epoch = f.A
	}
	if f.B < e.lowest || (f.B == e.lowest && f.S < e.lowAddr) {
		e.lowest = f.B
		e.lowAddr = f.S
	}
	announced := e.announced
	roundEpoch := e.epoch
	e.mu.Unlock()
	if joinRound {
		h.mu.Lock()
		if h.leader == nil {
			h.leaderAddr = "" // the old leader is being replaced
		}
		h.mu.Unlock()
		// Announce ourselves so the initiator sees us, then resolve the
		// round on our side too.
		go func() {
			cf := Frame{Type: MsgElection, A: roundEpoch, B: h.GuestPID, From: h.Addr, S: h.Addr}
			_ = h.pal.BroadcastSend(EncodeFrame(&cf))
			h.electionWait(announced)
			_, _ = h.settleElection(e)
		}()
	}
}

// handleNewLeaderBroadcast records the winner — unless the announcement
// is stale (an earlier epoch than the leader we already accepted), in
// which case it is dropped so a slow earlier round cannot clobber a newer
// leader — and sends the winner our recover-state report.
//
// A helper that is itself a leader treats the announcement as fencing
// evidence: a strictly newer epoch means it was deposed across a
// partition (the announcement is typically the new leader's heartbeat
// arriving after heal) and it steps down; an equal epoch is a symmetric
// double election, tie-broken deterministically by address; an older
// epoch is answered with an immediate re-assert so the stale claimant
// and its members converge onto us.
func (h *Helper) handleNewLeaderBroadcast(f Frame) {
	if f.S == "" || f.S == h.Addr {
		return
	}
	h.mu.Lock()
	if h.shutdown {
		h.mu.Unlock()
		return
	}
	if h.leader != nil {
		myEpoch := h.leaderEpoch
		h.mu.Unlock()
		if f.A > myEpoch || (f.A == myEpoch && f.S < h.Addr) {
			h.stepDown(f.A, f.S)
			return
		}
		nf := Frame{Type: MsgNewLeader, A: myEpoch, From: h.Addr, S: h.Addr}
		_ = h.pal.BroadcastSend(EncodeFrame(&nf))
		return
	}
	if f.A == h.leaderEpoch && h.leaderAddr == f.S {
		// Idempotent duplicate: the leader's heartbeat, or a delayed copy
		// of the announcement we already accepted. Not a stale announcement
		// — but if our recover report to this leader never landed (it was
		// attempted mid-partition and hit the recover deadline), the
		// heartbeat is the retry trigger: without the report the leader has
		// no idea our objects exist, and we never hear which of them lost
		// a conflict.
		needReport := h.reportedTo != f.S && f.S != h.Addr && !h.shutdown
		h.mu.Unlock()
		if needReport {
			go h.memberReconcile(f.S)
		}
		return
	}
	if f.A < h.leaderEpoch ||
		(f.A == h.leaderEpoch && h.leaderAddr != "" && f.S >= h.leaderAddr) {
		// Older epoch, or an equal-epoch claim losing the address
		// tie-break against the leader we already accepted: a delayed
		// announcement surviving a heal must not clobber the newer leader.
		h.mu.Unlock()
		statStaleAnnounces.Add(1)
		return
	}
	h.setLeaderLocked(f.S, f.A)
	e := h.election
	h.mu.Unlock()
	if e != nil {
		e.noteAnnouncement(f.A)
	}
	go h.memberReconcile(f.S)
}

// recoverDeadline caps one member's whole recover-state exchange. Without
// it, the retry loop's schedule is open-ended when each attempt blocks —
// a new leader stuck behind a partition would absorb all 10 attempts at
// full RPC-timeout cost each, re-reporting long after yet another leader
// took over.
const recoverDeadline = 20 * electionWindow

// recoverAttemptTimeout bounds one report delivery. Deliberately looser
// than rpcCallTimeout: reports are background reconciliation, not
// failover detection, and after a leader change on a large sandbox the
// new leader serves a whole herd of them — a report abandoned at the
// tight deadline still gets executed, so impatient callers only add
// duplicate work to the very queue they are stuck in.
const recoverAttemptTimeout = 2 * rpcCallTimeout

// sendRecoverState reports this member's slice of distributed state to a
// newly announced leader, retrying with backoff: a member whose report is
// lost would be invisible to the new leader (its objects would silently
// vanish from the namespace). Each attempt carries the RPC
// deadline and the loop as a whole an absolute one, so a leader stuck
// behind a partition surfaces a terminal failure instead of retrying
// forever. Returns whether the report landed; a delivered report is
// remembered (reportedTo) so the heartbeat path knows this leader has our
// state and a failed one is retried off the next heartbeat.
func (h *Helper) sendRecoverState(to string) bool {
	var lastErr error
	deadline := time.Now().Add(recoverDeadline)
	for attempt := 0; attempt < 10; attempt++ {
		if attempt > 0 {
			statRecoverRetries.Add(1)
			// Quadratic: a linear 1ms backoff re-forms the herd almost
			// immediately when hundreds of members retry in lockstep.
			time.Sleep(time.Duration(attempt*attempt) * 5 * time.Millisecond)
		}
		if time.Now().After(deadline) {
			break
		}
		h.mu.Lock()
		down := h.shutdown
		stale := h.leaderAddr != to
		h.mu.Unlock()
		if down || stale {
			return false // shutting down, or yet another leader took over
		}
		c, err := h.dial(to)
		if err == nil {
			if _, err = c.CallTimeout(Frame{Type: MsgRecoverState, From: h.Addr, Blob: encodeRecover(h.collectRecoverState())}, recoverAttemptTimeout); err == nil {
				h.mu.Lock()
				h.reportedTo = to
				h.mu.Unlock()
				return true
			}
		}
		lastErr = err
	}
	statRecoverFailed.Add(1)
	log.Printf("ipc: %s: recover-state report to %s failed permanently: %v", h.Addr, to, lastErr)
	return false
}
