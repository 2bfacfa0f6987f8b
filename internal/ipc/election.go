package ipc

import (
	"encoding/binary"
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
//  2. After a settling window, the lowest PID claims the round with a
//     MsgNewLeader. The broadcast stream is reliable and delivers in one
//     order, the claimant's own copy included, so every helper takes the
//     same first claim of the epoch as the winner, and the claimant
//     promotes itself (a fresh leaderState) only if that claim is its own.
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
	// incumbent is the last leader this helper accepted before the round
	// began ("" if none): a winner claims only once it has found it dead.
	incumbent string
	done      chan struct{}
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

// installRecoverState folds one member's report into the new leader. The
// fold is a join: its result does not depend on the order reports arrive
// in, on a report arriving twice, or on how the set is split between
// arrivals. Cursors take the maximum, a PID is reserved once at the
// helper it lives at (every report of it names that helper), an object's
// owner is the greatest claim under ownerClaimWins, and a key maps to the
// highest ID claiming it.
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
			if cur, ok := m[o.ID]; !ok || ownerClaimWins(o.Epoch, fromAddr, cur) {
				l.setOwnerLocked(o.Kind, o.ID, ownerEntry{addr: fromAddr, epoch: o.Epoch})
			}
			if o.Key != api.IPCPrivate {
				if cur, taken := l.keys[o.Kind][o.Key]; !taken || o.ID > cur.id {
					l.setKeyLocked(o.Kind, o.Key, o.ID)
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

// ownerClaimWins orders two claims on one object: the higher migration
// epoch wins, and at equal epochs the lower owner address does, so the
// recover fold keeps the same owner whatever order the claims came in.
func ownerClaimWins(epoch int64, addr string, cur ownerEntry) bool {
	if epoch != cur.epoch {
		return epoch > cur.epoch
	}
	return addr < cur.addr
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
	incumbent := h.lastLeader
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
	e.incumbent = incumbent
	e.done = make(chan struct{})
	e.announced = make(chan struct{})
	announced := e.announced
	e.mu.Unlock()
	// The old leader is thought dead; forget it so stale reads cannot win
	// races.
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

// settleElection resolves an election round after its settling window.
// A helper that holds the lowest PID (and heard no winner first) claims
// the round's epoch with a MsgNewLeader that its own subscription reads
// back: the claim wins if it is the first of its epoch in the broadcast
// order, which every helper sees alike, and handleNewLeaderBroadcast
// promotes the claimant only then. So two candidates that both thought
// themselves lowest cannot both lead. A winner whose incumbent is still
// alive (a member misread a torn stream as a death) claims nothing: the
// incumbent re-asserts itself on the round's election frames, and a
// leader in the round keeps leading under its epoch.
func (h *Helper) settleElection(e *electionState) (string, error) {
	e.mu.Lock()
	won := e.lowest == h.GuestPID
	epoch := e.epoch
	incumbent := e.incumbent
	select {
	case <-e.announced:
		// Someone already won this (or a newer) round.
		won = false
	default:
	}
	e.mu.Unlock()

	switch {
	case h.isLeader():
		h.promote(epoch)
		nf := Frame{Type: MsgNewLeader, A: epoch, From: h.Addr, S: h.Addr}
		_ = h.pal.BroadcastSend(EncodeFrame(&nf))
	case !won:
	case incumbent != "" && incumbent != h.Addr && h.peerAlive(incumbent):
	default:
		h.mu.Lock()
		deaf := h.deaf
		if !deaf && h.claiming == nil {
			h.claiming = make(chan struct{})
		}
		h.mu.Unlock()
		nf := Frame{Type: MsgNewLeader, A: epoch, From: h.Addr, S: h.Addr}
		if deaf {
			// No subscription to read a claim back on: a sandbox split
			// left this helper alone in a new sandbox, where nobody else
			// can claim.
			h.promote(epoch)
			_ = h.pal.BroadcastSend(EncodeFrame(&nf))
		} else if h.pal.BroadcastSendAll(EncodeFrame(&nf)) != nil {
			h.endClaim()
		}
	}
	// Wait for the winner: our own claim read back, or another's.
	addr, err := h.awaitNewLeader(10 * electionWindow)
	e.finish()
	return addr, err
}

// endClaim marks this helper's claim resolved (read back, won or lost, or
// never to be read back), releasing the leader requests ledState holds.
func (h *Helper) endClaim() {
	h.mu.Lock()
	if h.claiming != nil {
		close(h.claiming)
		h.claiming = nil
	}
	h.mu.Unlock()
}

// peerAlive reports whether the helper at addr still accepts connections.
// Its picoprocess's exit closes its listener, so a refused dial is death.
func (h *Helper) peerAlive(addr string) bool {
	_, err := h.dial(addr)
	return err == nil
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
	incumbent := h.lastLeader
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
		e.incumbent = incumbent
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

// handleNewLeaderBroadcast records the winner: the first claim of its
// epoch in the broadcast order, which makes us leader when it is our own.
// A stale announcement (no newer than the epoch of a leader we already
// accepted) is dropped, so neither a slow earlier round nor a rival claim
// that came second can clobber the leader; setLeaderLocked sends the
// winner our recover-state report. A leader never yields to an
// announcement: it leads until its picoprocess exits.
func (h *Helper) handleNewLeaderBroadcast(f Frame) {
	if f.S == "" {
		return
	}
	if f.S == h.Addr {
		defer h.endClaim()
	}
	h.mu.Lock()
	if h.shutdown || h.leader != nil || (f.A == h.leaderEpoch && f.S == h.leaderAddr) {
		// Shutting down, leading, or a duplicate of a leader we already
		// accepted (and reported to).
		h.mu.Unlock()
		return
	}
	if f.A <= h.leaderEpoch {
		// Older than the leader we accepted, or a rival that came second
		// in its epoch (even if we have since lost the winner's address:
		// discovery finds it again).
		h.mu.Unlock()
		statStaleAnnounces.Add(1)
		return
	}
	e := h.election
	if f.S == h.Addr {
		// Our own claim, read back first of its epoch: we won.
		h.mu.Unlock()
		h.promote(f.A)
	} else {
		h.setLeaderLocked(f.S, f.A)
		h.mu.Unlock()
	}
	if e != nil {
		e.noteAnnouncement(f.A)
	}
}

// sendRecoverState reports this member's slice of distributed state to a
// newly accepted leader, once: a live leader answers it, and a leader that
// died before answering is replaced by a new round whose epoch brings its
// own report. A report to a leader that has since been replaced is sent
// all the same: the fold is a join, so a live leader takes it as harmless
// news, and a dead one fails the call.
func (h *Helper) sendRecoverState(to string) {
	h.mu.Lock()
	down := h.shutdown
	h.mu.Unlock()
	if down {
		return
	}
	if c, err := h.dial(to); err == nil {
		_, _ = c.Call(Frame{Type: MsgRecoverState, From: h.Addr, Blob: encodeRecover(h.collectRecoverState())})
	}
}
