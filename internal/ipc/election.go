package ipc

import (
	"encoding/binary"

	"graphene/internal/api"
)

// Leader recovery (§4.2, "Leader Recovery"): the paper's prototype leaves
// this unimplemented but sketches the design — detect leader failure by
// RPC channel disconnection, run "a simple consensus algorithm over the
// broadcast channel", and reconstruct leader state "by querying each
// picoprocess in the sandbox". This file implements that sketch:
//
//  1. A helper whose leader RPC fails, and whose incumbent refuses a dial,
//     claims the next epoch with a MsgNewLeader. The broadcast stream is
//     reliable and delivers in one order, the claimant's own copy
//     included, so every helper takes the same first claim of the epoch as
//     the winner, and the claimant promotes itself (a fresh leaderState)
//     only if that claim is its own. The order is the consensus: where the
//     paper suggests the lowest process ID, the first claim wins, so
//     nobody waits for rival candidates to speak.
//  2. Before it serves, the winner asks every helper in the sandbox for
//     its slice of the distributed state (MsgRecoverState): locally known
//     PID mappings, the high-water marks of its ID batches, owned System V
//     objects, and its process group.
//
// All picoprocesses in a sandbox trust each other (§3), so the new leader
// accepts members' reports verbatim, exactly as the paper assumes.

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

// ElectLeader replaces the leader this helper last accepted, which its
// caller found dead, and returns the address of the leader that follows
// it (possibly this helper's own).
func (h *Helper) ElectLeader() (string, error) {
	h.mu.Lock()
	seen := h.leaderEpoch
	h.mu.Unlock()
	return h.elect(seen)
}

// elect replaces the leader of epoch seen. A leader accepted since — the
// election of another thread or helper that saw the same death — is the
// answer; so is an incumbent that still accepts dials (its exit has closed
// its streams but not yet its listener), and a leader never replaces
// itself. Otherwise the helper claims the next epoch, so a slow claim made
// for an earlier death can never clobber a newer leader (see
// handleNewLeaderBroadcast), and waits for the first claim of that epoch,
// whoever made it: every helper and thread that saw the death converges on
// it.
func (h *Helper) elect(seen int64) (string, error) {
	h.mu.Lock()
	addr, incumbent := h.leaderAddr, h.lastLeader
	decided := h.leaderEpoch > seen || h.leader != nil
	h.mu.Unlock()
	if decided {
		return addr, nil
	}
	if incumbent != "" && incumbent != h.Addr && h.peerAlive(incumbent) {
		return incumbent, nil
	}
	if err := h.claim(seen + 1); err != nil {
		return "", err
	}
	return h.awaitLeaderAbove(seen)
}

// ElectEpoch runs ElectLeader and returns the epoch the plane settled on:
// no lower than any accepted before the call, and higher when the
// incumbent was dead. This is the standby-master takeover primitive: a
// standby that sees its primary exit elects through the same machinery as
// any dead-leader recovery, and publishes the returned epoch as its
// handover label on the scoreboard.
func (h *Helper) ElectEpoch() (int64, error) {
	if _, err := h.ElectLeader(); err != nil {
		return 0, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.leaderEpoch, nil
}

// claim puts this helper's claim to epoch on the broadcast stream with
// BroadcastSendAll, so its own subscription reads the claim back at its
// place in the order every helper sees; handleNewLeaderBroadcast promotes
// the claimant only if the claim is the first of its epoch, and ledState
// holds leader requests until then. A helper that has already accepted a
// leader of the epoch claims nothing. A helper its sandbox's stream does
// not reach promotes at once: a sandbox split left it alone in a new
// sandbox, where nobody else can claim and its own claim would never be
// read back. The kernel says so as soon as the split returns, before the
// old subscription's end reaches broadcastLoop and sets deaf.
func (h *Helper) claim(epoch int64) error {
	alone := !h.hearsBroadcast()
	h.mu.Lock()
	if h.leaderEpoch >= epoch {
		h.mu.Unlock()
		return nil
	}
	deaf := h.deaf || alone
	if !deaf && h.claiming == nil {
		h.claiming = make(chan struct{})
	}
	h.mu.Unlock()
	if deaf {
		h.promote(epoch) // alone in its sandbox: nobody took the epoch
		return nil
	}
	nf := EncodeFrame(&Frame{Type: MsgNewLeader, A: epoch, From: h.Addr, S: h.Addr})
	if err := h.pal.BroadcastSendAll(nf); err != nil {
		h.endClaim()
		return err
	}
	return nil
}

// hearsBroadcast reports whether this helper's picoprocess is subscribed
// to its own sandbox's broadcast stream.
func (h *Helper) hearsBroadcast() bool {
	self := h.pal.Proc().ID
	for _, pid := range h.pal.BroadcastMembers() {
		if pid == self {
			return true
		}
	}
	return false
}

// awaitLeaderAbove blocks until this helper accepts a leader elected after
// epoch seen — its own claim read back first, or another's — and returns
// that leader's address. Delivery is reliable, so no timer bounds the
// wait; it ends without a leader only when the helper stops hearing
// broadcasts (a sandbox split, its exit) or shuts down.
func (h *Helper) awaitLeaderAbove(seen int64) (string, error) {
	for {
		h.mu.Lock()
		addr, epoch, deaf, ch := h.leaderAddr, h.leaderEpoch, h.deaf, h.leaderChange
		h.mu.Unlock()
		if epoch > seen {
			return addr, nil
		}
		if deaf {
			return "", api.EPIPE
		}
		select {
		case <-ch:
		case <-h.shutdownCh:
			return "", api.EPIPE
		}
	}
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
// The dial is a fresh one: a cached stream to a peer that has just exited
// may not have seen its end yet. A full accept backlog is a live peer.
func (h *Helper) peerAlive(addr string) bool {
	sh, err := h.pal.DkStreamOpen("pipe:"+addr, 0, 0)
	if err == nil {
		_ = h.pal.DkObjectClose(sh)
	}
	return err == nil || api.ToErrno(err) == api.EAGAIN
}

// promote turns this helper into the leader under the given election
// epoch, with a fresh leaderState rebuilt before it is published: this
// helper's own report first, then one asked of every other helper that
// hears the sandbox's broadcast stream — a superset of everyone that heard
// the claim, since a helper leaves the stream only by exiting or seceding.
// A dead helper fails the call and has nothing left to report. A request
// served before the reports are in would draw IDs from a cursor that has
// not seen them, or answer ENOENT for a live key, so members' leader
// requests wait in ledState meanwhile.
//
// Each answer also names the leader its member has accepted. One accepted
// at this epoch or later, from someone else, means the epoch was taken
// before this helper could hear it (a child forked after an election
// knows its leader but not the epoch): promote then publishes nothing and
// returns that leader, to be yielded to.
func (h *Helper) promote(epoch int64) (taken Frame) {
	l := newLeaderState()
	l.installRecoverState(h.collectRecoverState(), h.Addr)
	for _, pid := range h.pal.BroadcastMembers() {
		addr := AddrForHostPID(pid)
		if addr == h.Addr {
			continue
		}
		r, led, ok := h.askReport(addr)
		if !ok {
			continue
		}
		l.installRecoverState(r, addr)
		if led.S != "" && led.S != h.Addr && led.A >= epoch && led.A >= taken.A {
			taken = led
		}
	}
	if taken.S != "" {
		return taken
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.leader != nil {
		return Frame{}
	}
	h.leader = l
	h.setLeaderLocked(h.Addr, epoch)
	return Frame{}
}

// yieldTo follows addr, the leader the sandbox accepted at epoch, in place
// of this helper's own claim to that epoch; if that leader is dead too, the
// helper claims the epoch after it.
func (h *Helper) yieldTo(addr string, epoch int64) {
	h.mu.Lock()
	h.setLeaderLocked(addr, epoch)
	h.mu.Unlock()
	if !h.peerAlive(addr) {
		_ = h.claim(epoch + 1)
	}
}

// askReport asks the helper at addr for its recover report and the leader
// it has accepted (MsgRecoverState). ok is false when nobody answers: the
// helper is dead, or the subscriber runs no helper. The question travels
// on a stream of its own that names no sender, so the member never picks
// it for leader traffic: a leader request on it (a departing member's
// MsgBye) would wait in ledState on this stream's reader, which the
// answer needs. Its close reaps nothing (no dropConn): dropConn asks
// ledState too, and this runs under the claim.
func (h *Helper) askReport(addr string) (recoverPayload, Frame, bool) {
	c, err := h.open(addr, "", nil)
	if err != nil {
		return recoverPayload{}, Frame{}, false
	}
	defer c.Close()
	resp, err := c.Call(Frame{Type: MsgRecoverState})
	if err != nil {
		return recoverPayload{}, Frame{}, false
	}
	r, err := decodeRecover(resp.Blob)
	return r, resp, err == nil
}

// handleNewLeaderBroadcast records the winner: the first claim of its
// epoch in the broadcast order, which makes us leader when it is our own.
// A stale claim (no newer than the epoch of a leader we already accepted)
// is dropped, so neither a claim made for an earlier death nor a rival
// claim that came second can clobber the leader. A leader never yields to
// a claim: it leads until its picoprocess exits.
func (h *Helper) handleNewLeaderBroadcast(f Frame) {
	if f.S == "" {
		return
	}
	h.mu.Lock()
	switch {
	case h.shutdown || h.leader != nil || (f.A == h.leaderEpoch && f.S == h.leaderAddr):
		// Shutting down, leading, or a duplicate of a leader we already
		// accepted.
		h.mu.Unlock()
	case f.A <= h.leaderEpoch:
		// Older than the leader we accepted, or a rival that came second
		// in its epoch (even if we have since lost the winner's address:
		// discovery finds it again).
		h.mu.Unlock()
		statStaleAnnounces.Add(1)
	case f.S == h.Addr:
		// Our own claim, read back first of its epoch: we won. promote
		// collects the members' reports before we serve, while the claim
		// still holds their leader requests.
		h.mu.Unlock()
		if taken := h.promote(f.A); taken.S != "" {
			h.endClaim()
			h.yieldTo(taken.S, taken.A)
			return
		}
	default:
		h.setLeaderLocked(f.S, f.A)
		h.mu.Unlock()
	}
	if f.S == h.Addr {
		h.endClaim()
	}
}
