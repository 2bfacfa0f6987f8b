package ipc

import (
	"sync"

	"graphene/internal/api"
	"graphene/internal/host"
)

// Kernel-bypass SysV datapath, client + owner coordination (tentpole of
// the "monitor-granted shared-memory rings" change; host/ring.go holds
// the segments themselves, sysv.go the owner-side queue/sem hooks).
//
// Protocol: after ringAttachThreshold successful remote operations on one
// object, the client asks the owner for a grant (MsgRingAttach). The
// owner creates the segments through the PAL — the monitor's CheckBulkIPC
// policy gates the client's mapping exactly like a gipc store — and
// starts a drainer goroutine. From then on:
//
//   msgsnd  → TryPush on the send ring (owner drains under q.mu)
//   msgrcv  → TryPopClient on the receive ring (mtype==0 only; granted
//             only while the owner's backlog is empty with no waiters)
//   semop   → CAS on the shared value (single-semaphore sets, plain ops)
//
// Everything else — and every disruption: ring full, oversize message,
// migration, deletion, sandbox split, owner death, shutdown — falls back
// to the classic RPC path, under the FIFO rule sysvRing states.

// ringAttachThreshold is how many successful remote operations on one
// object trigger a grant request (same spirit as migrateThreshold: pay
// the setup cost only for objects with steady cross-process traffic).
const ringAttachThreshold = 8

// ringNever is the op count of an object whose owner answered that it can
// never have a ring (a set of more than one semaphore): nothing counts
// toward an attach until the object's route is dropped.
const ringNever = -1

// ringClient is the client side of one attachment: a queue's send ring
// and optional receive ring, or a one-semaphore set's shared value.
type ringClient struct {
	owner  string
	epoch  int64
	send   *host.RingSegment // queue: client produces
	recv   *host.RingSegment // queue: client consumes; nil if the owner declined
	mu     sync.Mutex        // serializes local consumers on popBuf
	popBuf []byte
	seg    *host.SemSeg // semaphore set: the shared value
}

// grant is the segment the owner names the attachment by: the send ring
// or the value segment.
func (rc *ringClient) grant() (id int, revoked bool) {
	if rc.seg != nil {
		return rc.seg.ID, rc.seg.Revoked()
	}
	return rc.send.ID, rc.send.Revoked()
}

// ringClientState hangs off the Helper: per-object remote-op counters and
// live attachments. Maps are lazy — helpers that never cross the
// threshold pay one nil check.
type ringClientState struct {
	mu        sync.Mutex
	ops       map[sysvRef]int
	clients   map[sysvRef]*ringClient
	attaching map[sysvRef]bool
}

// traceRing records a ring lifecycle event in the flight recorder
// (code 1 grant, 2 map, 3 revoke/reclaim). Only lifecycle edges are
// traced; the datapath itself stays untraced to remain allocation-free.
func (h *Helper) traceRing(code uint32, segID int) {
	if !host.TraceEnabled() {
		return
	}
	h.pal.Proc().TraceRecord(host.TraceEvent{
		TS: host.TraceNow(), Kind: host.EvRingBypass, Code: code, Arg: uint64(segID),
	})
}

// ============================================================
// Client side
// ============================================================

// ringGet returns the live attachment for object ref at owner, dropping
// stale state (revoked grant or ownership moved) on the way.
func (h *Helper) ringGet(ref sysvRef, owner string) *ringClient {
	rs := &h.ringState
	rs.mu.Lock()
	rc := rs.clients[ref]
	rs.mu.Unlock()
	if rc == nil {
		return nil
	}
	if _, revoked := rc.grant(); revoked || rc.owner != owner {
		h.ringDrop(ref)
		return nil
	}
	return rc
}

func (h *Helper) ringDrop(ref sysvRef) {
	rs := &h.ringState
	rs.mu.Lock()
	delete(rs.clients, ref)
	delete(rs.ops, ref)
	rs.mu.Unlock()
}

// noteRemoteOp counts a successful remote operation on object ref and
// makes the grant handshake once it crosses the threshold. The operation
// that crosses it pays for the handshake: run in the background, the
// handshake waits for a processor the caller's own acknowledged RPCs keep
// busy, and could land hundreds of operations late.
func (h *Helper) noteRemoteOp(ref sysvRef, owner string) {
	rs := &h.ringState
	rs.mu.Lock()
	if rs.clients[ref] != nil || rs.attaching[ref] || rs.ops[ref] == ringNever {
		rs.mu.Unlock()
		return
	}
	mapSet(&rs.ops, ref, rs.ops[ref]+1)
	if rs.ops[ref] < ringAttachThreshold {
		rs.mu.Unlock()
		return
	}
	rs.ops[ref] = 0
	mapSet(&rs.attaching, ref, true)
	rs.mu.Unlock()
	h.ringAttach(ref, owner)
}

// ringAttach performs the grant handshake for object ref. Declines (owner
// busy, migrating, already granted) and policy refusals (the monitor
// vetoes cross-sandbox mappings) are silent: the counter restarts and the
// client retries after another threshold's worth of traffic. EINVAL says
// the object can never have a ring, and the client stops asking.
func (h *Helper) ringAttach(ref sysvRef, owner string) {
	rs := &h.ringState
	defer func() {
		rs.mu.Lock()
		delete(rs.attaching, ref)
		rs.mu.Unlock()
	}()
	c, err := h.dial(owner)
	if err != nil {
		return
	}
	flag := wireFlag(ref.kind)
	resp, err := c.CallTimeout(Frame{Type: MsgRingAttach, A: ref.id, B: flag, C: int64(h.pal.Proc().ID)}, rpcCallTimeout)
	if err == api.EINVAL {
		rs.mu.Lock()
		mapSet(&rs.ops, ref, ringNever)
		rs.mu.Unlock()
	}
	if err != nil || resp.A == 0 {
		return
	}
	rc := &ringClient{owner: owner, epoch: resp.D}
	if err := h.mapGrant(rc, ref.kind, resp); err != nil {
		// The monitor refused the mapping (e.g. a sandbox split landed
		// between grant and map): tell the owner to reclaim.
		_, _ = c.CallTimeout(Frame{Type: MsgRingDetach, A: ref.id, B: flag, D: resp.A}, rpcCallTimeout)
		return
	}
	rs.mu.Lock()
	mapSet(&rs.clients, ref, rc)
	rs.mu.Unlock()
	h.traceRing(2, int(resp.A))
}

// mapGrant maps the segments a grant names into rc: a queue's send ring
// (A) and receive ring (B, 0 if declined), or a set's value segment (A).
func (h *Helper) mapGrant(rc *ringClient, kind int, resp Frame) error {
	var err error
	if kind == NSSysVSem {
		rc.seg, err = h.pal.RingMapSem(int(resp.A))
		return err
	}
	if rc.send, err = h.pal.RingMapMsg(int(resp.A)); err != nil {
		return err
	}
	rc.popBuf = make([]byte, host.RingSlotData)
	if resp.B != 0 {
		rc.recv, err = h.pal.RingMapMsg(int(resp.B))
	}
	return err
}

// sysvRing tries op on a live attachment to owner and reports whether the
// ring served it; a miss leaves op to an RPC. The FIFO rule across the
// path switch: a send that misses the ring, for any reason, is acked
// before the next push. Messages already in the send ring land first,
// because the owner ingests the ring under the queue lock before it
// appends an RPC's message, and no later push can overtake the acked one.
func (h *Helper) sysvRing(op *sysvOp, owner string) (sysvResult, bool) {
	ref := sysvRef{op.kind, op.id}
	rc := h.ringGet(ref, owner)
	if rc == nil {
		return sysvResult{}, false
	}
	switch op.typ {
	case MsgQSend:
		if rc.send.TryPush(op.mtype, op.data) {
			h.ringHits.Add(1)
			return sysvResult{}, true
		}
		h.ringMisses.Add(1)
		if rc.send.Revoked() {
			h.ringDrop(ref)
		}
	case MsgQRecv:
		// FIFO receives only: the ring cannot reorder, so a selective
		// receive rides RPC, which makes the owner reclaim the ring.
		if op.mtype != 0 {
			return sysvResult{}, false
		}
		if r, ok := h.qRingRecv(rc, op.wait, op.intr); ok {
			return r, true
		}
		// Receive ring revoked (owner reclaimed it); the send ring may
		// still be live, so the attachment stays.
		rc.mu.Lock()
		rc.recv = nil
		rc.mu.Unlock()
	case MsgSemOp:
		// Plain single-semaphore ops CAS the shared value; other ops
		// (more semaphores, flags beyond IPC_NOWAIT) ride RPC.
		for _, o := range op.ops {
			if o.Num != 0 || int(o.Flg)&^api.IPCNoWait != 0 {
				return sysvResult{}, false
			}
		}
		applied, _, errno := rc.seg.TryApply(op.ops)
		switch {
		case errno == api.EAGAIN: // revoked or sealed
			h.ringDrop(ref)
		case errno != 0 || applied:
			h.ringHits.Add(1)
			return sysvResult{errno: errno}, true
		case !op.wait:
			// The segment is the authoritative value, so a would-block
			// answered here is exact.
			h.ringHits.Add(1)
			return sysvResult{errno: api.EAGAIN}, true
		}
		// Revoked, or a would-block op the caller sleeps on: parking
		// lives at the owner.
		h.ringMisses.Add(1)
	}
	return sysvResult{}, false
}

// qRingRecv attempts the msgrcv fast path on the receive ring (mtype==0
// callers only — the ring is strictly FIFO). handled=false means the ring
// is gone (revoked/reclaimed) and the caller must fall back to RPC. While
// the ring is live, empty means the queue is empty (the owner routes
// every message into it), so ENOMSG and blocking-park are answered
// locally. intr follows the one cancel rule with nothing parked remotely:
// a message already in the ring is still returned, else EINTR.
func (h *Helper) qRingRecv(rc *ringClient, wait bool, intr <-chan struct{}) (r sysvResult, handled bool) {
	rc.mu.Lock()
	rr := rc.recv
	rc.mu.Unlock()
	if rr == nil {
		return sysvResult{}, false
	}
	var ch chan struct{}
	interrupted := false
	defer func() {
		if ch != nil {
			rr.Doorbell.Unregister(ch)
		}
	}()
	for {
		rc.mu.Lock()
		mt, n, ok := rr.TryPopClient(rc.popBuf)
		if ok {
			r = sysvResult{mtype: mt, data: append([]byte(nil), rc.popBuf[:n]...)}
		}
		rc.mu.Unlock()
		switch {
		case ok:
		case rr.Revoked():
			h.ringMisses.Add(1)
			return sysvResult{}, false
		case !wait:
			r.errno = api.ENOMSG
		case interrupted:
			// The pop after the signal found nothing.
			return sysvResult{errno: api.EINTR}, true
		case ch == nil:
			// Register, then re-check: a push between the failed pop and
			// the registration must not be missed.
			ch = make(chan struct{}, 1)
			rr.Doorbell.Register(ch)
			continue
		default:
			select {
			case <-ch:
			case <-intr: // nil intr never fires; revocation still wakes via ch
				interrupted = true
			}
			continue
		}
		h.ringHits.Add(1)
		return r, true
	}
}

// ringShutdown detaches every client attachment with a best-effort
// synchronous call so owners reclaim promptly (without it they would
// still converge: the kernel revokes the segments when this process
// exits, and any classic receive reclaims a stranded receive ring).
func (h *Helper) ringShutdown() {
	rs := &h.ringState
	rs.mu.Lock()
	clients := rs.clients
	rs.clients, rs.ops = nil, nil
	rs.mu.Unlock()
	for ref, rc := range clients {
		if c, err := h.dial(rc.owner); err == nil {
			seg, _ := rc.grant()
			_, _ = c.CallTimeout(Frame{Type: MsgRingDetach, A: ref.id, B: wireFlag(ref.kind), D: int64(seg)}, rpcCallTimeout)
		}
	}
}

// ============================================================
// Owner side
// ============================================================

// handleRingAttach services a grant request: f.A object id, f.B 1 for
// semaphore sets, f.C the client's host PID. Response: A = send-ring /
// segment ID, B = receive-ring ID (queues; 0 if declined), D = the
// object's migration epoch. Any error is a decline — the client keeps
// using RPC and may retry later, unless it is EINVAL: the object can never
// have a ring.
func (h *Helper) handleRingAttach(f Frame, respond func(Frame)) {
	pid := int(f.C)
	h.mu.Lock()
	down := h.shutdown
	o := h.objectLocked(flagKind(f.B), f.A)
	h.mu.Unlock()
	if pid <= 0 || down {
		respond(f.ErrResponse(api.EAGAIN))
		return
	}
	if o == nil {
		respond(f.ErrResponse(api.EIDRM))
		return
	}
	hd := o.header()
	hd.mu.Lock()
	if !hd.liveLocked() || hd.migrating {
		hd.mu.Unlock()
		respond(f.ErrResponse(api.EXDEV))
		return
	}
	g, errno := o.grantLocked(h.pal, pid)
	epoch := hd.epoch
	hd.mu.Unlock()
	if errno != 0 {
		respond(f.ErrResponse(errno))
		return
	}
	if !h.bgGo(func() { h.ringDrainer(o, g) }) {
		hd.mu.Lock()
		o.reclaimGrantLocked()
		hd.mu.Unlock()
		h.releaseGrant(g)
		respond(f.ErrResponse(api.EAGAIN))
		return
	}
	h.traceRing(1, g.seg)
	respond(f.Response(Frame{A: int64(g.seg), B: int64(g.recv), D: epoch}))
}

// handleRingDetach reclaims a grant at the client's request (synchronous:
// when the response arrives, the owner has folded the grant back and the
// client may safely switch to RPC). f.D names the segment so a stale
// detach cannot tear down a newer grant.
func (h *Helper) handleRingDetach(f Frame, respond func(Frame)) {
	h.mu.Lock()
	o := h.objectLocked(flagKind(f.B), f.A)
	h.mu.Unlock()
	if o != nil {
		hd := o.header()
		hd.mu.Lock()
		if id := o.grantIDLocked(); id != 0 && int64(id) == f.D {
			o.reclaimGrantLocked()
		}
		hd.mu.Unlock()
	}
	respond(f.Response(Frame{}))
}

// ringDrainer is the owner-side half of grant g on object o: parked on the
// doorbell, it serves what the client does through the grant (ingesting a
// queue's pushes, re-evaluating a set's waiters against the shared value)
// until the grant dies — revocation, a reclaim elsewhere (migration,
// removal, detach), or helper shutdown. It then releases the segment IDs
// from the kernel registry.
func (h *Helper) ringDrainer(o sysvObject, g ringGrant) {
	hd := o.header()
	ch := make(chan struct{}, 1)
	g.bell.Register(ch)
	defer g.bell.Unregister(ch)
	for {
		hd.mu.Lock()
		live := o.serveGrantLocked(g.seg)
		hd.mu.Unlock()
		if !live {
			break
		}
		select {
		case <-ch:
			continue
		case <-h.shutdownCh:
		}
		// Shutdown closes shutdownCh before waiting on h.bg, and
		// persistQueue snapshots afterward — reclaiming here makes the
		// persisted blob complete.
		hd.mu.Lock()
		if o.grantIDLocked() == g.seg {
			o.reclaimGrantLocked()
		}
		hd.mu.Unlock()
		break
	}
	h.traceRing(3, g.seg)
	h.releaseGrant(g)
}

func (h *Helper) releaseGrant(g ringGrant) {
	h.pal.RingRelease(g.seg)
	if g.recv != 0 {
		h.pal.RingRelease(g.recv)
	}
}
