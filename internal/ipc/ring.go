package ipc

import (
	"sync"

	"graphene/internal/api"
	"graphene/internal/host"
)

// Kernel-bypass SysV datapath, client + owner coordination (host/ring.go
// holds the send ring itself, sysv.go the queue's side of a grant).
//
// The one bypass is a message queue's send ring, which carries the paper's
// one-way remote msgsnd. The route rule: only a remote send that succeeds
// by RPC counts toward an attach; a remote receive or semop is a
// migration vote and never asks for a grant. After ringAttachThreshold
// such sends to one queue, the client asks the owner for a grant
// (MsgRingAttach). The owner creates the ring through the PAL — the
// monitor's CheckBulkIPC policy gates the client's mapping exactly like a
// gipc store — and starts a drainer goroutine. From then on a msgsnd is a
// TryPush on the ring, which the owner ingests under q.mu.
//
// Every disruption — ring full, oversize message, migration, deletion,
// sandbox split, owner death, shutdown — falls back to the classic RPC
// path, under the FIFO rule sysvRing states.

// ringAttachThreshold is how many sends acknowledged by RPC to one queue
// trigger a grant request (same spirit as migrateThreshold: pay the setup
// cost only for queues with steady cross-process traffic).
const ringAttachThreshold = 8

// ringClient is the client side of one attachment: the queue's owner and
// the send ring it granted.
type ringClient struct {
	owner string
	send  *host.RingSegment
}

// ringClientState hangs off the Helper: per-queue RPC-send counters and
// live attachments, keyed by queue ID. Maps are lazy — helpers that never
// cross the threshold pay one nil check.
type ringClientState struct {
	mu        sync.Mutex
	ops       map[int64]int
	clients   map[int64]*ringClient
	attaching map[int64]bool
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

// ringGet returns the live attachment to queue id at owner, dropping
// stale state (revoked ring or ownership moved) on the way.
func (h *Helper) ringGet(id int64, owner string) *ringClient {
	rs := &h.ringState
	rs.mu.Lock()
	rc := rs.clients[id]
	rs.mu.Unlock()
	if rc == nil {
		return nil
	}
	if rc.send.Revoked() || rc.owner != owner {
		h.ringDrop(id)
		return nil
	}
	return rc
}

func (h *Helper) ringDrop(id int64) {
	rs := &h.ringState
	rs.mu.Lock()
	delete(rs.clients, id)
	delete(rs.ops, id)
	rs.mu.Unlock()
}

// noteRemoteSend counts a send to queue id that an RPC acknowledged and
// makes the grant handshake once it crosses the threshold. The send that
// crosses it pays for the handshake: run in the background, the handshake
// waits for a processor the caller's own acknowledged RPCs keep busy, and
// could land hundreds of sends late.
func (h *Helper) noteRemoteSend(id int64, owner string) {
	rs := &h.ringState
	rs.mu.Lock()
	if rs.clients[id] != nil || rs.attaching[id] {
		rs.mu.Unlock()
		return
	}
	mapSet(&rs.ops, id, rs.ops[id]+1)
	if rs.ops[id] < ringAttachThreshold {
		rs.mu.Unlock()
		return
	}
	rs.ops[id] = 0
	mapSet(&rs.attaching, id, true)
	rs.mu.Unlock()
	h.ringAttach(id, owner)
}

// ringAttach performs the grant handshake for queue id. Every refusal —
// the owner declining (busy, migrating, already granted, not a live
// queue) or the monitor vetoing a cross-sandbox mapping — is silent: the
// counter restarts and the client retries after another threshold's worth
// of sends.
func (h *Helper) ringAttach(id int64, owner string) {
	rs := &h.ringState
	defer func() {
		rs.mu.Lock()
		delete(rs.attaching, id)
		rs.mu.Unlock()
	}()
	c, err := h.dial(owner)
	if err != nil {
		return
	}
	resp, err := c.Call(Frame{Type: MsgRingAttach, A: id, C: int64(h.pal.Proc().ID)})
	if err != nil || resp.A == 0 {
		return
	}
	send, err := h.pal.RingMapMsg(int(resp.A))
	if err != nil {
		// The monitor refused the mapping (e.g. a sandbox split landed
		// between grant and map): tell the owner to reclaim.
		_, _ = c.Call(Frame{Type: MsgRingDetach, A: id, D: resp.A})
		return
	}
	rs.mu.Lock()
	mapSet(&rs.clients, id, &ringClient{owner: owner, send: send})
	rs.mu.Unlock()
	h.traceRing(2, send.ID)
}

// sysvRing tries a send on a live attachment to owner and reports whether
// the ring carried it; any other op, and a miss, is left to an RPC. The
// FIFO rule across the path switch: a send that misses the ring, for any
// reason, is acked before the next push. Messages already in the send
// ring land first, because the owner ingests the ring under the queue
// lock before it appends an RPC's message, and no later push can overtake
// the acked one.
func (h *Helper) sysvRing(op *sysvOp, owner string) bool {
	if op.typ != MsgQSend {
		return false
	}
	rc := h.ringGet(op.id, owner)
	if rc == nil {
		return false
	}
	if rc.send.TryPush(op.mtype, op.data) {
		h.ringHits.Add(1)
		return true
	}
	h.ringMisses.Add(1)
	if rc.send.Revoked() {
		h.ringDrop(op.id)
	}
	return false
}

// ringShutdown detaches every client attachment with a best-effort
// synchronous call so owners reclaim promptly (without it they would
// still converge: the kernel revokes the rings when this process exits).
func (h *Helper) ringShutdown() {
	rs := &h.ringState
	rs.mu.Lock()
	clients := rs.clients
	rs.clients, rs.ops = nil, nil
	rs.mu.Unlock()
	for id, rc := range clients {
		if c, err := h.dial(rc.owner); err == nil {
			_, _ = c.Call(Frame{Type: MsgRingDetach, A: id, D: int64(rc.send.ID)})
		}
	}
}

// ============================================================
// Owner side
// ============================================================

// handleRingAttach services a grant request: f.A the queue id, f.C the
// client's host PID. Response: A = send-ring ID. Any error is a decline
// and the client keeps using RPC; EINVAL answers anything that is not a
// live message queue held here.
func (h *Helper) handleRingAttach(f Frame, respond func(Frame)) {
	pid := int(f.C)
	h.mu.Lock()
	down := h.shutdown
	q := h.queues[f.A]
	h.mu.Unlock()
	if pid <= 0 || down {
		respond(f.ErrResponse(api.EAGAIN))
		return
	}
	if q == nil {
		respond(f.ErrResponse(api.EINVAL))
		return
	}
	q.mu.Lock()
	if !q.liveLocked() {
		q.mu.Unlock()
		respond(f.ErrResponse(api.EINVAL))
		return
	}
	if q.migrating {
		q.mu.Unlock()
		respond(f.ErrResponse(api.EXDEV))
		return
	}
	sr, errno := q.grantLocked(h.pal, pid)
	q.mu.Unlock()
	if errno != 0 {
		respond(f.ErrResponse(errno))
		return
	}
	if !h.bgGo(func() { h.ringDrainer(q, sr) }) {
		q.mu.Lock()
		q.reclaimGrantLocked()
		q.mu.Unlock()
		h.pal.RingRelease(sr.ID)
		respond(f.ErrResponse(api.EAGAIN))
		return
	}
	h.traceRing(1, sr.ID)
	respond(f.Response(Frame{A: int64(sr.ID)}))
}

// handleRingDetach reclaims a grant at the client's request (synchronous:
// when the response arrives, the owner has folded the ring back and the
// client may safely switch to RPC). f.D names the ring so a stale detach
// cannot tear down a newer grant.
func (h *Helper) handleRingDetach(f Frame, respond func(Frame)) {
	h.mu.Lock()
	q := h.queues[f.A]
	h.mu.Unlock()
	if q != nil {
		q.mu.Lock()
		if sr := q.sendRing; sr != nil && int64(sr.ID) == f.D {
			q.reclaimGrantLocked()
		}
		q.mu.Unlock()
	}
	respond(f.Response(Frame{}))
}

// ringDrainer is the owner-side half of send ring sr on queue q: parked on
// the doorbell, it ingests the client's pushes until the grant dies —
// revocation, a reclaim elsewhere (migration, removal, detach), or helper
// shutdown. It then releases the ring from the kernel registry.
func (h *Helper) ringDrainer(q *msgQueue, sr *host.RingSegment) {
	ch := make(chan struct{}, 1)
	sr.Doorbell.Register(ch)
	defer sr.Doorbell.Unregister(ch)
	for {
		q.mu.Lock()
		live := q.serveGrantLocked(sr)
		q.mu.Unlock()
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
		q.mu.Lock()
		if q.sendRing == sr {
			q.reclaimGrantLocked()
		}
		q.mu.Unlock()
		break
	}
	h.traceRing(3, sr.ID)
	h.pal.RingRelease(sr.ID)
}
