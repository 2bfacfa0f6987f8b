package ipc

import (
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"graphene/internal/api"
	"graphene/internal/posix"
)

// cancelCookie mints unique tags for blocking receive/semop calls so a
// signal-interruption cancel (MsgQRecvCancel/MsgSemOpCancel) names the
// exact parked waiter it withdraws. Process-global: uniqueness per sender
// address is all the owner-side match needs.
var cancelCookie atomic.Int64

// sysvRetries bounds how long a System V operation chases a migrating
// object: ownership migration is asynchronous, so a request can race the
// transfer and must re-resolve with backoff until the new owner is
// reachable.
const sysvRetries = 200

// migrationBackoff pauses a retry loop so an in-flight migration or
// leader-mapping update can land.
func migrationBackoff(attempt int) {
	if attempt > 0 {
		time.Sleep(time.Millisecond)
	}
}

// allocID draws a System V ID of the given namespace kind from the local
// batch granted by the given shard, refilling from that shard's leader
// when exhausted. Allocating from a specific shard is what keeps keyed
// objects single-shard-authoritative: the ID comes from the key's shard,
// so every later by-ID operation (owner lookup, chown, migrate, remove)
// routes to the same shard that holds the key mapping.
func (h *Helper) allocID(kind, shard int) (int64, error) {
	if kind != NSSysVMsg && kind != NSSysVSem {
		return 0, api.EINVAL
	}
	k := idbKey{kind: kind, shard: shard}
	h.mu.Lock()
	b := h.idBatches[k]
	if b == nil {
		b = &idBatch{shard: shard}
		mapSet(&h.idBatches, k, b)
	}
	if b.next == 0 || b.next > b.hi {
		var leader *leaderState
		if g := h.groupFor(int32(shard)); g != nil {
			leader = g.leader
		}
		h.mu.Unlock()
		var lo, hi int64
		if leader != nil {
			// The shard leader refills from its own range table directly
			// and announces the cursor like any grant: a successor elected
			// while this helper is cut off must not mint these IDs again.
			lo, hi = leader.allocRange(kind, idBatchSize, h.Addr)
			h.broadcastNSHwm(kind, shard, hi+1)
		} else {
			resp, err := h.callShard(shard, Frame{Type: MsgNSAlloc, A: int64(kind), B: idBatchSize})
			if err != nil {
				return 0, err
			}
			lo, hi = resp.A, resp.B
		}
		h.mu.Lock()
		b = h.idBatches[k]
		if b == nil {
			b = &idBatch{shard: shard}
			mapSet(&h.idBatches, k, b)
		}
		b.next, b.hi = lo, hi
	}
	id := b.next
	b.next++
	h.mu.Unlock()
	return id, nil
}

// ============================================================
// Key resolution (shared by message queues and semaphores)
// ============================================================

// sysvKey maps a System V key to (id, owner) for the given namespace
// kind at the key's one authority, its shard leader: a plain call against
// the leader's tables when this helper leads the key's shard, else one
// MsgKeyGet round trip. Either way the mapping is in the leader's table
// before the call returns. A create proposes an ID from this helper's
// batch of the key's shard; a lookup proposes none.
func (h *Helper) sysvKey(kind int, key int64, flags int) (int64, string, error) {
	ks := h.sysvShardOf(kind, key)
	var proposed int64
	if flags&api.IPCCreat != 0 || key == api.IPCPrivate {
		var err error
		if proposed, err = h.allocID(kind, ks); err != nil {
			return 0, "", err
		}
	}
	h.mu.Lock()
	leader := h.groups[ks].leader
	h.mu.Unlock()
	if leader != nil {
		id, owner, errno := leader.keyResolve(kind, key, flags, proposed, h.Addr)
		if errno != 0 {
			return 0, "", errno
		}
		return id, owner, nil
	}
	trace, root := traceRoot()
	resp, err := h.callLeader(Frame{Type: MsgKeyGet, A: int64(kind), B: key, C: int64(flags), D: proposed, Trace: trace, Span: root})
	if err != nil {
		return 0, "", err
	}
	return resp.A, resp.S, nil
}

// ============================================================
// Message queues (client side)
// ============================================================

// Msgget maps a System V key to a queue ID, creating the queue locally
// when this helper wins the creation race (§4.2).
func (h *Helper) Msgget(key int64, flags int) (int64, error) {
	return h.getKeyed(NSSysVMsg, key, flags, 0)
}

// Msgsnd appends a message to queue id. Remote sends are asynchronous: the
// sender assumes success once the queue's existence and location are known
// (§4.3, "Make RPCs asynchronous whenever possible"). A message racing a
// queue deletion is dropped, as in the paper.
func (h *Helper) Msgsnd(id int64, mtype int64, data []byte, flags int) error {
	return h.msgsnd(id, mtype, data, false)
}

// MsgsndSync is Msgsnd with the synchronous remote send forced: it waits
// for the owner's ack and never rides a ring. Kept for the ablation
// benchmark comparing sync vs async remote send.
func (h *Helper) MsgsndSync(id int64, mtype int64, data []byte) error {
	return h.msgsnd(id, mtype, data, true)
}

func (h *Helper) msgsnd(id, mtype int64, data []byte, sync bool) error {
	if mtype <= 0 {
		return api.EINVAL
	}
	ref := sysvRef{NSSysVMsg, id}
	for attempt := 0; attempt < sysvRetries; attempt++ {
		migrationBackoff(attempt)
		owner, err := h.owner(NSSysVMsg, id)
		if err != nil {
			return err
		}
		if owner == h.Addr {
			h.mu.Lock()
			q := h.queues[id]
			h.mu.Unlock()
			if q == nil {
				return api.EIDRM
			}
			errno := q.send(mtype, data)
			if errno == api.EXDEV {
				h.invalidate(NSSysVMsg, id)
				continue
			}
			if errno != 0 {
				return errno
			}
			return nil
		}
		// Kernel-bypass fast path: push straight into the owner-granted
		// ring. Failure falls through to RPC — synchronously when the
		// attachment is still live (full ring, oversize message), because
		// a later ring push must not overtake the in-flight RPC send; see
		// qRingSend. A revoked ring is dropped and the plain async path
		// resumes (the owner collapsed it under q.mu, so ordering holds).
		syncSend := sync
		if rc := h.ringGet(ref, owner); rc != nil && !sync {
			if h.qRingSend(rc, mtype, data) {
				return nil
			}
			if rc.send.Revoked() {
				h.ringDrop(ref)
			} else {
				syncSend = true
			}
		}
		c, err := h.dial(owner)
		if err != nil {
			h.ownerLost(NSSysVMsg, id)
			continue
		}
		if !syncSend {
			if err := c.Notify(Frame{Type: MsgQSend, A: id, B: mtype, C: 1, Blob: data}); err != nil {
				h.invalidate(NSSysVMsg, id)
				continue
			}
			h.noteRemoteOp(ref, owner)
			return nil
		}
		// Deadline-bounded: a partitioned owner is indistinguishable from a
		// wedged one, and a synchronous send must never hang. ETIMEDOUT is
		// surfaced (default branch), NOT treated like EPIPE — the owner may
		// be alive behind the partition, and adopting its queue here would
		// fork the queue into two live copies.
		_, err = c.CallTimeout(Frame{Type: MsgQSend, A: id, B: mtype, Blob: data}, rpcCallTimeout)
		switch err {
		case nil:
			return nil
		case api.EXDEV:
			h.invalidate(NSSysVMsg, id)
		case api.EPIPE:
			h.ownerLost(NSSysVMsg, id)
		default:
			return err
		}
	}
	return api.EIDRM
}

// Msgrcv removes and returns the first message matching mtype. Blocking
// receives on remote queues are deferred at the owner until a message
// arrives; queue migration surfaces as EXDEV and is retried transparently.
func (h *Helper) Msgrcv(id int64, mtype int64, flags int) (int64, []byte, error) {
	return h.MsgrcvIntr(id, mtype, flags, nil)
}

// MsgrcvIntr is Msgrcv with signal interruption: intr (may be nil) is
// closed when the guest receives an interrupting signal, and a receive
// parked at that moment returns EINTR per msgrcv(2). The interruption is
// race-free in both directions — a message delivered before the cancel
// lands is returned normally, never dropped.
func (h *Helper) MsgrcvIntr(id int64, mtype int64, flags int, intr <-chan struct{}) (int64, []byte, error) {
	wait := flags&api.IPCNoWait == 0
	ref := sysvRef{NSSysVMsg, id}
	for attempt := 0; attempt < sysvRetries; attempt++ {
		migrationBackoff(attempt)
		owner, err := h.owner(NSSysVMsg, id)
		if err != nil {
			return 0, nil, err
		}
		if owner == h.Addr {
			h.mu.Lock()
			q := h.queues[id]
			h.mu.Unlock()
			if q == nil {
				h.invalidate(NSSysVMsg, id)
				continue
			}
			q.mu.Lock()
			q.localOps++
			q.mu.Unlock()
			type res struct {
				mtype int64
				data  []byte
				errno api.Errno
			}
			ch := make(chan res, 1)
			w := q.recv(mtype, wait, "", 0, func(mt int64, data []byte, errno api.Errno) {
				ch <- res{mt, data, errno}
			})
			var r res
			if w == nil || intr == nil {
				r = <-ch
			} else {
				select {
				case r = <-ch:
				case <-intr:
					if q.cancelRecv(w) {
						return 0, nil, api.EINTR
					}
					// Delivery won the race; take the result.
					r = <-ch
				}
			}
			if r.errno == api.EXDEV {
				h.invalidate(NSSysVMsg, id)
				continue
			}
			if r.errno != 0 {
				return 0, nil, r.errno
			}
			return r.mtype, r.data, nil
		}
		// Kernel-bypass fast path: FIFO receives (mtype==0) pop from the
		// owner-granted receive ring; selective receives stay on RPC
		// (the ring cannot reorder, and the first RPC receive makes the
		// owner reclaim it).
		if mtype == 0 {
			if rc := h.ringGet(ref, owner); rc != nil {
				mt, data, errno, handled := h.qRingRecv(rc, wait, intr)
				if handled {
					if errno != 0 {
						return 0, nil, errno
					}
					return mt, data, nil
				}
				// Receive ring revoked (owner reclaimed it); the send
				// ring may still be live — keep the attachment.
				rc.mu.Lock()
				rc.recv = nil
				rc.mu.Unlock()
			}
		}
		c, err := h.dial(owner)
		if err != nil {
			h.ownerLost(NSSysVMsg, id)
			continue
		}
		waitFlag := int64(0)
		if wait {
			waitFlag = 1
		}
		// A blocking receive legitimately parks until a message arrives (or
		// the owner tears down), so only the non-blocking variant — which
		// the owner answers immediately — rides the RPC deadline.
		var resp Frame
		if wait {
			resp, err = h.callIntr(c, Frame{Type: MsgQRecv, A: id, B: mtype, C: waitFlag}, MsgQRecvCancel, intr)
		} else {
			resp, err = c.CallTimeout(Frame{Type: MsgQRecv, A: id, B: mtype, C: waitFlag}, rpcCallTimeout)
		}
		switch err {
		case nil:
			h.noteRemoteOp(ref, owner)
			return resp.B, resp.Blob, nil
		case api.EXDEV:
			h.invalidate(NSSysVMsg, id)
		case api.EPIPE:
			h.ownerLost(NSSysVMsg, id)
		default:
			return 0, nil, err
		}
	}
	return 0, nil, api.EIDRM
}

// callIntr issues a blocking owner-side call that a guest signal can
// withdraw. The request carries a cancel cookie in D; on interruption the
// matching cancel type is sent asynchronously and the caller KEEPS
// waiting on the original call — the owner answers it either with the
// delivered result (delivery won the race) or with EINTR (cancel won), so
// no message or permit is ever lost to a signal.
func (h *Helper) callIntr(c *Conn, f Frame, cancel MsgType, intr <-chan struct{}) (Frame, error) {
	if intr == nil {
		return c.Call(f)
	}
	f.D = cancelCookie.Add(1)
	type callRes struct {
		resp Frame
		err  error
	}
	rc := make(chan callRes, 1)
	go func() {
		resp, err := c.Call(f)
		rc <- callRes{resp, err}
	}()
	select {
	case r := <-rc:
		return r.resp, r.err
	case <-intr:
		_ = c.Notify(Frame{Type: cancel, A: f.A, D: f.D})
		r := <-rc
		return r.resp, r.err
	}
}

// MsgRmid destroys queue id, notifying prior accessors (§4.2).
func (h *Helper) MsgRmid(id int64) error { return h.rmid(NSSysVMsg, id) }

// adoptQueue loads a queue persisted by a dead owner and takes ownership,
// updating the leader's mapping (§4.2's persistence protocol).
func (h *Helper) adoptQueue(id int64) bool {
	fh, err := h.pal.DkStreamOpen("file:"+persistPath(id), api.ORdOnly, 0)
	if err != nil {
		return false
	}
	var blob []byte
	buf := make([]byte, 4096)
	for {
		n, err := h.pal.DkStreamRead(fh, buf)
		if n > 0 {
			blob = append(blob, buf[:n]...)
		}
		if err != nil || n == 0 {
			break
		}
	}
	_ = h.pal.DkObjectClose(fh)
	_ = h.pal.DkStreamDelete("file:" + persistPath(id))
	q, err := decodeSysV(NSSysVMsg, id, blob)
	if err != nil {
		return false
	}
	h.mu.Lock()
	h.setObjectLocked(q)
	kindSet(&h.ownerCache, NSSysVMsg, id, h.Addr)
	h.mu.Unlock()
	// An owner sends locally: the attachment to the dead owner's ring, if a
	// fallback send got here without noticing the revocation, is stale.
	h.ringDrop(sysvRef{NSSysVMsg, id})
	_, _ = h.callLeader(Frame{Type: MsgKeyChown, A: NSSysVMsg, B: id, S: h.Addr})
	return true
}

// ============================================================
// Semaphores (client side)
// ============================================================

// Semget maps a key to a semaphore set ID, creating locally on first use.
func (h *Helper) Semget(key int64, nsems int, flags int) (int64, error) {
	if err := posix.CheckNsems(nsems); err != nil {
		return 0, err
	}
	return h.getKeyed(NSSysVSem, key, flags, nsems)
}

// Semop performs the sembuf operations, blocking until satisfiable unless
// IPCNoWait is set. Remote operations are RPCs to the owner, with
// ownership migrating to the most frequent acquirer (§4.2).
func (h *Helper) Semop(id int64, ops []api.SemBuf) error {
	return h.SemopIntr(id, ops, nil)
}

// SemopIntr is Semop with signal interruption; intr (may be nil) is
// closed when the guest receives an interrupting signal, and a parked
// blocking semop returns EINTR per semop(2). Race rules as MsgrcvIntr: an
// operation that completed before the cancel landed reports success.
func (h *Helper) SemopIntr(id int64, ops []api.SemBuf, intr <-chan struct{}) error {
	wait := true
	for _, op := range ops {
		if int(op.Flg)&api.IPCNoWait != 0 {
			wait = false
		}
	}
	ref := sysvRef{NSSysVSem, id}
	for attempt := 0; attempt < sysvRetries; attempt++ {
		migrationBackoff(attempt)
		owner, err := h.owner(NSSysVSem, id)
		if err != nil {
			return err
		}
		if owner == h.Addr {
			h.mu.Lock()
			s := h.sems[id]
			h.mu.Unlock()
			if s == nil {
				h.invalidate(NSSysVSem, id)
				continue
			}
			s.mu.Lock()
			s.localOps++
			s.mu.Unlock()
			ch := make(chan api.Errno, 1)
			w := s.semop(ops, wait, "", 0, func(errno api.Errno) { ch <- errno })
			var errno api.Errno
			if w == nil || intr == nil {
				errno = <-ch
			} else {
				select {
				case errno = <-ch:
				case <-intr:
					if s.cancelSem(w) {
						return api.EINTR
					}
					errno = <-ch
				}
			}
			if errno == api.EXDEV {
				h.invalidate(NSSysVSem, id)
				continue
			}
			if errno != 0 {
				return errno
			}
			return nil
		}
		// Kernel-bypass fast path: plain single-semaphore ops CAS the
		// shared value directly — zero RPCs, zero allocations. Unmodeled
		// ops and blocking parks stay on RPC.
		if sc := h.ringGet(ref, owner); sc != nil {
			if handled, errno := h.semRingOp(ref, sc, ops, wait); handled {
				if errno != 0 {
					return errno
				}
				return nil
			}
		}
		c, err := h.dial(owner)
		if err != nil {
			h.ownerLost(NSSysVSem, id)
			continue
		}
		waitFlag := int64(0)
		if wait {
			waitFlag = 1
		}
		// Same split as MsgQRecv: blocking semop parks by design; the
		// non-blocking variant is answered immediately and rides the RPC
		// deadline so a partitioned owner cannot wedge the caller.
		if wait {
			_, err = h.callIntr(c, Frame{Type: MsgSemOp, A: id, C: waitFlag, Blob: encodeSemOps(ops)}, MsgSemOpCancel, intr)
		} else {
			_, err = c.CallTimeout(Frame{Type: MsgSemOp, A: id, C: waitFlag, Blob: encodeSemOps(ops)}, rpcCallTimeout)
		}
		switch err {
		case nil:
			h.noteRemoteOp(ref, owner)
			return nil
		case api.EXDEV, api.EPIPE:
			h.invalidate(NSSysVSem, id)
		default:
			return err
		}
	}
	return api.EIDRM
}

// SemRmid destroys semaphore set id, notifying prior accessors.
func (h *Helper) SemRmid(id int64) error { return h.rmid(NSSysVSem, id) }

// DebugSysVState renders the helper's System V state for diagnostics:
// every object's shared header, then the owner cache and the leader's
// owner map for both kinds.
func (h *Helper) DebugSysVState() string {
	var b strings.Builder
	h.mu.Lock()
	defer h.mu.Unlock()
	b.WriteString("helper " + h.Addr + " shutdown=" + strconv.FormatBool(h.shutdown) + "\n")
	for _, o := range h.objectsLocked() {
		hd := o.header()
		hd.mu.Lock()
		b.WriteString("  " + kindName(hd.kind) + " " + strconv.FormatInt(hd.id, 10) +
			" key=" + strconv.FormatInt(hd.key, 10) + " epoch=" + strconv.FormatInt(hd.epoch, 10) +
			" moved=" + hd.movedTo + " migrating=" + strconv.FormatBool(hd.migrating) +
			" removed=" + strconv.FormatBool(hd.removed) + "\n")
		hd.mu.Unlock()
	}
	for kind, m := range h.ownerCache {
		for id, addr := range m {
			b.WriteString("  ownerCache " + kindName(kind) + " " + strconv.FormatInt(id, 10) + "=" + addr + "\n")
		}
	}
	if h.leader != nil {
		h.leader.mu.RLock()
		for _, kind := range []int{NSSysVMsg, NSSysVSem} {
			for id, e := range h.leader.owners[kind] {
				b.WriteString("  leader.owners " + kindName(kind) + " " + strconv.FormatInt(id, 10) + "=" +
					e.addr + " epoch=" + strconv.FormatInt(e.epoch, 10) + "\n")
			}
		}
		h.leader.mu.RUnlock()
	}
	return b.String()
}
