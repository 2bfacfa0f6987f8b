package ipc

import (
	"strconv"
	"strings"
	"sync"
	"time"

	"graphene/internal/api"
	"graphene/internal/posix"
)

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
// batch, refilling from the leader when exhausted.
func (h *Helper) allocID(kind int) (int64, error) {
	if kind != NSSysVMsg && kind != NSSysVSem {
		return 0, api.EINVAL
	}
	h.mu.Lock()
	b := h.idBatches[kind]
	if b == nil {
		b = &idBatch{}
		mapSet(&h.idBatches, kind, b)
	}
	if b.next == 0 || b.next > b.hi {
		leader := h.leader
		h.mu.Unlock()
		var lo, hi int64
		if leader != nil {
			// The leader refills from its own cursor directly and announces
			// it like any grant: a successor elected after this helper dies
			// must not mint these IDs again.
			lo, hi = leader.allocRange(kind, idBatchSize, h.Addr)
			h.broadcastNSHwm(kind, hi+1)
		} else {
			resp, err := h.callLeader(Frame{Type: MsgNSAlloc, A: int64(kind), B: idBatchSize})
			if err != nil {
				return 0, err
			}
			lo, hi = resp.A, resp.B
		}
		h.mu.Lock()
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
// kind at the key's one authority, the leader: a plain call against the
// leader's tables when this helper leads, else one MsgKeyGet round trip.
// Either way the mapping is in the leader's table before the call
// returns. A create proposes an ID from this helper's batch; a lookup
// proposes none.
func (h *Helper) sysvKey(kind int, key int64, flags int) (int64, string, error) {
	var proposed int64
	if flags&api.IPCCreat != 0 || key == api.IPCPrivate {
		var err error
		if proposed, err = h.allocID(kind); err != nil {
			return 0, "", err
		}
	}
	if leader := h.ledState(); leader != nil {
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
// The operation path (every System V operation)
// ============================================================

// sysvOp is one System V operation on the one operation path (DESIGN.md
// "SysV operation path"). typ is the request its owner serves (MsgQSend,
// MsgQRecv, MsgSemOp, or the kind's delete); mtype is a send's type or a
// receive's selector, data a send's text, ops a semop's operations. wait
// marks an op that may park at the owner; intr (nil for none) interrupts
// a parked op.
type sysvOp struct {
	kind  int
	typ   MsgType
	id    int64
	mtype int64
	data  []byte
	ops   []api.SemBuf
	wait  bool
	intr  <-chan struct{}
}

// sysvResult is an op's answer: errno, and a received message.
type sysvResult struct {
	mtype int64
	data  []byte
	errno api.Errno
}

// resultChPool recycles the channels a local wait takes its one answer
// from; a channel goes back only once that answer is consumed.
var resultChPool = sync.Pool{New: func() any { return make(chan sysvResult, 1) }}

// deletes reports whether op is an rmid.
func (op *sysvOp) deletes() bool { return op.typ == MsgQDelete || op.typ == MsgSemDelete }

// frame is op's request as the wire carries it: A the object, B the
// message type, C 1 for a parking op.
func (op *sysvOp) frame() Frame {
	f := Frame{Type: op.typ, A: op.id, B: op.mtype, Blob: op.data}
	if op.wait {
		f.C = 1
	}
	if op.typ == MsgSemOp {
		f.Blob = encodeSemOps(op.ops)
	}
	return f
}

// sysvDo drives op to its answer: resolve the owner, route the op to this
// helper's own copy, a live send ring or an RPC, and classify the outcome
// in one place. A send acknowledged by RPC counts toward a ring attach;
// a remote receive or semop never does (it is a migration vote); EXDEV
// (the object moved, is moving, or is gone from here) drops the route and
// re-resolves; EPIPE, a failed dial among them, is an owner gone; anything
// else is the op's answer. Ownership migration is asynchronous, so an op
// can race the transfer: each retry backs off first.
func (h *Helper) sysvDo(op *sysvOp) (int64, []byte, error) {
	for attempt := 0; attempt < sysvRetries; attempt++ {
		migrationBackoff(attempt)
		owner, err := h.owner(op.kind, op.id)
		if err != nil {
			if err == api.EIDRM && attempt > 0 && op.deletes() {
				// An earlier attempt's delete landed, but its reply died
				// with the owner's connection: the outcome rmid wanted.
				return 0, nil, nil
			}
			return 0, nil, err
		}
		var r sysvResult
		viaRPC := false
		if owner == h.Addr {
			r = h.sysvSelf(op)
		} else if !h.sysvRing(op, owner) {
			r, viaRPC = h.sysvRPC(op, owner), true
		}
		switch r.errno {
		case 0:
			if viaRPC && op.typ == MsgQSend {
				h.noteRemoteSend(op.id, owner)
			}
			return r.mtype, r.data, nil
		case api.EXDEV:
			h.invalidate(op.kind, op.id)
		case api.EPIPE:
			// A queue the owner persisted on exit is adopted here; else the
			// object re-resolves: a set was evicted to the leader before
			// the owner's streams closed, and another survivor may
			// have adopted a queue.
			if op.kind != NSSysVMsg || !h.adoptQueue(op.id) {
				h.invalidate(op.kind, op.id)
			}
		default:
			return 0, nil, r.errno
		}
	}
	return 0, nil, api.EIDRM
}

// sysvSelf serves op on this helper's own copy with the object call a
// remote request gets, and waits for its one answer. A parked op is tagged
// (h.Addr, cookie) like a remote waiter, and a signal cancels it the same
// way: the cancel answers it with EINTR unless its answer is already in,
// and either way that one answer is what op returns. A copy gone since
// owner looked answers EXDEV, so the op re-resolves.
func (h *Helper) sysvSelf(op *sysvOp) sysvResult {
	if op.deletes() {
		return sysvResult{errno: h.removeLocal(op.kind, op.id)}
	}
	h.mu.Lock()
	o := h.objectLocked(op.kind, op.id)
	h.mu.Unlock()
	if o == nil {
		return sysvResult{errno: api.EXDEV}
	}
	if op.typ == MsgQSend {
		return sysvResult{errno: o.(*msgQueue).send(op.mtype, op.data)}
	}
	hd := o.header()
	hd.mu.Lock()
	hd.localOps++
	hd.mu.Unlock()
	var cookie int64
	if op.intr != nil {
		cookie = h.cookies.Add(1)
	}
	ch := resultChPool.Get().(chan sysvResult)
	deliver := func(r sysvResult) { ch <- r }
	if op.typ == MsgQRecv {
		o.(*msgQueue).recv(op.mtype, op.wait, h.Addr, cookie, deliver)
	} else {
		o.(*semSet).semop(op.ops, op.wait, h.Addr, cookie, deliver)
	}
	var r sysvResult
	answered := false
	select {
	case r = <-ch: // answered inline, without parking: no wait to interrupt
		answered = true
	default:
	}
	for intr := op.intr; !answered; {
		select {
		case r = <-ch:
			answered = true
		case <-intr:
			intr = nil
			hd.cancel(h.Addr, cookie)
		}
	}
	resultChPool.Put(ch)
	return r
}

// sysvRPC sends op to its owner and returns the answer. An op that may
// park is interruptible: intr withdraws it through the kind's cancel
// frame. A failed dial or a dead connection is EPIPE, except for rmid,
// whose owner's death leaves only what survives it to drop: a persisted
// queue and the leader mapping.
func (h *Helper) sysvRPC(op *sysvOp, owner string) sysvResult {
	c, err := h.dial(owner)
	if err != nil {
		if op.deletes() {
			if op.kind == NSSysVMsg {
				_ = h.pal.DkStreamDelete("file:" + persistPath(op.id))
			}
			_, _ = h.callLeader(Frame{Type: MsgKeyRemove, A: int64(op.kind), B: op.id})
			return sysvResult{}
		}
		return sysvResult{errno: api.EPIPE}
	}
	f := op.frame()
	var resp Frame
	switch {
	case op.wait:
		cancel := MsgQRecvCancel
		if op.typ == MsgSemOp {
			cancel = MsgSemOpCancel
		}
		if op.intr != nil {
			f.D = h.cookies.Add(1)
		}
		resp, err = c.call(f, op.intr, cancel)
	default:
		resp, err = c.Call(f)
	}
	return sysvResult{resp.B, resp.Blob, api.ToErrno(err)}
}

// ============================================================
// Message queues (client side)
// ============================================================

// Msgget maps a System V key to a queue ID, creating the queue locally
// when this helper wins the creation race (§4.2).
func (h *Helper) Msgget(key int64, flags int) (int64, error) {
	return h.getKeyed(NSSysVMsg, key, flags, 0)
}

// Msgsnd appends a message to queue id. A remote send rides the owner's
// send ring while this helper holds a live attachment, else it is one
// acknowledged RPC (DESIGN.md "SysV operation path"): a send is reported
// sent only once the live queue holds it or the ring carries it, and a
// send to a removed queue answers EIDRM.
func (h *Helper) Msgsnd(id int64, mtype int64, data []byte, flags int) error {
	if mtype <= 0 {
		return api.EINVAL
	}
	_, _, err := h.sysvDo(&sysvOp{kind: NSSysVMsg, typ: MsgQSend, id: id, mtype: mtype, data: data})
	return err
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
	return h.sysvDo(&sysvOp{kind: NSSysVMsg, typ: MsgQRecv, id: id, mtype: mtype, wait: flags&api.IPCNoWait == 0, intr: intr})
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
	h.ringDrop(id)
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
	op := sysvOp{kind: NSSysVSem, typ: MsgSemOp, id: id, ops: ops, wait: true, intr: intr}
	for _, o := range ops {
		if int(o.Flg)&api.IPCNoWait != 0 {
			op.wait = false
		}
	}
	_, _, err := h.sysvDo(&op)
	return err
}

// SemRmid destroys semaphore set id, notifying prior accessors.
func (h *Helper) SemRmid(id int64) error { return h.rmid(NSSysVSem, id) }

// DebugSysVState renders the helper's System V state for diagnostics:
// every object's shared header, then the owner cache and, when this helper
// leads, the leader's owner map for both kinds.
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
	if l := h.leader; l != nil {
		l.mu.RLock()
		for _, kind := range []int{NSSysVMsg, NSSysVSem} {
			for id, e := range l.owners[kind] {
				b.WriteString("  leader.owners " + kindName(kind) + " " + strconv.FormatInt(id, 10) + "=" +
					e.addr + " epoch=" + strconv.FormatInt(e.epoch, 10) + "\n")
			}
		}
		l.mu.RUnlock()
	}
	return b.String()
}
