package ipc

import (
	"fmt"
	"sync/atomic"
	"time"

	"graphene/internal/api"
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
			// The shard leader refills from its own range table directly.
			lo, hi = leader.allocRange(kind, idBatchSize, h.Addr)
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
// kind. The fast path serves the request entirely from a held block lease
// (no leader traffic); otherwise one leader round trip resolves the key,
// grants a block lease on create, or redirects to the authoritative lease
// holder.
func (h *Helper) sysvKey(kind int, key int64, flags int) (int64, string, error) {
	if key != api.IPCPrivate && keyLeasesOn.Load() && h.leaseCount.Load() != 0 {
		if id, owner, handled, err := h.keyFromLease(kind, key, flags); handled {
			return id, owner, err
		}
	}
	// One trace spans the whole key resolution: the leader round trip and
	// any lease-holder redirect hop render as siblings under this root.
	trace, root := traceRoot()
	ks := h.sysvShardOf(kind, key)
	h.mu.Lock()
	leader := h.groups[ks].leader
	h.mu.Unlock()
	if leader != nil {
		// The leader resolves against its own authoritative tables with
		// plain calls — no dispatch machinery, and no lease either: a
		// lease only removes round trips, and the leader has none
		// (taking one would just add cache bookkeeping on top of the
		// same keys/owners writes). A zero proposed ID lets keyResolve
		// draw one under its own lock, skipping the batch-allocation
		// step entirely.
		for attempt := 0; attempt < sysvRetries; attempt++ {
			migrationBackoff(attempt)
			r, errno := leader.keyResolve(kind, key, flags, 0, h.Addr, false)
			if errno != 0 {
				return 0, "", errno
			}
			if r.indirect == "" {
				return r.id, r.owner, nil
			}
			if r.indirect == h.Addr {
				// The lease table points at us but the helper-side lease is
				// gone (checked before we got here): drop it and resolve
				// from the leader tables.
				leader.releaseLease(kind, keyBlock(key))
				continue
			}
			proposed, err := h.allocID(kind, ks)
			if err != nil {
				return 0, "", err
			}
			id, owner, err := h.keyFromHolder(kind, key, flags, proposed, r.indirect, trace, root)
			if err == errHolderGone {
				continue
			}
			return id, owner, err
		}
		return 0, "", api.EIDRM
	}
	proposed, err := h.allocID(kind, ks)
	if err != nil {
		return 0, "", err
	}
	reqFlags := int64(flags)
	if keyLeasesOn.Load() {
		reqFlags |= keyLeaseRequest
	}
	for attempt := 0; attempt < sysvRetries; attempt++ {
		migrationBackoff(attempt)
		resp, err := h.callLeader(Frame{Type: MsgKeyGet, A: int64(kind), B: key, C: reqFlags, D: proposed, Trace: trace, Span: root})
		if err != nil {
			return 0, "", err
		}
		switch resp.B {
		case keyRespLeased:
			// The grant carries the block's keys already registered at the
			// leader; our cache becomes authoritative for the whole block,
			// so it must hold them before we answer any lookup locally. If
			// the seed is undecodable, hand the lease straight back rather
			// than serve the block from an incomplete cache.
			seed, serr := decodeKeySeed(resp.Blob)
			if serr != nil {
				_, _ = h.callLeader(Frame{Type: MsgKeyEvict, A: int64(kind), B: resp.C})
				return resp.A, resp.S, nil
			}
			h.mu.Lock()
			kindSet(&h.keyLeases, kind, resp.C, struct{}{})
			for _, se := range seed {
				kindSet(&h.keyCache, kind, se.key, keyEntry{id: se.id, owner: se.owner})
			}
			kindSet(&h.keyCache, kind, key, keyEntry{id: resp.A, owner: resp.S})
			h.mu.Unlock()
			h.leaseCount.Add(1)
			return resp.A, resp.S, nil
		case keyRespIndirect:
			// The block is leased to another helper whose local cache is
			// authoritative (it may hold keys it has not yet registered at
			// the leader); ask it directly.
			id, owner, err := h.keyFromHolder(kind, key, flags, proposed, resp.S, trace, root)
			if err == errHolderGone {
				continue
			}
			return id, owner, err
		default:
			return resp.A, resp.S, nil
		}
	}
	return 0, "", api.EIDRM
}

// errHolderGone reports that a lease holder could not answer (dead, or it
// released the lease); the caller re-resolves at the leader.
var errHolderGone = fmt.Errorf("ipc: lease holder unreachable")

// keyFromHolder asks the block's lease holder to resolve (or create on
// our behalf) a key the leader redirected us to. trace/root tie the hop
// into the originating operation's trace tree.
func (h *Helper) keyFromHolder(kind int, key int64, flags int, proposed int64, holder string, trace, root uint64) (int64, string, error) {
	c, derr := h.dial(holder)
	if derr != nil {
		// The holder died; release its lease on its behalf so the leader
		// answers from its own (flushed) table next time.
		_, _ = h.callLeader(Frame{Type: MsgKeyEvict, A: int64(kind), B: keyBlock(key)})
		return 0, "", errHolderGone
	}
	// Deadline-bounded: a lease holder stranded behind a partition would
	// otherwise hang every lookup of its block forever. ETIMEDOUT surfaces
	// to the caller (default branch) rather than evicting the lease — the
	// holder is not provably dead, and stealing its block would mint a
	// second live ID for any key it already created.
	hf := Frame{Type: MsgKeyGet, A: int64(kind), B: key, C: int64(flags), D: proposed, Trace: trace, Span: root}
	start, parent := h.beginSpan(&hf)
	r2, cerr := c.CallTimeout(hf, rpcCallTimeout)
	h.endSpan(&hf, start, parent, cerr)
	switch cerr {
	case nil:
		return r2.A, r2.S, nil
	case api.EXDEV:
		// The holder released the lease between the leader's answer and
		// our call; the leader is authoritative again.
		return 0, "", errHolderGone
	case api.EPIPE:
		_, _ = h.callLeader(Frame{Type: MsgKeyEvict, A: int64(kind), B: keyBlock(key)})
		return 0, "", errHolderGone
	default:
		return 0, "", cerr
	}
}

// keyFromLease serves a key lookup/create from a locally held block
// lease. handled=false means the key's block is not leased here and the
// caller must go through the leader.
func (h *Helper) keyFromLease(kind int, key int64, flags int) (id int64, owner string, handled bool, err error) {
	block := keyBlock(key)
	h.mu.Lock()
	if _, held := h.keyLeases[kind][block]; !held {
		h.mu.Unlock()
		return 0, "", false, nil
	}
	if e, ok := h.keyCache[kind][key]; ok {
		h.mu.Unlock()
		if flags&api.IPCCreat != 0 && flags&api.IPCExcl != 0 {
			return 0, "", true, api.EEXIST
		}
		return e.id, e.owner, true, nil
	}
	h.mu.Unlock()
	if flags&api.IPCCreat == 0 {
		return 0, "", true, api.ENOENT
	}
	proposed, aerr := h.allocID(kind, h.sysvShardOf(kind, key))
	if aerr != nil {
		return 0, "", true, aerr
	}
	h.mu.Lock()
	// Re-check under the lock: the lease may have been flushed, or a
	// racing create may have landed (its entry wins; our ID is wasted,
	// which batched allocation makes harmless).
	if _, held := h.keyLeases[kind][block]; !held {
		h.mu.Unlock()
		return 0, "", false, nil
	}
	if e, ok := h.keyCache[kind][key]; ok {
		h.mu.Unlock()
		if flags&api.IPCExcl != 0 {
			return 0, "", true, api.EEXIST
		}
		return e.id, e.owner, true, nil
	}
	kindSet(&h.keyCache, kind, key, keyEntry{id: proposed, owner: h.Addr})
	h.mu.Unlock()
	// Register lazily so later by-ID owner queries and post-exit lookups
	// resolve at the leader; the create itself stays round-trip free.
	h.registerKeyLazily(kind, key, proposed, h.Addr)
	return proposed, h.Addr, true, nil
}

// registerKeyLazily records a lease-created mapping at the leader:
// directly (plain map writes) when this helper is the leader itself,
// asynchronously over RPC otherwise.
func (h *Helper) registerKeyLazily(kind int, key, id int64, owner string) {
	h.mu.Lock()
	if leader := h.groups[h.sysvShardOf(kind, key)].leader; leader != nil {
		// The leader's registration is a pair of plain map writes; do
		// it synchronously (this path only runs for creates the leader
		// performs on a requester's behalf under a recovered lease).
		h.mu.Unlock()
		leader.registerKey(kind, key, id, owner)
		return
	}
	// Members queue the registration for a single background drainer,
	// instead of one goroutine + leader round trip per create: a burst
	// of creates under a lease costs the leader a trickle of registers
	// instead of a storm.
	h.pendingRegs = append(h.pendingRegs, pendingReg{kind: kind, key: key, id: id, owner: owner})
	if h.regFlushing {
		h.mu.Unlock()
		return
	}
	h.regFlushing = true
	h.mu.Unlock()
	go h.drainPendingRegs()
}

// takeLiveRegsLocked claims the queued registrations, dropping entries
// whose cached mapping is gone (the object was removed before the lazy
// registration landed — registering it would resurrect a dead key).
// Caller holds h.mu.
func (h *Helper) takeLiveRegsLocked() []pendingReg {
	batch := h.pendingRegs
	h.pendingRegs = nil
	live := batch[:0]
	for _, r := range batch {
		if e, ok := h.keyCache[r.kind][r.key]; ok && e.id == r.id {
			live = append(live, r)
		}
	}
	return live
}

// drainPendingRegs sends queued lazy registrations to the leader until the
// queue is empty, then exits. At most one instance runs per helper.
func (h *Helper) drainPendingRegs() {
	for {
		h.mu.Lock()
		if len(h.pendingRegs) == 0 {
			h.regFlushing = false
			h.mu.Unlock()
			return
		}
		batch := h.takeLiveRegsLocked()
		h.mu.Unlock()
		for _, r := range batch {
			_, _ = h.callLeader(Frame{Type: MsgKeyRegister, A: int64(r.kind), B: r.key, C: r.id, S: r.owner})
		}
	}
}

// pendingReg is a queued lazy key registration (see registerKeyLazily).
type pendingReg struct {
	kind    int
	key, id int64
	owner   string
}

// dropKeyCache forgets cached key mappings pointing at a removed object,
// including registrations still queued for the lazy flusher (a register
// that has already left for the leader is neutralized there by the
// removed-ID tombstone).
func (h *Helper) dropKeyCache(kind int, id int64) {
	h.mu.Lock()
	for key, e := range h.keyCache[kind] {
		if e.id == id {
			delete(h.keyCache[kind], key)
		}
	}
	live := h.pendingRegs[:0]
	for _, r := range h.pendingRegs {
		if r.kind == kind && r.id == id {
			continue
		}
		live = append(live, r)
	}
	h.pendingRegs = live
	h.mu.Unlock()
}

// dropRevokedLeases surrenders key-block leases the new leader refused to
// honor in our recover-state report: the block was (re)granted to another
// helper while we were unreachable, so our copy lost. Cached mappings and
// queued lazy registrations under the block go with it — they carry the
// dead lease's authority, and flushing them later would fight the block's
// real holder. Local objects stay reachable by ID; a deposed leader's
// reconcile pass re-registers the survivors through the normal
// first-writer-wins key path.
func (h *Helper) dropRevokedLeases(ls []recoverLease) {
	if len(ls) == 0 {
		return
	}
	h.mu.Lock()
	for _, le := range ls {
		m := h.keyLeases[le.Kind]
		if m == nil {
			continue
		}
		if _, held := m[le.Block]; !held {
			continue
		}
		delete(m, le.Block)
		h.leaseCount.Add(-1)
		statLeaseRevoked.Add(1)
		for key := range h.keyCache[le.Kind] {
			if keyBlock(key) == le.Block {
				delete(h.keyCache[le.Kind], key)
			}
		}
		live := h.pendingRegs[:0]
		for _, r := range h.pendingRegs {
			if r.kind == le.Kind && keyBlock(r.key) == le.Block {
				continue
			}
			live = append(live, r)
		}
		h.pendingRegs = live
	}
	h.mu.Unlock()
}

// flushKeyLeases registers every locally cached key mapping at the leader
// and returns the held blocks, so the sandbox keeps resolving these keys
// after this helper exits. Runs on shutdown; helpers that never created
// clustered keys hold no leases and skip the round trips entirely.
func (h *Helper) flushKeyLeases() {
	type flushKey struct {
		kind    int
		key, id int64
		owner   string
	}
	type flushBlock struct {
		kind  int
		block int64
	}
	var entries []flushKey
	var blocks []flushBlock
	h.mu.Lock()
	// The synchronous cache flush below supersedes any queued lazy
	// registrations (the cache holds every mapping the queue does).
	h.pendingRegs = nil
	for kind, m := range h.keyCache {
		for key, e := range m {
			entries = append(entries, flushKey{kind: kind, key: key, id: e.id, owner: e.owner})
		}
	}
	for kind, m := range h.keyLeases {
		for b := range m {
			blocks = append(blocks, flushBlock{kind: kind, block: b})
		}
	}
	h.keyCache, h.keyLeases = nil, nil
	h.leaseCount.Store(0)
	h.mu.Unlock()
	for _, e := range entries {
		_, _ = h.callLeader(Frame{Type: MsgKeyRegister, A: int64(e.kind), B: e.key, C: e.id, S: e.owner})
	}
	for _, b := range blocks {
		_, _ = h.callLeader(Frame{Type: MsgKeyEvict, A: int64(b.kind), B: b.block})
	}
}

// ============================================================
// Message queues (client side)
// ============================================================

// Msgget maps a System V key to a queue ID, creating the queue locally
// when this helper wins the creation race (§4.2).
func (h *Helper) Msgget(key int64, flags int) (int64, error) {
	id, owner, err := h.sysvKey(NSSysVMsg, key, flags)
	if err != nil {
		return 0, err
	}
	h.mu.Lock()
	if owner == h.Addr {
		// qOwner finds local queues before consulting the cache, so a
		// self entry would only add an insert to the create fast path.
		if h.queues[id] == nil {
			q := newMsgQueue(id, key)
			q.epoch = 1
			mapSet(&h.queues, id, q)
		}
	} else {
		mapSet(&h.qOwnerCache, id, owner)
	}
	h.mu.Unlock()
	return id, nil
}

// qOwner resolves the owner address of queue id, using the cache first.
func (h *Helper) qOwner(id int64) (string, error) {
	h.mu.Lock()
	if q := h.queues[id]; q != nil {
		h.mu.Unlock()
		q.mu.Lock()
		moved := q.movedTo
		q.mu.Unlock()
		if moved == "" {
			return h.Addr, nil
		}
		// A local tombstone only records where WE sent the queue; it may
		// have moved again since. Fall through to the cache/leader, which
		// track the current owner — following a stale tombstone forever
		// would loop on EXDEV.
	} else {
		h.mu.Unlock()
	}
	h.mu.Lock()
	if o, ok := h.qOwnerCache[id]; ok {
		h.mu.Unlock()
		return o, nil
	}
	h.mu.Unlock()
	resp, err := h.callLeader(Frame{Type: MsgKeyOwner, A: NSSysVMsg, B: id})
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	mapSet(&h.qOwnerCache, id, resp.S)
	h.mu.Unlock()
	return resp.S, nil
}

// Msgsnd appends a message to queue id. Remote sends are asynchronous: the
// sender assumes success once the queue's existence and location are known
// (§4.3, "Make RPCs asynchronous whenever possible"). A message racing a
// queue deletion is dropped, as in the paper.
func (h *Helper) Msgsnd(id int64, mtype int64, data []byte, flags int) error {
	if mtype <= 0 {
		return api.EINVAL
	}
	for attempt := 0; attempt < sysvRetries; attempt++ {
		migrationBackoff(attempt)
		owner, err := h.qOwner(id)
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
				h.invalidateQ(id)
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
		syncFallback := false
		if rc := h.qRingGet(id, owner); rc != nil {
			if h.qRingSend(rc, mtype, data) {
				return nil
			}
			if rc.send.Revoked() {
				h.qRingDrop(id)
			} else {
				syncFallback = true
			}
		}
		c, err := h.dial(owner)
		if err != nil {
			// Owner died: adopt the persisted queue if it exists, else
			// re-resolve (another survivor may have adopted it).
			if !h.adoptQueue(id) {
				h.invalidateQ(id)
			}
			continue
		}
		if syncFallback {
			_, err := c.CallTimeout(Frame{Type: MsgQSend, A: id, B: mtype, Blob: data}, rpcCallTimeout)
			switch err {
			case nil:
				return nil
			case api.EXDEV:
				h.invalidateQ(id)
				continue
			case api.EPIPE:
				if !h.adoptQueue(id) {
					h.invalidateQ(id)
				}
				continue
			default:
				return err
			}
		}
		if err := c.Notify(Frame{Type: MsgQSend, A: id, B: mtype, C: 1, Blob: data}); err != nil {
			h.invalidateQ(id)
			continue
		}
		h.noteRemoteQOp(id, owner)
		return nil
	}
	return api.EIDRM
}

// MsgsndSync is the synchronous variant (waits for the owner's ack). Kept
// for the ablation benchmark comparing sync vs async remote send.
func (h *Helper) MsgsndSync(id int64, mtype int64, data []byte) error {
	if mtype <= 0 {
		return api.EINVAL
	}
	for attempt := 0; attempt < sysvRetries; attempt++ {
		migrationBackoff(attempt)
		owner, err := h.qOwner(id)
		if err != nil {
			return err
		}
		if owner == h.Addr {
			return h.Msgsnd(id, mtype, data, 0)
		}
		c, err := h.dial(owner)
		if err != nil {
			if !h.adoptQueue(id) {
				h.invalidateQ(id)
			}
			continue
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
			h.invalidateQ(id)
		case api.EPIPE:
			if !h.adoptQueue(id) {
				h.invalidateQ(id)
			}
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
	for attempt := 0; attempt < sysvRetries; attempt++ {
		migrationBackoff(attempt)
		owner, err := h.qOwner(id)
		if err != nil {
			return 0, nil, err
		}
		if owner == h.Addr {
			h.mu.Lock()
			q := h.queues[id]
			h.mu.Unlock()
			if q == nil {
				h.invalidateQ(id)
				continue
			}
			q.mu.Lock()
			q.localRecvs++
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
				h.invalidateQ(id)
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
			if rc := h.qRingGet(id, owner); rc != nil {
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
			if !h.adoptQueue(id) {
				h.invalidateQ(id)
			}
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
			h.noteRemoteQOp(id, owner)
			return resp.B, resp.Blob, nil
		case api.EXDEV:
			h.invalidateQ(id)
		case api.EPIPE:
			if !h.adoptQueue(id) {
				h.invalidateQ(id)
			}
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

// MsgRmid destroys queue id, notifying prior accessors (§4.2). A dead
// owner (dial failure or a cached connection that dies mid-call) degrades
// to removing the persisted copy and the leader mapping.
func (h *Helper) MsgRmid(id int64) error {
	for attempt := 0; attempt < sysvRetries; attempt++ {
		migrationBackoff(attempt)
		owner, err := h.qOwner(id)
		if err != nil {
			if err == api.EIDRM && attempt > 0 {
				// Lost-reply idempotency, as in SemRmid: a prior attempt
				// deleted the queue but the reply died with the owner.
				return nil
			}
			return err
		}
		if owner == h.Addr {
			if h.removeLocalQueue(id) == api.EXDEV {
				h.invalidateQ(id) // migrated under us; chase the live copy
				continue
			}
			return nil
		}
		c, err := h.dial(owner)
		if err != nil {
			// Owner died; drop any persisted copy and the leader mapping.
			_ = h.pal.DkStreamDelete("file:" + persistPath(id))
			_, _ = h.callLeader(Frame{Type: MsgKeyRemove, A: NSSysVMsg, B: id})
			return nil
		}
		_, err = c.CallTimeout(Frame{Type: MsgQDelete, A: id}, rpcCallTimeout)
		switch err {
		case nil:
			return nil
		case api.EPIPE, api.EXDEV:
			// The connection died under us or the queue moved; re-resolve.
			h.invalidateQ(id)
		default:
			return err
		}
	}
	return api.EIDRM
}

// removeLocalQueue destroys the locally owned queue; EXDEV (touching
// nothing) when the queue has migrated away — a stale-owner rmid must
// chase the live copy, not tombstone its key mapping out from under the
// current owner.
func (h *Helper) removeLocalQueue(id int64) api.Errno {
	h.mu.Lock()
	q := h.queues[id]
	h.mu.Unlock()
	if q != nil {
		q.mu.Lock()
		moved := q.movedTo
		q.mu.Unlock()
		if moved != "" {
			return api.EXDEV
		}
	}
	h.dropKeyCache(NSSysVMsg, id)
	h.mu.Lock()
	delete(h.queues, id)
	delete(h.qOwnerCache, id)
	h.mu.Unlock()
	if q == nil {
		return 0
	}
	accessors := q.remove()
	h.bgGo(func() {
		for _, addr := range accessors {
			if addr == h.Addr {
				continue
			}
			if c, err := h.dial(addr); err == nil {
				_ = c.Notify(Frame{Type: MsgQDeleted, A: id})
			}
		}
	})
	// The authoritative-shard tombstone is synchronous: once Rmid returns,
	// no other picoprocess can resolve the key to the dead ID (an async
	// notify left a window where a concurrent create handed out the stale
	// mapping). Accessor notifications above stay best-effort async.
	_, _ = h.callLeader(Frame{Type: MsgKeyRemove, A: NSSysVMsg, B: id})
	return 0
}

func (h *Helper) invalidateQ(id int64) {
	h.mu.Lock()
	delete(h.qOwnerCache, id)
	h.mu.Unlock()
	// Ownership is moving: any ring granted by the old owner is dead (its
	// collapse rides the migration's critical section).
	h.qRingDrop(id)
}

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
	key, msgs, err := decodeMessages(blob)
	if err != nil {
		return false
	}
	q := newMsgQueue(id, key)
	q.msgs = msgs
	h.mu.Lock()
	mapSet(&h.queues, id, q)
	mapSet(&h.qOwnerCache, id, h.Addr)
	h.mu.Unlock()
	// An owner sends locally: the attachment to the dead owner's ring, if a
	// fallback send got here without noticing the revocation, is stale.
	h.qRingDrop(id)
	_, _ = h.callLeader(Frame{Type: MsgKeyChown, A: NSSysVMsg, B: id, S: h.Addr})
	return true
}

// migrateQueue transfers ownership of queue id to consumer addr (§4.3,
// "migrating message queues to the consumer"). Runs outside the RPC
// handler to respect the no-recursive-RPC rule.
func (h *Helper) migrateQueue(id int64, to string) {
	h.mu.Lock()
	q := h.queues[id]
	h.mu.Unlock()
	if q == nil || to == h.Addr {
		return
	}
	q.mu.Lock()
	if q.removed || q.movedTo != "" || q.migrating {
		q.mu.Unlock()
		return
	}
	q.migrating = true
	// Fold the kernel-bypass rings back under the same critical section
	// that snapshots the blob: the attach/detach protocol rides the
	// migration epoch, and a client push sealed out here re-routes to RPC
	// and surfaces as EXDEV → retry against the new owner.
	q.collapseRingsLocked()
	blob := encodeMessages(q.key, q.msgs)
	nextEpoch := q.epoch + 1
	q.msgs = nil
	waiters := q.waiters
	q.waiters = nil
	q.mu.Unlock()
	// Parked receivers retry against the new owner.
	for _, w := range waiters {
		w.deliver(0, nil, api.EXDEV)
	}
	abort := func() {
		// The receiver certainly did not install (it refused, or was never
		// reached): resume ownership with the serialized contents.
		key, msgs, err := decodeMessages(blob)
		q.mu.Lock()
		if err == nil {
			_ = key
			q.msgs = append(msgs, q.msgs...)
		}
		q.migrating = false
		q.mu.Unlock()
	}
	commit := func(owner string) {
		q.mu.Lock()
		q.movedTo = owner
		q.migrating = false
		q.mu.Unlock()
		_, _ = h.callLeader(Frame{Type: MsgKeyChown, A: NSSysVMsg, B: id, S: owner, D: nextEpoch})
		h.mu.Lock()
		mapSet(&h.qOwnerCache, id, owner)
		h.mu.Unlock()
	}
	// uncertain handles a handoff whose outcome is unknown (the connection
	// died mid-call, so the receiver may or may not have installed — and if
	// it did, it is dying and will evict the copy). Resurrecting our copy
	// could split ownership; instead forward ours to the sandbox leader,
	// which is where a dying receiver's eviction converges too.
	uncertain := func() {
		os := shardOfID(id, h.shards)
		if h.leadsShard(os) {
			abort() // we are the convergence point; keep the copy
			return
		}
		// callLeader rides through a concurrent leader failover and mints
		// a ReqID, so a replayed handoff cannot double-install the queue.
		// It routes by the queue's ID, so the convergence point is the
		// shard leader authoritative for this object.
		if _, err := h.callLeader(Frame{Type: MsgQMigrate, A: id, Blob: blob, D: nextEpoch}); err == nil {
			if owner := h.shardLeaderAddr(os); owner != "" && owner != h.Addr {
				commit(owner)
				return
			}
		}
		abort()
	}
	c, err := h.dial(to)
	if err != nil {
		abort()
		return
	}
	if _, err := c.CallTimeout(Frame{Type: MsgQMigrate, A: id, Blob: blob, D: nextEpoch}, rpcCallTimeout); err != nil {
		if err == api.EPERM {
			abort() // receiver explicitly refused: it has no copy
		} else {
			uncertain()
		}
		return
	}
	commit(to)
}

// ============================================================
// Semaphores (client side)
// ============================================================

// Semget maps a key to a semaphore set ID, creating locally on first use.
func (h *Helper) Semget(key int64, nsems int, flags int) (int64, error) {
	if nsems <= 0 || nsems > 250 {
		return 0, api.EINVAL
	}
	id, owner, err := h.sysvKey(NSSysVSem, key, flags)
	if err != nil {
		return 0, err
	}
	h.mu.Lock()
	if owner == h.Addr {
		// semOwnerOf finds local sets before the cache; see Msgget.
		if h.sems[id] == nil {
			s := newSemSet(id, key, nsems)
			s.epoch = 1
			mapSet(&h.sems, id, s)
		}
	} else {
		mapSet(&h.semOwner, id, owner)
	}
	h.mu.Unlock()
	return id, nil
}

func (h *Helper) semOwnerOf(id int64) (string, error) {
	h.mu.Lock()
	if s := h.sems[id]; s != nil {
		h.mu.Unlock()
		s.mu.Lock()
		moved := s.movedTo
		s.mu.Unlock()
		if moved == "" {
			return h.Addr, nil
		}
		// Stale-tombstone rule: see qOwner.
	} else {
		h.mu.Unlock()
	}
	h.mu.Lock()
	if o, ok := h.semOwner[id]; ok {
		h.mu.Unlock()
		return o, nil
	}
	h.mu.Unlock()
	resp, err := h.callLeader(Frame{Type: MsgKeyOwner, A: NSSysVSem, B: id})
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	mapSet(&h.semOwner, id, resp.S)
	h.mu.Unlock()
	return resp.S, nil
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
	for attempt := 0; attempt < sysvRetries; attempt++ {
		migrationBackoff(attempt)
		owner, err := h.semOwnerOf(id)
		if err != nil {
			return err
		}
		if owner == h.Addr {
			h.mu.Lock()
			s := h.sems[id]
			h.mu.Unlock()
			if s == nil {
				h.invalidateSem(id)
				continue
			}
			s.mu.Lock()
			s.localAcqs++
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
				h.invalidateSem(id)
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
		if sc := h.semRingGet(id, owner); sc != nil {
			if handled, errno := h.semRingOp(id, sc, ops, wait); handled {
				if errno != 0 {
					return errno
				}
				return nil
			}
		}
		c, err := h.dial(owner)
		if err != nil {
			// Owner unreachable (likely exited after migrating the set to
			// the leader): re-resolve and retry.
			h.invalidateSem(id)
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
			h.noteRemoteSemOp(id, owner)
			return nil
		case api.EXDEV, api.EPIPE:
			h.invalidateSem(id)
		default:
			return err
		}
	}
	return api.EIDRM
}

// SemRmid destroys semaphore set id. Same shape as MsgRmid: a cached
// connection dying mid-call (the owner exiting right after eviction
// migrated the set away) re-resolves ownership and retries instead of
// surfacing EPIPE to the guest — the set usually lands at the sandbox
// leader, where the retry deletes it.
func (h *Helper) SemRmid(id int64) error {
	for attempt := 0; attempt < sysvRetries; attempt++ {
		migrationBackoff(attempt)
		owner, err := h.semOwnerOf(id)
		if err != nil {
			if err == api.EIDRM && attempt > 0 {
				// A previous attempt's delete landed but its reply was
				// lost with the dying connection; the id being gone IS
				// the outcome rmid wanted.
				return nil
			}
			return err
		}
		if owner == h.Addr {
			if h.removeLocalSem(id) == api.EXDEV {
				h.invalidateSem(id) // migrated under us; chase the live copy
				continue
			}
			return nil
		}
		c, err := h.dial(owner)
		if err != nil {
			// Owner fully gone; drop the leader mapping (eviction-on-exit
			// migrates live sets before the streams close, so reaching
			// here means there is no surviving copy to delete).
			_, _ = h.callLeader(Frame{Type: MsgKeyRemove, A: NSSysVSem, B: id})
			return nil
		}
		_, err = c.CallTimeout(Frame{Type: MsgSemDelete, A: id}, rpcCallTimeout)
		switch err {
		case nil:
			return nil
		case api.EPIPE, api.EXDEV:
			h.invalidateSem(id)
		default:
			return err
		}
	}
	return api.EIDRM
}

// removeLocalSem destroys the locally owned set; EXDEV (touching
// nothing) when the set has migrated away, mirroring removeLocalQueue.
func (h *Helper) removeLocalSem(id int64) api.Errno {
	h.mu.Lock()
	s := h.sems[id]
	h.mu.Unlock()
	if s != nil {
		s.mu.Lock()
		moved := s.movedTo
		s.mu.Unlock()
		if moved != "" {
			return api.EXDEV
		}
	}
	h.dropKeyCache(NSSysVSem, id)
	h.mu.Lock()
	delete(h.sems, id)
	delete(h.semOwner, id)
	h.mu.Unlock()
	if s == nil {
		return 0
	}
	accessors := s.remove()
	h.bgGo(func() {
		for _, addr := range accessors {
			if addr == h.Addr {
				continue
			}
			if c, err := h.dial(addr); err == nil {
				_ = c.Notify(Frame{Type: MsgQDeleted, A: id, B: 1})
			}
		}
	})
	// Synchronous for the same reason as removeLocalQueue: the key must
	// not resolve to the dead ID after Rmid returns.
	_, _ = h.callLeader(Frame{Type: MsgKeyRemove, A: NSSysVSem, B: id})
	return 0
}

func (h *Helper) invalidateSem(id int64) {
	h.mu.Lock()
	delete(h.semOwner, id)
	h.mu.Unlock()
	h.semRingDrop(id) // see invalidateQ
}

// migrateSem transfers ownership of semaphore set id to addr (§4.2,
// "migrate ownership to picoprocess most frequently acquiring").
func (h *Helper) migrateSem(id int64, to string) {
	h.mu.Lock()
	s := h.sems[id]
	h.mu.Unlock()
	if s == nil || to == h.Addr {
		return
	}
	s.mu.Lock()
	if s.removed || s.movedTo != "" || s.migrating {
		s.mu.Unlock()
		return
	}
	// Quiesce rather than defer: a permanently parked blocking waiter
	// (e.g. a receiver whose permit never arrives locally) would otherwise
	// starve the migration forever. Bounced waiters re-issue against the
	// new owner via the client-side EXDEV retry loop, exactly like queue
	// receivers in migrateQueue.
	s.migrating = true
	// Seal the kernel-bypass segment back into vals before the snapshot;
	// see migrateQueue. Waiters satisfiable by the sealed value are
	// delivered here, the rest are bounced below.
	s.reclaimSegLocked()
	blob := encodeSemState(s.key, s.vals)
	nextEpoch := s.epoch + 1
	waiters := s.waiters
	s.waiters = nil
	s.mu.Unlock()
	for _, w := range waiters {
		w.deliver(api.EXDEV)
	}
	abort := func() {
		s.mu.Lock()
		s.migrating = false
		s.mu.Unlock()
	}
	commit := func(owner string) {
		s.mu.Lock()
		s.movedTo = owner
		s.migrating = false
		s.mu.Unlock()
		_, _ = h.callLeader(Frame{Type: MsgKeyChown, A: NSSysVSem, B: id, S: owner, D: nextEpoch})
		h.mu.Lock()
		mapSet(&h.semOwner, id, owner)
		h.mu.Unlock()
	}
	// uncertain: see migrateQueue — never resurrect a copy the receiver
	// might also hold; converge on the leader instead.
	uncertain := func() {
		os := shardOfID(id, h.shards)
		if h.leadsShard(os) {
			abort()
			return
		}
		// As in migrateQueue: failover-aware, replay-deduplicated, and
		// routed to the object's authoritative shard leader.
		if _, err := h.callLeader(Frame{Type: MsgSemMigrate, A: id, Blob: blob, D: nextEpoch}); err == nil {
			if owner := h.shardLeaderAddr(os); owner != "" && owner != h.Addr {
				commit(owner)
				return
			}
		}
		abort()
	}
	c, err := h.dial(to)
	if err != nil {
		abort()
		return
	}
	if _, err := c.CallTimeout(Frame{Type: MsgSemMigrate, A: id, Blob: blob, D: nextEpoch}, rpcCallTimeout); err != nil {
		if err == api.EPERM {
			abort()
		} else {
			uncertain()
		}
		return
	}
	commit(to)
}

// DebugSysVState renders the helper's System V state for diagnostics.
func (h *Helper) DebugSysVState() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := "helper " + h.Addr + " shutdown=" + boolStr(h.shutdown) + "\n"
	for id, s := range h.sems {
		s.mu.Lock()
		out += "  sem " + itoaDbg(id) + " vals=" + fmt.Sprint(s.vals) +
			" waiters=" + itoaDbg(int64(len(s.waiters))) +
			" moved=" + s.movedTo + " migrating=" + boolStr(s.migrating) +
			" removed=" + boolStr(s.removed) + "\n"
		s.mu.Unlock()
	}
	for id, q := range h.queues {
		q.mu.Lock()
		out += "  q " + itoaDbg(id) + " msgs=" + itoaDbg(int64(len(q.msgs))) +
			" waiters=" + itoaDbg(int64(len(q.waiters))) +
			" moved=" + q.movedTo + "\n"
		q.mu.Unlock()
	}
	out += "  semOwnerCache=" + fmt.Sprint(h.semOwner) + "\n"
	if h.leader != nil {
		h.leader.mu.Lock()
		out += "  leader.owners[sem]=" + fmt.Sprint(h.leader.owners[NSSysVSem]) + "\n"
		h.leader.mu.Unlock()
	}
	return out
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

func itoaDbg(v int64) string { return fmt.Sprint(v) }
