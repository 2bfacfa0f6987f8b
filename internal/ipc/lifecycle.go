package ipc

import (
	"sync"

	"graphene/internal/api"
)

// The System V object lifecycle, written once for message queues and
// semaphore sets (§4.2–4.3, DESIGN.md "SysV object lifecycle"): an object
// has one owner and is found by ID, its ownership moves to its heaviest
// remote user, and its removal reaches everyone who touched it. Every
// step below works on the shared header; what the object holds stays
// behind the sysvObject methods in sysv.go.

// sysvRef names one System V object. IDs are drawn per kind, so a queue
// and a semaphore set may share one.
type sysvRef struct {
	kind int // NSSysVMsg or NSSysVSem
	id   int64
}

// sysvHeader is the owner-side state every System V object carries,
// whatever it holds: its name, the flags a handoff and a removal move
// through, the accessors a removal is sent to, and the counters behind the
// migration vote. msgQueue and semSet embed it.
type sysvHeader struct {
	mu sync.Mutex
	sysvRef
	key int64

	removed bool
	// migrating is set while a transfer to a new owner is in flight:
	// operations fail with EXDEV and retry, but the forwarding tombstone
	// (movedTo) is only set once the new owner actually has the state.
	migrating bool
	movedTo   string // non-empty after migration (forwarding tombstone)
	// epoch is the migration epoch under which this copy was received
	// (see ownerEntry); bumped by one for every ownership transfer.
	epoch int64

	// accessors are helper addresses that have touched the object, for
	// deletion notifications. Allocated lazily on the first remote access:
	// purely local objects never need it, and the create fast path stays
	// allocation-light.
	accessors map[string]struct{}

	// remoteVotes counts each remote peer's migration votes (a queue's
	// receives, a set's acquires) and localOps the owner's own operations;
	// a peer crossing migrateThreshold while out-using the owner wins the
	// object.
	remoteVotes map[string]int
	localOps    int

	// waiters are the ops parked here until they can complete, in arrival
	// order.
	waiters []*sysvWaiter
}

// sysvWaiter is an op parked at its owner, a local caller or a deferred
// remote RPC alike: a receive selecting mtype, or a semop's ops. from and
// cookie name it for a signal-interruption cancel — the caller's helper
// address and its per-call cookie; deliver takes its one answer.
type sysvWaiter struct {
	mtype   int64
	ops     []api.SemBuf
	from    string
	cookie  int64
	deliver func(sysvResult)
}

func (o *sysvHeader) header() *sysvHeader { return o }

// cancel answers a signal-interruption cancel, local or remote alike: the
// op parked under (from, cookie), if it still is, is answered with EINTR.
func (o *sysvHeader) cancel(from string, cookie int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, w := range o.waiters {
		if w.from == from && w.cookie == cookie {
			o.waiters = append(o.waiters[:i], o.waiters[i+1:]...)
			w.deliver(sysvResult{errno: api.EINTR})
			return
		}
	}
}

// failWaitersLocked answers every parked op with errno. Caller holds o.mu.
func (o *sysvHeader) failWaitersLocked(errno api.Errno) {
	for _, w := range o.waiters {
		w.deliver(sysvResult{errno: errno})
	}
	o.waiters = nil
}

// liveLocked reports whether this copy is the object rather than a removed
// one or a forwarding tombstone. Caller holds o.mu.
func (o *sysvHeader) liveLocked() bool { return !o.removed && o.movedTo == "" }

// voteLocked records a remote access by from and, when vote is set, counts
// it toward migrating the object to from. It reports whether from has won
// the object (§4.3). Caller holds o.mu.
func (o *sysvHeader) voteLocked(from string, vote bool) bool {
	if from == "" {
		return false
	}
	mapSet(&o.accessors, from, struct{}{})
	if !vote {
		return false
	}
	mapSet(&o.remoteVotes, from, o.remoteVotes[from]+1)
	n := o.remoteVotes[from]
	return migrationEnabled.Load() && n >= migrateThreshold && n > o.localOps && o.liveLocked()
}

// sysvObject is a System V object as its owner holds it: the shared header
// plus what differs by kind, the content. Every *Locked method runs with
// the header's mu held.
type sysvObject interface {
	header() *sysvHeader
	// snapshotLocked readies a handoff or persistence: it folds a queue's
	// send ring back, bounces parked waiters with EXDEV (they retry against
	// the next owner), and moves the content out into a blob.
	snapshotLocked() []byte
	// mergeLocked folds in the content of in, a decoded copy of the same
	// object, and serves the waiters it satisfies. An incoming copy and an
	// aborted handoff's own snapshot both come back this way.
	mergeLocked(in sysvObject)
	// removeLocked tears a queue's send ring down and fails parked
	// waiters with EIDRM.
	removeLocked()
}

// decodeSysV rebuilds object id of kind from a snapshot blob.
func decodeSysV(kind int, id int64, blob []byte) (sysvObject, error) {
	if kind == NSSysVMsg {
		key, msgs, err := decodeMessages(blob)
		if err != nil {
			return nil, err
		}
		q := newMsgQueue(id, key)
		q.msgs = msgs
		return q, nil
	}
	key, vals, err := decodeSemSet(blob)
	if err != nil {
		return nil, err
	}
	s := newSemSet(id, key, 0)
	s.vals = vals
	return s, nil
}

// sysvMsgTypes are the frame types a kind's delete and handoff travel as;
// typeKind names the kind such a per-kind frame type (or a cancel)
// addresses.
func sysvMsgTypes(kind int) (del, migrate MsgType) {
	if kind == NSSysVSem {
		return MsgSemDelete, MsgSemMigrate
	}
	return MsgQDelete, MsgQMigrate
}

func typeKind(t MsgType) int {
	switch t {
	case MsgSemDelete, MsgSemMigrate, MsgSemOpCancel:
		return NSSysVSem
	}
	return NSSysVMsg
}

// wireFlag is the B field naming a semaphore set (1) rather than a queue
// (0) on the deletion notice both kinds share. flagKind reads it back.
func wireFlag(kind int) int64 {
	if kind == NSSysVSem {
		return 1
	}
	return 0
}

func flagKind(b int64) int {
	if b == 1 {
		return NSSysVSem
	}
	return NSSysVMsg
}

func kindName(kind int) string {
	if kind == NSSysVSem {
		return "sem"
	}
	return "q"
}

// objectLocked returns this helper's copy of object id of kind, live or a
// tombstone; nil for none. Caller holds h.mu.
func (h *Helper) objectLocked(kind int, id int64) sysvObject {
	if kind == NSSysVSem {
		if s := h.sems[id]; s != nil {
			return s
		}
	} else if q := h.queues[id]; q != nil {
		return q
	}
	return nil
}

// setObjectLocked installs o as this helper's copy. Caller holds h.mu.
func (h *Helper) setObjectLocked(o sysvObject) {
	switch o := o.(type) {
	case *msgQueue:
		mapSet(&h.queues, o.id, o)
	case *semSet:
		mapSet(&h.sems, o.id, o)
	}
}

// objectsLocked lists every copy this helper holds. Caller holds h.mu.
func (h *Helper) objectsLocked() []sysvObject {
	out := make([]sysvObject, 0, len(h.queues)+len(h.sems))
	for _, q := range h.queues {
		out = append(out, q)
	}
	for _, s := range h.sems {
		out = append(out, s)
	}
	return out
}

// getKeyed maps a System V key to an object ID of kind, creating the
// object here when this helper wins the creation race (§4.2).
func (h *Helper) getKeyed(kind int, key int64, flags, nsems int) (int64, error) {
	id, owner, err := h.sysvKey(kind, key, flags)
	if err != nil {
		return 0, err
	}
	// A lookup leaves no owner-cache entry: owner fills it on first use,
	// which is also when the owner records this helper as an accessor, so
	// the object's removal reaches the entry. An object only looked up
	// here and removed elsewhere leaves nothing behind.
	if owner != h.Addr {
		return id, nil
	}
	h.mu.Lock()
	if h.objectLocked(kind, id) == nil {
		var o sysvObject
		if kind == NSSysVSem {
			o = newSemSet(id, key, nsems)
		} else {
			o = newMsgQueue(id, key)
		}
		o.header().epoch = 1
		h.setObjectLocked(o)
	}
	h.mu.Unlock()
	return id, nil
}

// owner resolves the address owning object id of kind: this helper while
// it holds the live copy, else the owner cache, else the leader.
func (h *Helper) owner(kind int, id int64) (string, error) {
	h.mu.Lock()
	o := h.objectLocked(kind, id)
	h.mu.Unlock()
	if o != nil {
		hd := o.header()
		hd.mu.Lock()
		moved := hd.movedTo
		hd.mu.Unlock()
		if moved == "" {
			return h.Addr, nil
		}
		// A local tombstone only records where WE sent the object; it may
		// have moved again since. Fall through to the cache/leader, which
		// track the current owner — following a stale tombstone forever
		// would loop on EXDEV.
	}
	h.mu.Lock()
	if a, ok := h.ownerCache[kind][id]; ok {
		h.mu.Unlock()
		return a, nil
	}
	h.mu.Unlock()
	resp, err := h.callLeader(Frame{Type: MsgKeyOwner, A: int64(kind), B: id})
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	kindSet(&h.ownerCache, kind, id, resp.S)
	h.mu.Unlock()
	return resp.S, nil
}

// invalidate forgets where object id of kind lives. Ownership is moving,
// so a queue's send ring to the old owner is dead too (its reclaim rides
// the handoff's critical section).
func (h *Helper) invalidate(kind int, id int64) {
	h.mu.Lock()
	delete(h.ownerCache[kind], id)
	h.mu.Unlock()
	if kind == NSSysVMsg {
		h.ringDrop(id)
	}
}

// rmid destroys object id of kind, notifying prior accessors (§4.2), on
// the one operation path: a stale owner answers EXDEV and the rmid chases
// the live copy. The owner tells only the object's accessors of its end,
// so once it is gone this helper forgets where it lived.
func (h *Helper) rmid(kind int, id int64) error {
	del, _ := sysvMsgTypes(kind)
	if _, _, err := h.sysvDo(&sysvOp{kind: kind, typ: del, id: id}); err != nil {
		return err
	}
	h.invalidate(kind, id)
	return nil
}

// removeLocal destroys the locally owned object; EXDEV (touching nothing)
// when it has migrated away or is mid-handoff — a stale-owner rmid must
// chase the live copy, not remove its key mapping out from under the
// current owner, nor remove a copy whose content a handoff is installing
// elsewhere.
func (h *Helper) removeLocal(kind int, id int64) api.Errno {
	h.mu.Lock()
	o := h.objectLocked(kind, id)
	h.mu.Unlock()
	if o != nil {
		hd := o.header()
		hd.mu.Lock()
		moving := hd.movedTo != "" || hd.migrating
		hd.mu.Unlock()
		if moving {
			return api.EXDEV
		}
	}
	h.mu.Lock()
	if kind == NSSysVSem {
		delete(h.sems, id)
	} else {
		delete(h.queues, id)
	}
	delete(h.ownerCache[kind], id)
	h.mu.Unlock()
	if o == nil {
		return 0
	}
	hd := o.header()
	hd.mu.Lock()
	o.removeLocked()
	hd.removed = true
	epoch := hd.epoch
	var others []string
	for a := range hd.accessors {
		if a != h.Addr {
			others = append(others, a)
		}
	}
	hd.mu.Unlock()
	// Only another helper needs to hear of the removal: an object no one
	// but its owner used starts no background task.
	if len(others) > 0 {
		h.bgGo(func() {
			for _, addr := range others {
				if c, err := h.dial(addr); err == nil {
					_ = c.Notify(Frame{Type: MsgQDeleted, A: id, B: wireFlag(kind)})
				}
			}
		})
	}
	// The leader's removal is synchronous: once Rmid returns,
	// no other picoprocess can resolve the key to the dead ID (an async
	// notify left a window where a concurrent create handed out the stale
	// mapping). Accessor notifications above stay best-effort async.
	_, _ = h.callLeader(Frame{Type: MsgKeyRemove, A: int64(kind), B: id, D: epoch})
	return 0
}

// migrate hands object id of kind to the helper at to (§4.2–4.3: a queue
// migrates to its consumer, a set to its most frequent acquirer). Runs
// outside the RPC handler to respect the no-recursive-RPC rule.
func (h *Helper) migrate(kind int, id int64, to string) {
	h.mu.Lock()
	o := h.objectLocked(kind, id)
	h.mu.Unlock()
	if o == nil || to == h.Addr {
		return
	}
	hd := o.header()
	hd.mu.Lock()
	if !hd.liveLocked() || hd.migrating {
		hd.mu.Unlock()
		return
	}
	// Quiesce rather than defer: a permanently parked waiter would
	// otherwise starve the handoff forever, so the snapshot bounces
	// waiters, which re-issue against the new owner through the
	// client-side EXDEV retry. It folds a queue's send ring back in the
	// same critical section: a client push sealed out here re-routes to
	// RPC and surfaces as EXDEV too.
	hd.migrating = true
	_, mt := sysvMsgTypes(kind)
	f := Frame{Type: mt, A: id, Blob: o.snapshotLocked(), D: hd.epoch + 1}
	hd.mu.Unlock()
	abort := func() {
		// The receiver certainly did not install (it refused, or was never
		// reached): resume ownership with the snapshot.
		in, err := decodeSysV(kind, id, f.Blob)
		hd.mu.Lock()
		if err == nil {
			o.mergeLocked(in)
		}
		hd.migrating = false
		hd.mu.Unlock()
	}
	commit := func(owner string) {
		hd.mu.Lock()
		hd.movedTo = owner
		hd.migrating = false
		hd.mu.Unlock()
		_, _ = h.callLeader(Frame{Type: MsgKeyChown, A: int64(kind), B: id, S: owner, D: f.D})
		h.mu.Lock()
		kindSet(&h.ownerCache, kind, id, owner)
		h.mu.Unlock()
	}
	c, err := h.dial(to)
	if err != nil {
		abort()
		return
	}
	switch _, err := c.Call(f); {
	case err == nil:
		commit(to)
	case err == api.EPERM:
		abort() // receiver explicitly refused: it has no copy
	case h.isLeader():
		// The outcome is unknown, and we are the convergence point: keep
		// the copy.
		abort()
	default:
		// The outcome is unknown: the connection died mid-call, so the
		// receiver may or may not have installed — and if it did, it is
		// dying and will evict the copy. Resurrecting ours could split
		// ownership; instead forward it to the leader, where a dying
		// receiver's eviction converges too.
		// callLeader rides through a concurrent leader failover; a retry
		// reaches a new leader, whose tables never saw the first attempt,
		// and a copy the dead leader installed died with it.
		if _, err := h.callLeader(f); err == nil {
			if owner := h.LeaderAddr(); owner != "" && owner != h.Addr {
				commit(owner)
				return
			}
		}
		abort()
	}
}

// install takes ownership of an incoming copy of object f.A, the payload
// of a handoff (MsgQMigrate / MsgSemMigrate). While this helper shuts
// down, or while its own copy is mid-handoff to someone else, it refuses
// with EPERM and the sender keeps its copy: accepting a second copy
// mid-handoff would split ownership, and the racing chowns could strand
// the authoritative map on a dead helper. A live copy absorbs the incoming
// one rather than orphaning its parked waiters (a crash-recovery duplicate
// converging here, §4.2's disconnection tolerance).
func (h *Helper) install(kind int, f Frame) api.Errno {
	in, err := decodeSysV(kind, f.A, f.Blob)
	if err != nil {
		return api.EINVAL
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.shutdown {
		return api.EPERM
	}
	if o := h.objectLocked(kind, f.A); o != nil {
		hd := o.header()
		hd.mu.Lock()
		defer hd.mu.Unlock()
		if hd.migrating {
			return api.EPERM
		}
		if hd.liveLocked() {
			o.mergeLocked(in)
			hd.epoch = max(hd.epoch, f.D)
			kindSet(&h.ownerCache, kind, f.A, h.Addr)
			return 0
		}
	}
	in.header().epoch = f.D
	h.setObjectLocked(in)
	kindSet(&h.ownerCache, kind, f.A, h.Addr)
	return 0
}
