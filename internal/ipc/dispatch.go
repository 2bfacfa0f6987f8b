package ipc

import (
	"graphene/internal/api"
	"graphene/internal/host"
)

// dispatch services an RPC request that did not arrive over a stream
// (leader-local short-circuit, broadcast side channels).
func (h *Helper) dispatch(f Frame, respond func(Frame)) {
	h.dispatchOn(nil, f, respond)
}

// dispatchOn services one incoming RPC request from stream s (nil for
// local dispatch). Per §4.1, handlers work from local state only and never
// issue recursive RPCs; operations that need follow-up RPCs (migration,
// deletion notification) run in separate goroutines after responding.
//
// Two cross-cutting layers run before the type switch: deterministic
// fault-point evaluation (".enter" before the handler mutates anything,
// ".reply" between mutation and response delivery) and the replay-dedup
// check for requests carrying a ReqID. Ordering matters — the dedup
// recorder sits inside the reply fault wrapper, so a response destroyed
// by an injected crash or reset is still recorded and the sender's retry
// replays it instead of re-executing.
func (h *Helper) dispatchOn(s *host.Stream, f Frame, respond func(Frame)) {
	// Serve span first, before the fault layer: a dispatch killed by an
	// injected crash still appears in the victim's flight recorder.
	h.serveSpan(&f)
	if p := h.pal.Proc(); p.HasFaultPlan() {
		point := "rpc." + f.Type.String()
		switch p.Fault(point + ".enter") {
		case host.FaultKill:
			return // died before the handler ran; never respond
		case host.FaultReset:
			if s != nil {
				s.ForceClose()
			}
			return
		}
		orig := respond
		respond = func(r Frame) {
			switch p.Fault(point + ".reply") {
			case host.FaultKill, host.FaultDrop:
				return // mutation applied, response lost
			case host.FaultReset:
				if s != nil {
					s.ForceClose()
				}
				return
			}
			orig(r)
		}
	}
	// Epoch fence: a request stamped with a higher epoch than this
	// leader's own is proof of demotion — the sender accepted a newer
	// leader for that shard this helper never heard about (partition).
	// Step down before dispatching; the request then bounces with EPERM
	// from the leader-only handlers and the sender's failover loop
	// re-resolves. The fence is per shard group: a newer epoch on shard 2
	// says nothing about our claim on shard 0.
	if !f.IsResponse() && f.Epoch != 0 {
		h.mu.Lock()
		g := h.groupFor(f.Shard)
		fenced := g != nil && g.leader != nil && f.Epoch > g.leaderEpoch
		h.mu.Unlock()
		if fenced {
			statFencedRequests.Add(1)
			h.stepDownShard(g, f.Epoch, "")
		}
	}
	respond2, replayed := h.dedupCheck(&f, respond)
	if replayed {
		return
	}
	respond = respond2

	switch f.Type {
	case MsgPing:
		respond(f.Response(Frame{}))

	case MsgWhoIsLeader:
		// Point-to-point notification carrying one shard leader's address
		// (A is its election epoch).
		if f.S != "" {
			h.mu.Lock()
			if g := h.groupFor(f.Shard); g != nil && g.leaderAddr == "" {
				h.setLeaderLocked(g, f.S, f.A)
			}
			h.mu.Unlock()
		}

	case MsgBye:
		// Graceful departure: never reap this member when its streams die.
		// The member says goodbye to every shard leader it shares a stream
		// with; each led group here that holds something of it marks it
		// departed.
		h.mu.Lock()
		var led []*leaderState
		for _, g := range h.groups {
			if g.leader != nil {
				led = append(led, g.leader)
			}
		}
		h.mu.Unlock()
		for _, l := range led {
			l.markDeparted(f.From)
		}
		respond(f.Response(Frame{}))

	case MsgMemberDead:
		// A peer observed a member's streams die and scattered the news so
		// every shard leader reclaims the dead member's slice. Reap is
		// idempotent; scatter=false stops a second fan-out round.
		if f.S != "" && f.S != h.Addr {
			go h.reapMember(f.S, false)
		}

	case MsgShardHandoff:
		// Graceful shard transfer: the current shard leader asks us to take
		// over under a pre-fenced epoch (A). Promote, announce, and install
		// our own slice; members (including the old leader, which steps
		// down on our announcement or on our response) reconcile as after
		// any election — minus the settling window.
		h.mu.Lock()
		g := h.groupFor(f.Shard)
		down := h.shutdown
		h.mu.Unlock()
		if g == nil || down {
			respond(f.ErrResponse(api.EPERM))
			return
		}
		h.promoteShard(g, f.A)
		nf := Frame{Type: MsgNewLeader, A: f.A, Shard: f.Shard, From: h.Addr, S: h.Addr}
		_ = h.pal.BroadcastSend(EncodeFrame(&nf))
		h.mu.Lock()
		leader := g.leader
		h.mu.Unlock()
		if leader != nil {
			leader.installRecoverState(h.collectRecoverState(g.shard), h.Addr)
		}
		respond(f.Response(Frame{}))

	case MsgNSAlloc:
		leader := h.ledStateFor(&f)
		if leader == nil {
			respond(f.ErrResponse(api.EPERM))
			return
		}
		n := f.B
		if n <= 0 || n > 4096 {
			respond(f.ErrResponse(api.EINVAL))
			return
		}
		lo, hi := leader.allocRange(int(f.A), n, f.From)
		respond(f.Response(Frame{A: lo, B: hi}))
		h.broadcastNSHwm(int(f.A), int(f.Shard), hi+1)

	case MsgNSClaim:
		leader := h.ledStateFor(&f)
		if leader == nil {
			respond(f.ErrResponse(api.EPERM))
			return
		}
		// Failover needs to hear the cursor only when it moved: a claim of
		// an ID some range already covers wakes no subscriber.
		if leader.claimRange(int(f.A), f.B, f.From) {
			h.broadcastNSHwm(int(f.A), int(f.Shard), f.B+1)
		}
		if int(f.A) == NSPid {
			// The claimed PID may sit inside the leader's own already-held
			// batch; fence it off from local minting too.
			h.mu.Lock()
			mapSet(&h.pidSkip, f.B, struct{}{})
			h.mu.Unlock()
		}
		respond(f.Response(Frame{}))

	case MsgNSQuery:
		h.handleNSQuery(f, respond)

	case MsgNSRegister:
		h.mu.Lock()
		mapSet(&h.localPIDs, f.B, f.S)
		h.mu.Unlock()
		respond(f.Response(Frame{}))

	case MsgSignal:
		// Tracked until the reply is on the stream: a fatal signal starts
		// the exit whose Shutdown closes this very connection, and a signal
		// that was delivered must not read as ESRCH (EPIPE) at the sender.
		if h.bgEnter() {
			defer h.bg.Done()
		}
		errno := h.svc.DeliverSignal(f.A, api.Signal(f.B))
		if errno != 0 {
			respond(f.ErrResponse(errno))
			return
		}
		respond(f.Response(Frame{}))

	case MsgExitNotify:
		h.svc.NotifyExit(f.A, f.B, api.Signal(f.C))
		// Asynchronous: no response expected.

	case MsgProcMeta:
		v, errno := h.svc.ProcMeta(f.A, f.S)
		if errno != 0 {
			respond(f.ErrResponse(errno))
			return
		}
		respond(f.Response(Frame{S: v}))

	case MsgKeyGet:
		h.handleKeyGet(f, respond)

	case MsgKeyRegister:
		leader := h.ledStateFor(&f)
		if leader == nil {
			respond(f.ErrResponse(api.EPERM))
			return
		}
		authID := leader.registerKey(int(f.A), f.B, f.C, f.S)
		// A carries the ID the key authoritatively resolves to (0 if the
		// reported object is tombstoned); post-heal reconciliation uses a
		// mismatch to detect that its copy lost to one created on the
		// other side of a partition.
		respond(f.Response(Frame{A: authID}))

	case MsgKeyEvict:
		if f.C == 1 {
			// Leader -> holder: the object behind a cached key is gone.
			h.mu.Lock()
			if m := h.keyCache[int(f.A)]; m != nil {
				delete(m, f.B)
			}
			h.mu.Unlock()
			respond(f.Response(Frame{}))
			return
		}
		// Holder (or a peer acting for a dead holder) -> leader: release
		// the block lease.
		leader := h.ledStateFor(&f)
		if leader == nil {
			respond(f.ErrResponse(api.EPERM))
			return
		}
		leader.releaseLease(int(f.A), f.B)
		respond(f.Response(Frame{}))

	case MsgKeyOwner:
		leader := h.ledStateFor(&f)
		if leader == nil {
			respond(f.ErrResponse(api.EPERM))
			return
		}
		owner, ok := leader.idOwner(int(f.A), f.B)
		if !ok {
			respond(f.ErrResponse(api.EIDRM))
			return
		}
		respond(f.Response(Frame{S: owner}))

	case MsgKeyChown:
		leader := h.ledStateFor(&f)
		if leader == nil {
			respond(f.ErrResponse(api.EPERM))
			return
		}
		leader.chown(int(f.A), f.B, f.S, f.D)
		respond(f.Response(Frame{}))

	case MsgKeyRemove:
		leader := h.ledStateFor(&f)
		if leader == nil {
			respond(f.ErrResponse(api.EPERM))
			return
		}
		notes := leader.remove(int(f.A), f.B)
		respond(f.Response(Frame{}))
		if len(notes) > 0 {
			// Tell lease holders still caching the dropped keys (off the
			// handler goroutine: notification needs follow-up RPCs).
			kind := f.A
			go func() {
				for _, n := range notes {
					if n.holder == h.Addr {
						h.mu.Lock()
						if m := h.keyCache[int(kind)]; m != nil {
							delete(m, n.key)
						}
						h.mu.Unlock()
						continue
					}
					if c, err := h.dial(n.holder); err == nil {
						_ = c.Notify(Frame{Type: MsgKeyEvict, A: kind, B: n.key, C: 1})
					}
				}
			}()
		}

	case MsgQSend:
		h.handleQSend(f, respond)

	case MsgQRecv:
		h.handleQRecv(f, respond)

	case MsgQDelete:
		// Off the read loop: removeLocalQueue makes a synchronous RPC to
		// the key's authoritative shard, and when that shard's leader is
		// the peer this frame arrived from, the reply lands on the very
		// read loop running this handler. Inline dispatch would deadlock
		// on the shared connection until the call timed out.
		go func() {
			// EXDEV: the queue migrated away — bounce so the rmid
			// re-resolves and chases the live copy instead of this
			// stale owner tombstoning its key mapping.
			if errno := h.removeLocalQueue(f.A); errno != 0 {
				respond(f.ErrResponse(errno))
				return
			}
			respond(f.Response(Frame{}))
		}()

	case MsgQDeleted:
		// Deletion notification: drop caches so later ops fail fast.
		if f.B == 1 {
			h.invalidateSem(f.A)
		} else {
			h.invalidateQ(f.A)
		}

	case MsgQMigrate:
		key, msgs, err := decodeMessages(f.Blob)
		if err != nil {
			respond(f.ErrResponse(api.EINVAL))
			return
		}
		h.mu.Lock()
		if h.shutdown {
			// Refuse ownership while dying; the sender keeps the queue.
			h.mu.Unlock()
			respond(f.ErrResponse(api.EPERM))
			return
		}
		if existing := h.queues[f.A]; existing != nil {
			existing.mu.Lock()
			if existing.migrating {
				// Our own copy is mid-handoff to someone else; accepting a
				// second copy now would split ownership (and the racing
				// chowns could strand the authoritative map on a dead
				// helper). Refuse; the sender keeps its copy and retries.
				existing.mu.Unlock()
				h.mu.Unlock()
				respond(f.ErrResponse(api.EPERM))
				return
			}
			live := !existing.removed && existing.movedTo == ""
			if live {
				// Merge into the live copy rather than orphaning its
				// parked waiters (a crash-recovery duplicate converging
				// here, §4.2's disconnection tolerance). Bypass rings are
				// collapsed first so the merged order is well-defined.
				existing.collapseRingsLocked()
				existing.msgs = append(existing.msgs, msgs...)
				if f.D > existing.epoch {
					existing.epoch = f.D
				}
				existing.drainWaitersLocked()
				existing.mu.Unlock()
				mapSet(&h.qOwnerCache, f.A, h.Addr)
				h.mu.Unlock()
				respond(f.Response(Frame{}))
				return
			}
			existing.mu.Unlock()
		}
		q := newMsgQueue(f.A, key)
		q.msgs = msgs
		q.epoch = f.D
		mapSet(&h.queues, f.A, q)
		mapSet(&h.qOwnerCache, f.A, h.Addr)
		h.mu.Unlock()
		respond(f.Response(Frame{}))

	case MsgQRecvCancel:
		// Signal interruption: withdraw the sender's parked receive (matched
		// by From+cookie) and answer its deferred MsgQRecv with EINTR. Async;
		// a delivery that already won the race simply leaves nothing to find.
		h.mu.Lock()
		q := h.queues[f.A]
		h.mu.Unlock()
		if q != nil {
			q.cancelRecvRemote(f.From, f.D)
		}

	case MsgSemOpCancel:
		h.mu.Lock()
		s := h.sems[f.A]
		h.mu.Unlock()
		if s != nil {
			s.cancelSemRemote(f.From, f.D)
		}

	case MsgSemOp:
		h.handleSemOp(f, respond)

	case MsgRingAttach:
		h.handleRingAttach(f, respond)

	case MsgRingDetach:
		h.handleRingDetach(f, respond)

	case MsgSemDelete:
		// Same shared-connection hazard and EXDEV bounce as MsgQDelete.
		go func() {
			if errno := h.removeLocalSem(f.A); errno != 0 {
				respond(f.ErrResponse(errno))
				return
			}
			respond(f.Response(Frame{}))
		}()

	case MsgSemMigrate:
		key, vals, err := decodeSemSet(f.Blob)
		if err != nil {
			respond(f.ErrResponse(api.EINVAL))
			return
		}
		h.mu.Lock()
		if h.shutdown {
			// Refuse ownership while dying; the sender keeps the set.
			h.mu.Unlock()
			respond(f.ErrResponse(api.EPERM))
			return
		}
		if existing := h.sems[f.A]; existing != nil {
			existing.mu.Lock()
			if existing.migrating {
				// Mid-outbound-handoff: see the MsgQMigrate comment.
				// Accepting would overwrite a copy whose transfer outcome
				// is undetermined, stranding its permits.
				existing.mu.Unlock()
				h.mu.Unlock()
				respond(f.ErrResponse(api.EPERM))
				return
			}
			live := !existing.removed && existing.movedTo == ""
			if live {
				// Merge values into the live copy rather than orphaning
				// its parked waiters; permits carried by the incoming
				// copy become available here. A bypass segment holds the
				// authoritative value of sem 0 — seal it back first.
				existing.reclaimSegLocked()
				for i := range existing.vals {
					if i < len(vals) {
						existing.vals[i] += vals[i]
					}
				}
				if f.D > existing.epoch {
					existing.epoch = f.D
				}
				existing.wakeWaitersLocked()
				existing.mu.Unlock()
				mapSet(&h.semOwner, f.A, h.Addr)
				h.mu.Unlock()
				respond(f.Response(Frame{}))
				return
			}
			existing.mu.Unlock()
		}
		s := newSemSet(f.A, key, len(vals))
		s.vals = vals
		s.epoch = f.D
		mapSet(&h.sems, f.A, s)
		mapSet(&h.semOwner, f.A, h.Addr)
		h.mu.Unlock()
		respond(f.Response(Frame{}))

	case MsgPgJoin:
		leader := h.ledStateFor(&f)
		if leader == nil {
			respond(f.ErrResponse(api.EPERM))
			return
		}
		addr := f.S
		if addr == "" {
			addr = f.From
		}
		leader.pgs.join(f.A, f.B, addr)
		respond(f.Response(Frame{}))

	case MsgPgLeave:
		leader := h.ledStateFor(&f)
		if leader == nil {
			respond(f.ErrResponse(api.EPERM))
			return
		}
		leader.pgs.leave(f.A, f.B)
		respond(f.Response(Frame{}))

	case MsgPgMembers:
		leader := h.ledStateFor(&f)
		if leader == nil {
			respond(f.ErrResponse(api.EPERM))
			return
		}
		respond(f.Response(Frame{Blob: encodeMembers(leader.pgs.members(f.A))}))

	case MsgRecoverState:
		leader := h.ledStateFor(&f)
		if leader == nil {
			respond(f.ErrResponse(api.EPERM))
			return
		}
		r, err := decodeRecover(f.Blob)
		if err != nil {
			respond(f.ErrResponse(api.EINVAL))
			return
		}
		rejected := leader.installRecoverState(r, f.From)
		respond(f.Response(Frame{Blob: encodeLeaseList(rejected)}))

	default:
		respond(f.ErrResponse(api.ENOSYS))
	}
}

// handleKeyGet resolves a System V key. On the leader it answers from the
// authoritative tables, grants a block lease on create when the requester
// asked for one, or redirects to the block's lease holder. On a lease
// holder it answers from the leased cache — including creating the object
// on the requester's behalf (the requester proposed the ID and becomes
// the owner; the mapping is registered at the leader lazily).
func (h *Helper) handleKeyGet(f Frame, respond func(Frame)) {
	kind := int(f.A)
	key := f.B
	flags := int(f.C) &^ keyLeaseRequest
	wantLease := f.C&keyLeaseRequest != 0 && key != api.IPCPrivate
	requester := f.From
	if requester == "" {
		requester = h.Addr
	}
	// Resolve the key's authoritative shard from the key itself rather
	// than trusting the frame's stamp: requests forwarded by lease
	// holders, or dialed point-to-point, may carry shard 0.
	h.mu.Lock()
	leader := h.groups[h.keyShardOf(kind, key)].leader
	h.mu.Unlock()

	if leader == nil {
		// Lease-holder path: only answer for blocks we actually hold; a
		// request that raced our lease release bounces with EXDEV and
		// re-resolves at the leader.
		if !h.keyGetFromHeldLease(f, kind, key, flags, requester, respond) {
			respond(f.ErrResponse(api.EXDEV))
		}
		return
	}

	r, errno := leader.keyResolve(kind, key, flags, f.D, requester, wantLease)
	if errno != 0 {
		respond(f.ErrResponse(errno))
		return
	}
	switch {
	case r.indirect == h.Addr:
		// The leader itself holds the lease: serve from the local cache
		// rather than redirecting the requester back here forever.
		if !h.keyGetFromHeldLease(f, kind, key, flags, requester, respond) {
			// The helper-side lease is gone but the leader table still
			// records it (a recovery edge): drop it and resolve plainly.
			// No lease on the re-resolve — the direct response below could
			// not report a grant, and an unreported lease would strand the
			// block redirecting to a holder that never took it.
			leader.releaseLease(kind, keyBlock(key))
			r, errno = leader.keyResolve(kind, key, flags, f.D, requester, false)
			if errno != 0 {
				respond(f.ErrResponse(errno))
				return
			}
			respond(f.Response(Frame{A: r.id, S: r.owner}))
		}
	case r.indirect != "":
		respond(f.Response(Frame{B: keyRespIndirect, S: r.indirect}))
	case r.leased:
		respond(f.Response(Frame{A: r.id, S: r.owner, B: keyRespLeased, C: r.block, Blob: encodeKeySeed(r.seed)}))
	default:
		respond(f.Response(Frame{A: r.id, S: r.owner}))
	}
}

// keyGetFromHeldLease answers a MsgKeyGet from this helper's leased
// cache, creating the object on the requester's behalf when asked (the
// requester proposed the ID in f.D and becomes the owner; the mapping is
// registered at the leader lazily). Returns false when the key's block is
// not leased here.
func (h *Helper) keyGetFromHeldLease(f Frame, kind int, key int64, flags int, requester string, respond func(Frame)) bool {
	block := keyBlock(key)
	h.mu.Lock()
	if _, held := h.keyLeases[kind][block]; !held {
		h.mu.Unlock()
		return false
	}
	if e, ok := h.keyCache[kind][key]; ok {
		h.mu.Unlock()
		if flags&api.IPCCreat != 0 && flags&api.IPCExcl != 0 {
			respond(f.ErrResponse(api.EEXIST))
			return true
		}
		respond(f.Response(Frame{A: e.id, S: e.owner}))
		return true
	}
	if flags&api.IPCCreat == 0 {
		h.mu.Unlock()
		respond(f.ErrResponse(api.ENOENT))
		return true
	}
	kindSet(&h.keyCache, kind, key, keyEntry{id: f.D, owner: requester})
	h.mu.Unlock()
	respond(f.Response(Frame{A: f.D, S: requester}))
	h.registerKeyLazily(kind, key, f.D, requester)
	return true
}

// handleNSQuery resolves an ID to an address from local tables; on the
// leader a miss falls back to the range owner with the indirect flag set.
func (h *Helper) handleNSQuery(f Frame, respond func(Frame)) {
	if int(f.A) != NSPid {
		respond(f.ErrResponse(api.EINVAL))
		return
	}
	h.mu.Lock()
	addr, ok := h.localPIDs[f.B]
	leader := h.groups[shardOfID(f.B, h.shards)].leader
	h.mu.Unlock()
	if ok {
		respond(f.Response(Frame{S: addr}))
		return
	}
	if leader != nil {
		owner, found := leader.rangeOwner(NSPid, f.B)
		if !found {
			respond(f.ErrResponse(api.ESRCH))
			return
		}
		if owner == h.Addr {
			// Our own range, but the PID was never allocated.
			respond(f.ErrResponse(api.ESRCH))
			return
		}
		respond(f.Response(Frame{S: owner, A: 1})) // indirect
		return
	}
	respond(f.ErrResponse(api.ESRCH))
}

// handleQSend appends to a locally owned queue. Async sends (C=1) get no
// response; sends to a migrated queue are forwarded asynchronously.
func (h *Helper) handleQSend(f Frame, respond func(Frame)) {
	async := f.C == 1
	h.mu.Lock()
	q := h.queues[f.A]
	h.mu.Unlock()
	reply := func(errno api.Errno) {
		if async {
			return
		}
		if errno != 0 {
			respond(f.ErrResponse(errno))
			return
		}
		respond(f.Response(Frame{}))
	}
	if q == nil {
		reply(api.EIDRM)
		return
	}
	q.mu.Lock()
	if f.From != "" {
		q.noteAccessor(f.From)
	}
	moved := q.movedTo
	q.mu.Unlock()
	if moved != "" {
		// Forward to the new owner off the handler goroutine.
		go func() {
			if c, err := h.dial(moved); err == nil {
				_ = c.Notify(Frame{Type: MsgQSend, A: f.A, B: f.B, C: 1, Blob: f.Blob})
			}
		}()
		reply(0)
		return
	}
	reply(q.send(f.B, f.Blob))
}

// handleQRecv receives from a locally owned queue, deferring the response
// until a message arrives for blocking receives, and feeding the consumer
// migration heuristic. Shutdown bounces new receives with EXDEV so the
// persistence path can serialize the queue without fresh waiters.
func (h *Helper) handleQRecv(f Frame, respond func(Frame)) {
	h.mu.Lock()
	q := h.queues[f.A]
	shuttingDown := h.shutdown
	h.mu.Unlock()
	if shuttingDown {
		respond(f.ErrResponse(api.EXDEV))
		return
	}
	if q == nil {
		respond(f.ErrResponse(api.EIDRM))
		return
	}
	from := f.From
	q.mu.Lock()
	if from != "" {
		q.noteAccessor(from)
	}
	if q.remoteRecvs == nil {
		q.remoteRecvs = make(map[string]int)
	}
	q.remoteRecvs[from]++
	shouldMigrate := migrationEnabled.Load() && q.remoteRecvs[from] >= migrateThreshold && q.remoteRecvs[from] > q.localRecvs && q.movedTo == "" && !q.removed
	q.mu.Unlock()

	wait := f.C == 1
	q.recv(f.B, wait, from, f.D, func(mt int64, data []byte, errno api.Errno) {
		if errno != 0 {
			respond(f.ErrResponse(errno))
			return
		}
		respond(f.Response(Frame{B: mt, Blob: data}))
	})

	if shouldMigrate && from != "" {
		// A clear consumer pattern: migrate the queue to the consumer
		// (§4.3). Runs outside the handler to avoid recursive RPC.
		go h.migrateQueue(f.A, from)
	}
}

// handleSemOp performs sembuf ops on a locally owned set, deferring the
// response while blocked, and feeding the acquirer migration heuristic.
// During shutdown new operations are bounced with EXDEV so the eviction
// path can migrate the set without fresh waiters re-parking forever.
func (h *Helper) handleSemOp(f Frame, respond func(Frame)) {
	h.mu.Lock()
	s := h.sems[f.A]
	shuttingDown := h.shutdown
	h.mu.Unlock()
	if shuttingDown {
		respond(f.ErrResponse(api.EXDEV))
		return
	}
	if s == nil {
		respond(f.ErrResponse(api.EIDRM))
		return
	}
	ops, err := decodeSemOps(f.Blob)
	if err != nil {
		respond(f.ErrResponse(api.EINVAL))
		return
	}
	acquires := false
	for _, op := range ops {
		if op.Op < 0 {
			acquires = true
		}
	}
	from := f.From
	shouldMigrate := false
	if from != "" {
		s.mu.Lock()
		s.noteAccessor(from)
		s.mu.Unlock()
	}
	if acquires && from != "" {
		s.mu.Lock()
		if s.remoteAcqs == nil {
			s.remoteAcqs = make(map[string]int)
		}
		s.remoteAcqs[from]++
		shouldMigrate = migrationEnabled.Load() && s.remoteAcqs[from] >= migrateThreshold && s.remoteAcqs[from] > s.localAcqs && s.movedTo == "" && !s.removed
		s.mu.Unlock()
	}
	wait := f.C == 1
	s.semop(ops, wait, from, f.D, func(errno api.Errno) {
		if errno != 0 {
			respond(f.ErrResponse(errno))
			return
		}
		respond(f.Response(Frame{}))
	})
	if shouldMigrate {
		go h.migrateSem(f.A, from)
	}
}
