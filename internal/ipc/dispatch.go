package ipc

import (
	"graphene/internal/api"
	"graphene/internal/host"
)

// dispatch services one incoming RPC request, from a stream or from this
// helper itself (the leader's local short-circuit). Per §4.1, handlers
// work from local state only and never issue recursive RPCs; operations
// that need follow-up RPCs (migration, deletion notification) run in
// separate goroutines after responding.
//
// Fault points run before the type switch: ".enter" before the handler
// mutates anything, ".reply" between mutation and response delivery, where
// a kill leaves the request applied and its answer lost.
func (h *Helper) dispatch(f Frame, respond func(Frame)) {
	// Serve span first, before the fault layer: a dispatch killed by an
	// injected crash still appears in the victim's flight recorder.
	h.serveSpan(&f)
	if p := h.pal.Proc(); p.HasFaultPlan() {
		point := "rpc." + f.Type.String()
		if p.Fault(point+".enter") == host.FaultKill {
			return // died before the handler ran; never respond
		}
		orig := respond
		respond = func(r Frame) {
			if p.Fault(point+".reply") == host.FaultKill {
				return // mutation applied, response lost
			}
			orig(r)
		}
	}

	switch f.Type {
	case MsgPing:
		respond(f.Response(Frame{}))

	case MsgWhoIsLeader:
		// Point-to-point notification carrying the leader's address (A is
		// its election epoch).
		if f.S != "" {
			h.mu.Lock()
			if h.leaderAddr == "" {
				h.setLeaderLocked(f.S, f.A)
			}
			h.mu.Unlock()
		}

	case MsgBye:
		// Graceful departure: never reap this member when its streams die.
		if l := h.ledState(); l != nil {
			l.markDeparted(f.From)
		}
		respond(f.Response(Frame{}))

	case MsgNSAlloc:
		leader := h.ledState()
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
		h.broadcastNSHwm(int(f.A), hi+1)

	case MsgNSClaim:
		leader := h.ledState()
		if leader == nil {
			respond(f.ErrResponse(api.EPERM))
			return
		}
		// Failover needs to hear the cursor only when it moved: a claim of
		// an ID some range already covers wakes no subscriber.
		if leader.claimRange(int(f.A), f.B, f.From) {
			h.broadcastNSHwm(int(f.A), f.B+1)
		}
		if int(f.A) == NSPid {
			// The claimed PID may sit inside the leader's own already-held
			// batch; fence it off from local minting too.
			h.mu.Lock()
			mapSet(&h.pidSkip, f.B, struct{}{})
			h.mu.Unlock()
		}
		respond(f.Response(Frame{B: leader.cursor(int(f.A))}))

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

	case MsgProcMeta:
		v, errno := h.svc.ProcMeta(f.A, f.S)
		if errno != 0 {
			respond(f.ErrResponse(errno))
			return
		}
		respond(f.Response(Frame{S: v}))

	case MsgKeyGet:
		leader := h.ledState()
		if leader == nil {
			respond(f.ErrResponse(api.EPERM))
			return
		}
		id, owner, errno := leader.keyResolve(int(f.A), f.B, int(f.C), f.D, f.From)
		if errno != 0 {
			respond(f.ErrResponse(errno))
			return
		}
		respond(f.Response(Frame{A: id, S: owner}))

	case MsgKeyOwner:
		leader := h.ledState()
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
		leader := h.ledState()
		if leader == nil {
			respond(f.ErrResponse(api.EPERM))
			return
		}
		leader.chown(int(f.A), f.B, f.S, f.D)
		respond(f.Response(Frame{}))

	case MsgKeyRemove:
		leader := h.ledState()
		if leader == nil {
			respond(f.ErrResponse(api.EPERM))
			return
		}
		leader.remove(int(f.A), f.B, f.D)
		respond(f.Response(Frame{}))

	case MsgQSend:
		h.handleQSend(f, respond)

	case MsgQDelete, MsgSemDelete:
		// Off the read loop: removeLocal makes a synchronous RPC to the
		// leader, and when the leader is the peer this frame arrived from,
		// the reply lands on the very read loop running this handler.
		// Inline dispatch would deadlock on the shared connection.
		go func() {
			// EXDEV: the object migrated away — bounce so the rmid
			// re-resolves and chases the live copy instead of this stale
			// owner removing its key mapping.
			respondErrno(f, respond, h.removeLocal(typeKind(f.Type), f.A))
		}()

	case MsgQDeleted:
		// Deletion notification: drop caches so later ops fail fast.
		h.invalidate(flagKind(f.B), f.A)

	case MsgQMigrate, MsgSemMigrate:
		respondErrno(f, respond, h.install(typeKind(f.Type), f))

	case MsgQRecvCancel, MsgSemOpCancel:
		// Signal interruption: withdraw the sender's parked waiter (matched
		// by From+cookie) and answer its deferred call with EINTR. Async; a
		// delivery that already won the race simply leaves nothing to find.
		h.mu.Lock()
		o := h.objectLocked(typeKind(f.Type), f.A)
		h.mu.Unlock()
		if o != nil {
			o.header().cancel(f.From, f.D)
		}

	case MsgQRecv, MsgSemOp:
		h.handleParkable(f, respond)

	case MsgRingAttach:
		h.handleRingAttach(f, respond)

	case MsgRingDetach:
		h.handleRingDetach(f, respond)

	case MsgPgJoin:
		leader := h.ledState()
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
		leader := h.ledState()
		if leader == nil {
			respond(f.ErrResponse(api.EPERM))
			return
		}
		leader.pgs.leave(f.A, f.B)
		respond(f.Response(Frame{}))

	case MsgPgMembers:
		leader := h.ledState()
		if leader == nil {
			respond(f.ErrResponse(api.EPERM))
			return
		}
		respond(f.Response(Frame{Blob: encodeMembers(leader.pgs.members(f.A))}))

	case MsgRecoverState:
		// A newly elected leader collecting this member's report, and the
		// leader this member has accepted (see promote).
		h.mu.Lock()
		epoch, leader := h.leaderEpoch, h.leaderAddr
		h.mu.Unlock()
		respond(f.Response(Frame{A: epoch, S: leader, Blob: encodeRecover(h.collectRecoverState())}))

	default:
		respond(f.ErrResponse(api.ENOSYS))
	}
}

// respondErrno answers f with errno, or with an empty success for 0.
func respondErrno(f Frame, respond func(Frame), errno api.Errno) {
	if errno != 0 {
		respond(f.ErrResponse(errno))
		return
	}
	respond(f.Response(Frame{}))
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
	leader := h.leader
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

// handleQSend serves a remote send on a queue held here with the object
// call the self route makes, and acks it once the queue holds the message.
// A copy that moved, is moving or was persisted answers EXDEV and the
// sender re-resolves; a removed queue answers EIDRM. A send records its
// caller as an accessor but is no vote to migrate the queue.
func (h *Helper) handleQSend(f Frame, respond func(Frame)) {
	o, errno := h.servedObject(NSSysVMsg, f.A)
	if errno == 0 {
		q := o.(*msgQueue)
		q.mu.Lock()
		q.voteLocked(f.From, false)
		q.mu.Unlock()
		errno = q.send(f.B, f.Blob)
	}
	respondErrno(f, respond, errno)
}

// servedObject looks up the object a remote operation addresses. During
// shutdown new operations bounce with EXDEV, so the exit path can persist
// or evict the object without fresh waiters re-parking forever.
func (h *Helper) servedObject(kind int, id int64) (sysvObject, api.Errno) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.shutdown {
		return nil, api.EXDEV
	}
	o := h.objectLocked(kind, id)
	if o == nil {
		return nil, api.EIDRM
	}
	return o, 0
}

// handleParkable serves a remote receive (MsgQRecv) or semop (MsgSemOp)
// on an object held here with the object call the self route makes, for
// the caller at f.From; the reply waits while the op is parked. Every
// remote receive and every remote acquire is a vote to migrate the object
// to the caller (§4.2–4.3).
func (h *Helper) handleParkable(f Frame, respond func(Frame)) {
	kind := NSSysVMsg
	if f.Type == MsgSemOp {
		kind = NSSysVSem
	}
	o, errno := h.servedObject(kind, f.A)
	if errno != 0 {
		respond(f.ErrResponse(errno))
		return
	}
	vote := true
	var ops []api.SemBuf
	if kind == NSSysVSem {
		var err error
		if ops, err = decodeSemOps(f.Blob); err != nil {
			respond(f.ErrResponse(api.EINVAL))
			return
		}
		vote = false
		for _, op := range ops {
			if op.Op < 0 {
				vote = true
			}
		}
	}
	hd := o.header()
	hd.mu.Lock()
	won := hd.voteLocked(f.From, vote)
	hd.mu.Unlock()
	reply := func(r sysvResult) {
		if r.errno != 0 {
			respond(f.ErrResponse(r.errno))
			return
		}
		respond(f.Response(Frame{B: r.mtype, Blob: r.data}))
	}
	if kind == NSSysVMsg {
		o.(*msgQueue).recv(f.B, f.C == 1, f.From, f.D, reply)
	} else {
		o.(*semSet).semop(ops, f.C == 1, f.From, f.D, reply)
	}
	if won {
		// Runs outside the handler to avoid recursive RPC.
		go h.migrate(kind, f.A, f.From)
	}
}
