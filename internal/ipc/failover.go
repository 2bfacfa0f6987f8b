package ipc

import (
	"sync/atomic"

	"graphene/internal/api"
)

// Leader failover on the live RPC path (§4.2, "Leader Recovery"). Every
// leader RPC funnels through callLeader below. Failure is crash-stop: a
// leader is dead when its stream says so — the stream tore down mid-call,
// or nobody is listening at the cached address, both of which a
// picoprocess exit produces at once. A call to a live leader waits for its
// answer, as a Linux caller waits on a process that is slow to reply. A
// dead-leader error triggers the failover pipeline:
//
//  1. election keyed on the leader epoch the caller saw: every guest
//     thread that observed the same death waits for the same next leader
//     (elect), and one that arrives after it was accepted simply retries,
//  2. re-resolution: the caller re-reads the (possibly new) leader address
//     and transparently retries, bounded by failoverAttempts,
//  3. replay dedup: non-idempotent requests carry a ReqID minted once per
//     logical operation; a leader that already executed the request
//     replays its recorded response instead of executing twice (the retry
//     may reach the same, still-alive leader whose response was lost).

// failoverAttempts bounds how many distinct leader failures one logical
// RPC will ride through before surfacing the transport error.
const failoverAttempts = 3

// Failover pipeline counters (package-wide, cumulative). Chaos tests
// snapshot deltas; they are diagnostics, not control state.
var (
	statFailovers      atomic.Int64
	statReplaysDeduped atomic.Int64
	statMembersReaped  atomic.Int64
	statStaleAnnounces atomic.Int64
	statRouteHits      atomic.Int64
	statRouteMisses    atomic.Int64
)

// FailoverCounters is a snapshot of the failover pipeline's counters.
type FailoverCounters struct {
	// Failovers counts leader calls that found the leader dead and ran an
	// election (or waited for one) from the RPC path.
	Failovers int64
	// ReplaysDeduped counts non-idempotent requests answered from the
	// replay cache instead of being executed a second time.
	ReplaysDeduped int64
	// MembersReaped counts crashed (non-graceful) members whose namespace
	// state the leader reclaimed.
	MembersReaped int64
	// StaleAnnouncementsDropped counts MsgNewLeader frames rejected for
	// carrying an epoch older than the accepted leader's.
	StaleAnnouncementsDropped int64
	// RouteHits / RouteMisses count leader calls that found a cached
	// leader address vs. ones that fell back to broadcast discovery.
	RouteHits   int64
	RouteMisses int64
}

// ReadFailoverCounters snapshots the pipeline counters.
func ReadFailoverCounters() FailoverCounters {
	return FailoverCounters{
		Failovers:                 statFailovers.Load(),
		ReplaysDeduped:            statReplaysDeduped.Load(),
		MembersReaped:             statMembersReaped.Load(),
		StaleAnnouncementsDropped: statStaleAnnounces.Load(),
		RouteHits:                 statRouteHits.Load(),
		RouteMisses:               statRouteMisses.Load(),
	}
}

// ResetFailoverCounters zeroes every pipeline counter — chaos suites reset
// before a schedule and emit the snapshot at teardown, so CI logs show
// what each run actually exercised without cross-test bleed.
func ResetFailoverCounters() {
	statFailovers.Store(0)
	statReplaysDeduped.Store(0)
	statMembersReaped.Store(0)
	statStaleAnnounces.Store(0)
	statRouteHits.Store(0)
	statRouteMisses.Store(0)
}

// deadLeaderErr classifies the transport errors that mean "the peer at the
// leader address is gone": the stream died under the call (EPIPE), or no
// listener answers the dial (ECONNREFUSED).
func deadLeaderErr(err error) bool {
	return err == api.EPIPE || err == api.ECONNREFUSED
}

// needsReqID marks the non-idempotent requests — creates, batch grants,
// migrations — whose replay after a lost response must be deduplicated.
// A MsgKeyGet may create exactly when it proposes an ID (D != 0): a create
// or an IPC_PRIVATE get, which creates without IPC_CREAT. A plain lookup
// proposes none and, like everything else, retries safely without a token:
// it simply re-executes.
func needsReqID(f *Frame) bool {
	switch f.Type {
	case MsgKeyGet:
		return f.D != 0
	case MsgNSAlloc, MsgQMigrate, MsgSemMigrate:
		return true
	}
	return false
}

// leaderOnly marks request types only the leader serves. EPERM from one of
// these means the peer is a never-promoted helper: the cached leader
// address is stale, not the request invalid.
func leaderOnly(t MsgType) bool {
	switch t {
	case MsgNSAlloc, MsgNSClaim, MsgKeyGet, MsgKeyOwner, MsgKeyChown, MsgKeyRemove,
		MsgPgJoin, MsgPgLeave, MsgPgMembers:
		return true
	}
	return false
}

// callLeader performs an RPC against the leader, short-circuiting when
// this helper is the leader, and rides through leader failures per the
// pipeline described at the top of the file.
func (h *Helper) callLeader(f Frame) (Frame, error) {
	f.From = h.Addr
	// enclosing is the caller's span (a syscall-level trace root, usually);
	// each retry attempt gets its own sibling span under it.
	enclosing := f.Span
	var lastErr error
	for attempt := 0; attempt <= failoverAttempts; attempt++ {
		f.Span = enclosing
		h.mu.Lock()
		leaderAddr := h.leaderAddr
		isLeader := h.leader != nil
		down := h.shutdown
		epoch := h.leaderEpoch
		h.mu.Unlock()

		if isLeader {
			respCh := make(chan Frame, 1)
			h.dispatch(f, func(r Frame) { respCh <- r })
			r := <-respCh
			if r.Err != 0 {
				return r, r.Err
			}
			return r, nil
		}
		// Mint the idempotency token once; retries of this logical request
		// reuse it so the (possibly same) leader can deduplicate.
		if f.ReqID == 0 && needsReqID(&f) {
			f.ReqID = h.reqSeq.Add(1)
		}
		if leaderAddr == "" {
			h.routeMisses.Add(1)
			statRouteMisses.Add(1)
			addr, err := h.DiscoverLeader()
			if err != nil {
				lastErr = err
				if ferr := h.failover(f.Trace, enclosing, epoch, down, err); ferr != nil {
					return Frame{}, ferr
				}
				continue
			}
			leaderAddr = addr
		} else if attempt == 0 {
			h.routeHits.Add(1)
			statRouteHits.Add(1)
		}
		var resp Frame
		start, parent := h.beginSpan(&f)
		c, err := h.dial(leaderAddr)
		if err == nil {
			resp, err = c.Call(f)
		}
		h.endSpan(&f, start, parent, err)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if err == api.EPERM && leaderOnly(f.Type) {
			// The peer answered but does not lead: stale address.
			h.mu.Lock()
			if h.leaderAddr == leaderAddr {
				h.leaderAddr = ""
			}
			h.mu.Unlock()
			continue
		}
		if !deadLeaderErr(err) {
			return resp, err
		}
		if ferr := h.failover(f.Trace, enclosing, epoch, down, err); ferr != nil {
			return Frame{}, ferr
		}
	}
	return Frame{}, lastErr
}

// failover replaces the leader the caller found dead (err), inside the
// caller's trace, and returns the error to surface or nil to retry.
// observed is the leader epoch the caller read before its call, so every
// guest thread that saw the same death waits for the same next leader. A
// helper that is itself shutting down does not elect: its cleanup RPCs
// are best-effort.
func (h *Helper) failover(trace, enclosing uint64, observed int64, down bool, err error) error {
	if down {
		return err
	}
	h.traceElection(trace, enclosing, observed)
	statFailovers.Add(1)
	_, err = h.elect(observed)
	return err
}

// dedupKey identifies a logical request across replays. gen is the
// receiver's leader-state generation (the epoch at which its current
// leaderState was created): a replay against the same state must hit the
// cache, while a retry landing on a *fresh* leaderState — the helper was
// promoted after the request's first attempt reached it as a member —
// must re-execute there rather than replay a response minted against
// tables that no longer exist.
type dedupKey struct {
	from string
	id   uint64
	gen  int64
}

// dedupCacheSize bounds the replay cache (FIFO eviction). Replays arrive
// within one failover window of the original, so a shallow cache suffices.
const dedupCacheSize = 1024

// dedupCheck consults the replay cache for f. If the request was already
// executed, it replays the recorded response through respond and reports
// done=true. Otherwise it returns a respond wrapper that records the
// response — before delivering it, so a replay arriving between execution
// and delivery still cannot re-execute.
func (h *Helper) dedupCheck(f *Frame, respond func(Frame)) (func(Frame), bool) {
	if f.ReqID == 0 || f.From == "" || f.IsResponse() {
		return respond, false
	}
	h.mu.Lock()
	k := dedupKey{from: f.From, id: f.ReqID, gen: h.leaderStateEpoch}
	if r, ok := h.dedup[k]; ok {
		h.mu.Unlock()
		statReplaysDeduped.Add(1)
		respond(r)
		return nil, true
	}
	h.mu.Unlock()
	orig := respond
	return func(r Frame) {
		h.mu.Lock()
		if h.dedup == nil {
			h.dedup = make(map[dedupKey]Frame)
		}
		if len(h.dedupOrder) >= dedupCacheSize {
			delete(h.dedup, h.dedupOrder[0])
			h.dedupOrder = h.dedupOrder[1:]
		}
		h.dedup[k] = r
		h.dedupOrder = append(h.dedupOrder, k)
		h.mu.Unlock()
		orig(r)
	}, false
}

// reapMember reclaims a crashed member's slice of the distributed state
// when this helper leads: its PID ranges, its owned System V objects
// (removed, so parked waiters resolve to EIDRM instead of retrying
// forever), and its process-group membership. Graceful departures
// (MsgBye) are never reaped; reap itself is idempotent per address.
func (h *Helper) reapMember(addr string) {
	h.mu.Lock()
	l := h.leader
	down := h.shutdown
	h.mu.Unlock()
	if l == nil || down || addr == "" || addr == h.Addr || !l.reap(addr) {
		return
	}
	statMembersReaped.Add(1)
	// Purge local caches pointing at the dead member.
	h.mu.Lock()
	for pid, a := range h.localPIDs {
		if a == addr && pid != h.GuestPID {
			delete(h.localPIDs, pid)
		}
	}
	for _, m := range h.ownerCache {
		for id, a := range m {
			if a == addr {
				delete(m, id)
			}
		}
	}
	h.mu.Unlock()
	h.pidOwner.deleteValue(func(a string) bool { return a == addr })
}
