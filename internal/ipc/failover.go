package ipc

import (
	"sync/atomic"

	"graphene/internal/api"
)

// Leader failover on the live RPC path (§4.2, "Leader Recovery"). Every
// leader RPC funnels through callLeader below. Failure is crash-stop: an
// EPIPE or ECONNREFUSED from the leader means it died. Within a sandbox
// only an exit closes a stream a call waits on, and an exiting helper
// hangs up on every dial, so a call to a live leader waits for its answer,
// as a Linux caller waits on a process that is slow to reply. A
// dead-leader error triggers the failover pipeline:
//
//  1. election keyed on the leader epoch the caller saw: every guest
//     thread that observed the same death waits for the same next leader
//     (elect), and one that arrives after it was accepted simply retries,
//  2. re-resolution: the caller re-reads the (possibly new) leader address
//     and transparently retries, bounded by failoverAttempts.
//
// A retry is served only by a new leader, whose tables are rebuilt from
// the members' reports and never saw the first attempt: a request the
// dead leader executed but never answered executes there as if for the
// first time. The caller's own exit retries nothing (its Shutdown closes
// the stream under the call; see failover), and after a sandbox split the
// seceded side cannot dial across and promotes itself (claim).

// failoverAttempts bounds how many distinct leader failures one logical
// RPC will ride through before surfacing the transport error.
const failoverAttempts = 3

// Failover pipeline counters (package-wide, cumulative). Chaos tests
// snapshot deltas; they are diagnostics, not control state.
var (
	statFailovers      atomic.Int64
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
		if leaderAddr == "" {
			h.routeMisses.Add(1)
			statRouteMisses.Add(1)
			addr, err := h.DiscoverLeader()
			if err != nil {
				lastErr = err
				if ferr := h.failover(f.Trace, enclosing, epoch, err); ferr != nil {
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
		if ferr := h.failover(f.Trace, enclosing, epoch, err); ferr != nil {
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
// are best-effort, and its Shutdown, which closes every stream it holds,
// may be what failed the call, with the leader alive. The flag is read
// now, not when the call began, so that close never becomes a retry.
func (h *Helper) failover(trace, enclosing uint64, observed int64, err error) error {
	h.mu.Lock()
	down := h.shutdown
	h.mu.Unlock()
	if down {
		return err
	}
	h.traceElection(trace, enclosing, observed)
	statFailovers.Add(1)
	_, err = h.elect(observed)
	return err
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
	for pid, a := range h.pidOwner {
		if a == addr {
			delete(h.pidOwner, pid)
		}
	}
	h.mu.Unlock()
}
