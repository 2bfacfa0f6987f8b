package ipc

import (
	"fmt"
	"sort"

	"graphene/internal/api"
	"graphene/internal/host"
)

// Chaos invariant checker. After a chaos schedule (kills, resets, delays)
// settles, the sandbox must be in a state the paper's coordination
// protocols promise regardless of the schedule:
//
//   - at most one accepted leader per election epoch;
//   - no PID handed out twice (batch ranges never overlap — within one
//     leader's table or across leaders — and no PID is claimed as locally
//     allocated by two helpers), and no System V ID live at two helpers;
//   - no System V key resolving to two live IDs;
//   - every keyed object a live helper owns resolves at the leader to that
//     (id, owner): the leader is the key's one authority, and
//     msgget/semget register there before they return;
//   - every leader's id -> key index and per-member holdings count agree
//     with a recount of the tables they summarise.
//
// CheckInvariants inspects live helper state directly (same package) and
// returns one human-readable string per violation; the chaos harness
// fails the test on any non-empty result.

// keyedSnap is one live keyed object a helper owns.
type keyedSnap struct {
	sysvRef
	key int64
}

// helperSnapshot is one helper's state copied out under its locks, so
// cross-helper checks run without holding any helper's mutex.
type helperSnapshot struct {
	addr        string
	isLeader    bool
	leaderEpoch int64
	// leader-only tables (nil when not leading)
	ranges     map[int][]idRange
	leaderKeys map[int]map[int64]keyEntry // kind -> key -> (id, owner)
	indexBad   []string                   // checkIndexLocked's findings
	selfPIDs   []int64                    // PIDs this helper claims as locally allocated
	liveIDs    map[int][]int64            // kind -> IDs of live, unmigrated objects here
	// keyed lists the live keyed objects this helper owns; empty once it
	// has shut down (its queues are persisted for adoption, its sets
	// evicted, and neither is its to answer for any more).
	keyed []keyedSnap
	// handoff maps the objects this helper is handing off to the new
	// owner ("" while the handoff is in flight, the receiver once it has
	// committed and left a forwarding tombstone).
	handoff map[sysvRef]string
}

func snapshotHelper(h *Helper) helperSnapshot {
	s := helperSnapshot{
		addr:    h.Addr,
		liveIDs: make(map[int][]int64),
		handoff: make(map[sysvRef]string),
	}
	h.mu.Lock()
	down := h.shutdown
	leader := h.leader
	s.isLeader = leader != nil
	s.leaderEpoch = h.leaderEpoch
	for pid, owner := range h.localPIDs {
		if owner == h.Addr {
			s.selfPIDs = append(s.selfPIDs, pid)
		}
	}
	// Copy the object tables, not just references: a removal or a handoff
	// can change them concurrently with this walk.
	objs := h.objectsLocked()
	h.mu.Unlock()

	for _, o := range objs {
		hd := o.header()
		hd.mu.Lock()
		if hd.liveLocked() {
			s.liveIDs[hd.kind] = append(s.liveIDs[hd.kind], hd.id)
			if !down && hd.key != api.IPCPrivate {
				s.keyed = append(s.keyed, keyedSnap{hd.sysvRef, hd.key})
			}
		}
		if !hd.removed && (hd.migrating || hd.movedTo != "") {
			s.handoff[hd.sysvRef] = hd.movedTo
		}
		hd.mu.Unlock()
	}

	if leader != nil {
		leader.mu.RLock()
		s.ranges = make(map[int][]idRange)
		for kind, rs := range leader.ranges {
			s.ranges[kind] = append([]idRange(nil), rs...)
		}
		s.leaderKeys = make(map[int]map[int64]keyEntry)
		for kind, m := range leader.keys {
			dst := make(map[int64]keyEntry, len(m))
			for k, e := range m {
				dst[k] = e
			}
			s.leaderKeys[kind] = dst
		}
		s.indexBad = leader.checkIndexLocked()
		leader.mu.RUnlock()
	}
	return s
}

// CheckInvariants verifies the sandbox-wide safety invariants across the
// given helpers (typically every live helper in a test sandbox) and
// returns a description of each violation found, empty when all hold.
func CheckInvariants(helpers []*Helper) []string {
	snaps := make([]helperSnapshot, 0, len(helpers))
	for _, h := range helpers {
		if h != nil {
			snaps = append(snaps, snapshotHelper(h))
		}
	}
	var violations []string
	bad := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}

	// Invariant 1: at most one accepted leader per epoch.
	leadersByEpoch := make(map[int64][]string)
	for _, s := range snaps {
		if s.isLeader {
			leadersByEpoch[s.leaderEpoch] = append(leadersByEpoch[s.leaderEpoch], s.addr)
		}
	}
	for epoch, addrs := range leadersByEpoch {
		if len(addrs) > 1 {
			sort.Strings(addrs)
			bad("epoch %d has %d accepted leaders: %v", epoch, len(addrs), addrs)
		}
	}

	// Invariant 2a: no PID claimed as locally allocated by two helpers.
	pidClaim := make(map[int64]string)
	for _, s := range snaps {
		for _, pid := range s.selfPIDs {
			if prev, ok := pidClaim[pid]; ok && prev != s.addr {
				bad("PID %d allocated by both %s and %s", pid, prev, s.addr)
			} else {
				pidClaim[pid] = s.addr
			}
		}
	}
	// Invariant 2b: no ID range granted twice — neither within one
	// leader's table nor across leaders (a batch handed out twice would let
	// two helpers mint the same PID without ever colliding in 2a's maps).
	type taggedRange struct {
		r    idRange
		addr string
	}
	globalRanges := make(map[int][]taggedRange)
	for _, s := range snaps {
		for kind, rs := range s.ranges {
			for _, r := range rs {
				globalRanges[kind] = append(globalRanges[kind], taggedRange{r: r, addr: s.addr})
			}
		}
	}
	for kind, rs := range globalRanges {
		sort.Slice(rs, func(i, j int) bool { return rs[i].r.lo < rs[j].r.lo })
		for i := 1; i < len(rs); i++ {
			if rs[i].r.lo <= rs[i-1].r.hi {
				bad("kind %d: ranges [%d,%d](%s @%s) and [%d,%d](%s @%s) overlap",
					kind,
					rs[i-1].r.lo, rs[i-1].r.hi, rs[i-1].r.owner, rs[i-1].addr,
					rs[i].r.lo, rs[i].r.hi, rs[i].r.owner, rs[i].addr)
			}
		}
	}
	// Invariant 2c: no System V ID held live by two helpers. A System V
	// batch is recorded by the leader's cursor alone, not as a range 2b
	// could check, so an ID minted twice shows here, as two live copies.
	// A copy mid-handoff is the sender's half of a sanctioned pair.
	idHolder := make(map[sysvRef]string)
	for _, s := range snaps {
		for kind, ids := range s.liveIDs {
			for _, id := range ids {
				ref := sysvRef{kind, id}
				if _, moving := s.handoff[ref]; moving {
					continue
				}
				if prev, ok := idHolder[ref]; ok && prev != s.addr {
					bad("kind %d: id %d live at both %s and %s", kind, id, prev, s.addr)
				} else {
					idHolder[ref] = s.addr
				}
			}
		}
	}
	// Invariant 2d: every leader's index and holdings count agree with its
	// tables.
	for _, s := range snaps {
		for _, v := range s.indexBad {
			bad("leader %s: %s", s.addr, v)
		}
	}

	// Invariant 3: no System V key resolving to two distinct live IDs.
	// "Live" means some helper still holds the object un-removed and
	// un-migrated; mappings to dead IDs are stale cache, not split brain.
	live := map[int]map[int64]bool{NSSysVMsg: {}, NSSysVSem: {}}
	for _, s := range snaps {
		for kind, ids := range s.liveIDs {
			for _, id := range ids {
				live[kind][id] = true
			}
		}
	}
	type keyRef struct {
		kind int
		key  int64
	}
	keyIDs := make(map[keyRef]map[int64]string) // -> id -> first source seen
	record := func(kind int, key, id int64, src string) {
		if key == api.IPCPrivate || !live[kind][id] {
			return
		}
		r := keyRef{kind, key}
		if keyIDs[r] == nil {
			keyIDs[r] = make(map[int64]string)
		}
		if _, ok := keyIDs[r][id]; !ok {
			keyIDs[r][id] = src
		}
	}
	for _, s := range snaps {
		for kind, m := range s.leaderKeys {
			for key, e := range m {
				record(kind, key, e.id, "leader "+s.addr)
			}
		}
	}
	for r, ids := range keyIDs {
		if len(ids) > 1 {
			var detail []string
			for id, src := range ids {
				detail = append(detail, fmt.Sprintf("id %d (%s)", id, src))
			}
			sort.Strings(detail)
			bad("kind %d key %d resolves to %d live IDs: %v", r.kind, r.key, len(ids), detail)
		}
	}

	// Invariant 4: every keyed object a live helper owns resolves at the
	// leader to that (id, owner). The leader is the key's one authority
	// and msgget/semget register there before returning, so a live object
	// the leader does not map is a create nobody else can find, and a
	// mapping naming another owner sends every lookup astray. The leader
	// is the newest-epoch one among the helpers given; with none among
	// them the check is skipped. An ownership handoff is the one
	// sanctioned lag: the sender's chown reaches the leader only after the
	// receiver installed, so while the mapped owner's copy is mid-handoff
	// or forwards to the holder, the mapping names the sender.
	handingOff := make(map[string]map[sysvRef]string, len(snaps))
	for _, s := range snaps {
		handingOff[s.addr] = s.handoff
	}
	var l *helperSnapshot
	for i := range snaps {
		if snaps[i].isLeader && (l == nil || snaps[i].leaderEpoch > l.leaderEpoch) {
			l = &snaps[i]
		}
	}
	if l != nil {
		for _, s := range snaps {
			for _, o := range s.keyed {
				e, mapped := l.leaderKeys[o.kind][o.key]
				if mapped && e.id == o.id && e.owner != s.addr {
					if to, ok := handingOff[e.owner][o.sysvRef]; ok && (to == "" || to == s.addr) {
						continue // the handoff's chown is still on its way
					}
				}
				switch {
				case !mapped:
					bad("kind %d key %d: object %d owned by %s is not mapped at leader %s",
						o.kind, o.key, o.id, s.addr, l.addr)
				case e.id != o.id || e.owner != s.addr:
					bad("kind %d key %d: object %d owned by %s resolves at leader %s to id %d owned by %s",
						o.kind, o.key, o.id, s.addr, l.addr, e.id, e.owner)
				}
			}
		}
	}

	// Invariant 5: no kernel-bypass ring segment bridges two sandboxes or
	// outlives an endpoint — "no ring mapped across a split". A live (non-
	// revoked) segment requires both its processes alive and co-sandboxed;
	// the monitor's split hook and the kernel's exit hook revoke anything
	// else. Checked against the kernel registry with one re-read: a
	// process exiting between the snapshot and the liveness probe revokes
	// its segments atomically under the kernel lock, so a segment that
	// still looks bad on the second read is a real violation.
	kernels := make(map[*host.Kernel]struct{})
	for _, h := range helpers {
		if h != nil {
			kernels[h.pal.Kernel()] = struct{}{}
		}
	}
	for k := range kernels {
		for _, ri := range k.RingSegments() {
			if ri.Revoked {
				continue
			}
			cp, cl := k.Process(ri.CreatorPID), k.Process(ri.ClientPID)
			if cp != nil && cl != nil && cp.SandboxID == cl.SandboxID {
				continue
			}
			stillBad := true
			for _, ri2 := range k.RingSegments() {
				if ri2.ID == ri.ID && ri2.Revoked {
					stillBad = false
					break
				}
			}
			if !stillBad {
				continue
			}
			switch {
			case cp == nil || cl == nil:
				bad("ring segment %d (creator pid %d, client pid %d) live with a dead endpoint",
					ri.ID, ri.CreatorPID, ri.ClientPID)
			default:
				bad("ring segment %d bridges sandboxes %d and %d (creator pid %d, client pid %d)",
					ri.ID, cp.SandboxID, cl.SandboxID, ri.CreatorPID, ri.ClientPID)
			}
		}
	}

	sort.Strings(violations)
	return violations
}
