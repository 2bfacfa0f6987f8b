package ipc

import (
	"fmt"
	"sort"

	"graphene/internal/api"
	"graphene/internal/host"
)

// Chaos invariant checker. After a chaos schedule (kills, resets, drops,
// partitions, heals) settles, the sandbox must be in a state the paper's
// coordination protocols promise regardless of the schedule:
//
//   - at most one accepted leader per (shard, election epoch) — fencing:
//     a deposed shard leader steps down rather than coexisting;
//   - no PID handed out twice (batch ranges never overlap — within one
//     shard leader's table or across shard leaders — and no PID is
//     claimed as locally allocated by two helpers);
//   - no System V key resolving to two live IDs (first-writer-wins
//     registration plus post-heal tombstoning of loser copies);
//   - no key-block lease held by two helpers at once;
//   - sharded placement: every key mapping, lease grant, and ID range a
//     shard leader holds belongs to that shard (keys and leases by the
//     consistent-hash ring, ID ranges by slab arithmetic), so a name
//     always has exactly one authoritative shard.
//
// CheckInvariants inspects live helper state directly (same package) and
// returns one human-readable string per violation; the chaos harness
// fails the test on any non-empty result.

// shardSnap is one helper's led-or-member view of one shard group.
type shardSnap struct {
	shard       int
	isLeader    bool
	leaderEpoch int64
	// leader-only tables (nil when not leading this shard)
	ranges       map[int][]idRange
	leaderKeys   map[int]map[int64]int64 // kind -> key -> id
	leaderLeases map[int]map[int64]string
	removed      map[int]map[int64]struct{}
}

// helperSnapshot is one helper's state copied out under its locks, so
// cross-helper checks run without holding any helper's mutex.
type helperSnapshot struct {
	addr     string
	shards   int
	ring     *shardRing
	groups   []shardSnap
	selfPIDs []int64                 // PIDs this helper claims as locally allocated
	leases   map[int][]int64         // kind -> leased key blocks
	keyCache map[int]map[int64]int64 // kind -> key -> id (cached under leases)
	liveIDs  map[int][]int64         // kind -> IDs of live, unmigrated objects here
}

func snapshotHelper(h *Helper) helperSnapshot {
	s := helperSnapshot{
		addr:     h.Addr,
		shards:   h.shards,
		ring:     h.ring,
		leases:   make(map[int][]int64),
		keyCache: make(map[int]map[int64]int64),
		liveIDs:  make(map[int][]int64),
	}
	h.mu.Lock()
	leaders := make([]*leaderState, len(h.groups))
	for i, g := range h.groups {
		s.groups = append(s.groups, shardSnap{
			shard:       g.shard,
			isLeader:    g.leader != nil,
			leaderEpoch: g.leaderEpoch,
		})
		leaders[i] = g.leader
	}
	for pid, owner := range h.localPIDs {
		if owner == h.Addr {
			s.selfPIDs = append(s.selfPIDs, pid)
		}
	}
	for kind, blocks := range h.keyLeases {
		for b := range blocks {
			s.leases[kind] = append(s.leases[kind], b)
		}
	}
	for kind, m := range h.keyCache {
		dst := make(map[int64]int64, len(m))
		for k, e := range m {
			dst[k] = e.id
		}
		s.keyCache[kind] = dst
	}
	// Copy the object tables, not just references: a heartbeat-triggered
	// reconcile can tombstone queues concurrently with this walk.
	objs := h.objectsLocked()
	h.mu.Unlock()

	for _, o := range objs {
		hd := o.header()
		hd.mu.Lock()
		if hd.liveLocked() {
			s.liveIDs[hd.kind] = append(s.liveIDs[hd.kind], hd.id)
		}
		hd.mu.Unlock()
	}

	for i, leader := range leaders {
		if leader == nil {
			continue
		}
		g := &s.groups[i]
		leader.mu.RLock()
		g.ranges = make(map[int][]idRange)
		for kind, rs := range leader.ranges {
			g.ranges[kind] = append([]idRange(nil), rs...)
		}
		g.leaderKeys = make(map[int]map[int64]int64)
		for kind, m := range leader.keys {
			dst := make(map[int64]int64, len(m))
			for k, e := range m {
				dst[k] = e.id
			}
			g.leaderKeys[kind] = dst
		}
		g.leaderLeases = make(map[int]map[int64]string)
		for kind, m := range leader.leases {
			dst := make(map[int64]string, len(m))
			for b, holder := range m {
				dst[b] = holder
			}
			g.leaderLeases[kind] = dst
		}
		g.removed = make(map[int]map[int64]struct{})
		for kind, m := range leader.removed {
			dst := make(map[int64]struct{}, len(m))
			for id := range m {
				dst[id] = struct{}{}
			}
			g.removed[kind] = dst
		}
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

	// Invariant 0: every helper sees the same topology. Placement checks
	// below use the first helper's ring; a disagreement would make the
	// "one authoritative shard per key" question ill-posed.
	nshards := 1
	var ring *shardRing
	if len(snaps) > 0 {
		nshards = snaps[0].shards
		ring = snaps[0].ring
	}
	for _, s := range snaps {
		if s.shards != nshards {
			bad("topology split: %s runs %d shards, %s runs %d",
				snaps[0].addr, nshards, s.addr, s.shards)
		}
	}

	// Invariant 1: at most one accepted leader per (shard, epoch).
	type shardEpoch struct {
		shard int
		epoch int64
	}
	leadersByEpoch := make(map[shardEpoch][]string)
	for _, s := range snaps {
		for _, g := range s.groups {
			if g.isLeader {
				se := shardEpoch{g.shard, g.leaderEpoch}
				leadersByEpoch[se] = append(leadersByEpoch[se], s.addr)
			}
		}
	}
	for se, addrs := range leadersByEpoch {
		if len(addrs) > 1 {
			sort.Strings(addrs)
			bad("shard %d epoch %d has %d accepted leaders: %v", se.shard, se.epoch, len(addrs), addrs)
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
	// Invariant 2b: no ID range granted twice — neither within one shard
	// leader's table nor across shard leaders (a batch handed out twice
	// would let two helpers mint the same PID without ever colliding in
	// 2a's maps). All led groups' ranges per kind are checked globally;
	// slab striping should make cross-shard overlap impossible, so any
	// hit is a routing or alignment bug.
	type taggedRange struct {
		r     idRange
		shard int
		addr  string
	}
	globalRanges := make(map[int][]taggedRange)
	for _, s := range snaps {
		for _, g := range s.groups {
			for kind, rs := range g.ranges {
				for _, r := range rs {
					globalRanges[kind] = append(globalRanges[kind], taggedRange{r: r, shard: g.shard, addr: s.addr})
				}
			}
		}
	}
	for kind, rs := range globalRanges {
		sort.Slice(rs, func(i, j int) bool { return rs[i].r.lo < rs[j].r.lo })
		for i := 1; i < len(rs); i++ {
			if rs[i].r.lo <= rs[i-1].r.hi {
				bad("kind %d: ranges [%d,%d](%s, shard %d @%s) and [%d,%d](%s, shard %d @%s) overlap",
					kind,
					rs[i-1].r.lo, rs[i-1].r.hi, rs[i-1].r.owner, rs[i-1].shard, rs[i-1].addr,
					rs[i].r.lo, rs[i].r.hi, rs[i].r.owner, rs[i].shard, rs[i].addr)
			}
		}
	}
	// Invariant 2c: in a sharded plane, every range a shard leader granted
	// lies inside that shard's own slabs — the arithmetic that lets any
	// helper route an ID without asking anyone.
	if nshards > 1 {
		for _, s := range snaps {
			for _, g := range s.groups {
				for kind, rs := range g.ranges {
					for _, r := range rs {
						if shardOfID(r.lo, nshards) != g.shard || shardOfID(r.hi, nshards) != g.shard {
							bad("shard %d leader %s kind %d: range [%d,%d] strays outside the shard's slabs",
								g.shard, s.addr, kind, r.lo, r.hi)
						}
					}
				}
			}
		}
	}

	// Invariant 3: no System V key resolving to two distinct live IDs.
	// "Live" means some helper still holds the object un-removed and
	// un-migrated; mappings to dead or tombstoned IDs are stale cache, not
	// split brain.
	live := map[int]map[int64]bool{NSSysVMsg: {}, NSSysVSem: {}}
	for _, s := range snaps {
		for kind, ids := range s.liveIDs {
			for _, id := range ids {
				live[kind][id] = true
			}
		}
	}
	tombstoned := func(kind int, id int64) bool {
		for _, s := range snaps {
			for _, g := range s.groups {
				if g.removed != nil {
					if _, dead := g.removed[kind][id]; dead {
						return true
					}
				}
			}
		}
		return false
	}
	type keyRef struct {
		kind int
		key  int64
	}
	keyIDs := make(map[keyRef]map[int64]string) // -> id -> first source seen
	record := func(kind int, key, id int64, src string) {
		if key == api.IPCPrivate || !live[kind][id] || tombstoned(kind, id) {
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
		for _, g := range s.groups {
			for kind, m := range g.leaderKeys {
				for key, id := range m {
					record(kind, key, id, fmt.Sprintf("shard %d leader %s", g.shard, s.addr))
					// Placement: the mapping must live on the shard the
					// ring assigns the key's block to — a key has exactly
					// one authoritative shard.
					if nshards > 1 && key != api.IPCPrivate {
						if want := ring.keyShard(kind, keyBlock(key)); want != g.shard {
							bad("kind %d key %d recorded at shard %d (%s) but hashes to shard %d",
								kind, key, g.shard, s.addr, want)
						}
					}
				}
			}
		}
		for kind, m := range s.keyCache {
			for key, id := range m {
				record(kind, key, id, "cache "+s.addr)
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

	// Invariant 4: no key-block lease held by two helpers at once, and
	// every lease a shard leader granted is for a block the ring places on
	// that shard.
	type blockRef struct {
		kind  int
		block int64
	}
	holders := make(map[blockRef]string)
	for _, s := range snaps {
		for kind, blocks := range s.leases {
			for _, b := range blocks {
				r := blockRef{kind, b}
				if prev, ok := holders[r]; ok && prev != s.addr {
					bad("kind %d key block %d leased to both %s and %s", kind, b, prev, s.addr)
				} else {
					holders[r] = s.addr
				}
			}
		}
	}
	if nshards > 1 {
		for _, s := range snaps {
			for _, g := range s.groups {
				for kind, m := range g.leaderLeases {
					for b := range m {
						if want := ring.keyShard(kind, b); want != g.shard {
							bad("kind %d block %d lease recorded at shard %d (%s) but hashes to shard %d",
								kind, b, g.shard, s.addr, want)
						}
					}
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
