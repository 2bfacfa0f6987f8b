package ipc

import (
	"sort"

	"graphene/internal/api"
)

// Sharded namespace plane. The single-coordinator design (§4) funnels
// every PID grant, SysV key miss, and pgroup lookup through one leader
// picoprocess; its tables grow with the sandbox and Fig. 5's RPC cost
// grows super-linearly. Following the multiserver argument of LibrettOS,
// the namespace is partitioned across N coordinator shards:
//
//   - ID spaces (PIDs, SysV msg/sem IDs) are partitioned into fixed-width
//     slabs striped round-robin over the shards, so the shard owning an ID
//     is pure arithmetic (shardOfID) and a shard leader's allocation
//     cursor only ever mints IDs from its own slabs;
//   - SysV key blocks and process groups are placed by consistent hashing
//     over a vnode ring (shardRing), so changing the shard count moves
//     only ~1/N of the keys;
//   - each shard runs the full PR 3-4 coordination stack independently —
//     its own leader, monotonic election epoch, fencing, high-water
//     marks, replay dedup, and recovery — held in one shardGroup per
//     shard on every helper. A dead shard triggers a single-flight
//     election for that shard alone; the others keep serving.
//
// Keyed SysV objects allocate their proposed ID from the key's shard, so
// an object's ID-routed operations (owner lookup, chown, migrate, remove)
// land on the same shard that holds its key mapping — one shard is
// authoritative for the whole object.

// slabWidth is the ID-space stripe width. 2^20 IDs per slab keeps slab
// arithmetic trivial while making cursor wrap (2^63 / 2^20 slabs)
// unreachable in practice.
const slabWidth = 1 << 20

// shardOfID maps an ID to the shard whose slab stripe contains it.
func shardOfID(id int64, n int) int {
	if n <= 1 || id <= 0 {
		return 0
	}
	return int(((id - 1) / slabWidth) % int64(n))
}

// ringVnodes is the number of ring points per shard. 64 vnodes keeps the
// worst-case load skew low while the whole ring stays small enough that a
// lookup is one binary search over n*64 points.
const ringVnodes = 64

type ringPoint struct {
	hash  uint64
	shard int
}

// shardRing places hash-routed names (SysV key blocks, process groups)
// on shards by consistent hashing: each shard projects ringVnodes points
// onto a 64-bit circle and a name belongs to the first point at or after
// its hash. Adding or removing a shard moves only the names between the
// affected points — about 1/N of them (pinned by TestShardRingRebalance).
type shardRing struct {
	n      int
	points []ringPoint
}

// newShardRing builds the ring of an n-shard plane; the 1-shard plane has
// none (a nil ring places everything on shard 0).
func newShardRing(n int) *shardRing {
	if n <= 1 {
		return nil
	}
	r := &shardRing{n: n}
	r.points = make([]ringPoint, 0, n*ringVnodes)
	for s := 0; s < n; s++ {
		for v := 0; v < ringVnodes; v++ {
			h := mix64(int64(s+1)*1_000_003 + int64(v))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

func (r *shardRing) owner(h uint64) int {
	if r == nil || r.n <= 1 || len(r.points) == 0 {
		return 0
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// keyShard places a SysV key block. The block (not the raw key) is the
// placement unit so a block lease and every key inside it live on one
// shard.
func (r *shardRing) keyShard(kind int, block int64) int {
	if r == nil || r.n <= 1 {
		return 0
	}
	return r.owner(mix64(block<<3 | int64(kind&3)))
}

// pgShard places a process group; a group's membership set lives wholly
// on one shard, so signal fan-out still reads one authority.
func (r *shardRing) pgShard(pgid int64) int {
	if r == nil || r.n <= 1 {
		return 0
	}
	return r.owner(mix64(pgid<<3 | 7))
}

// addrShard places a helper's "home" shard — the one its PID batches and
// anonymous (IPCPrivate) ID batches come from — spreading allocation load
// across the plane.
func (r *shardRing) addrShard(addr string) int {
	if r == nil || r.n <= 1 {
		return 0
	}
	return r.owner(mix64(int64(fnv1a(addr)) | 1<<62))
}

// shardGroup is one helper's view of one namespace shard: the full
// leader-tracking, failover, election, and reconcile state that PR 3-4
// kept singly on the Helper, now instantiated per shard. Every field is
// guarded by the owning Helper's mu. Helper embeds the shard-0 group, so
// the single-shard field names (h.leaderAddr, h.leaderEpoch, ...) keep
// meaning what they always did.
type shardGroup struct {
	// shard is this group's index in the topology.
	shard int

	// leaderAddr is the believed leader address for this shard ("" =
	// unknown); leader is non-nil when this helper IS the shard's leader.
	leaderAddr       string
	leader           *leaderState
	leaderEpoch      int64
	leaderStateEpoch int64

	// hbStop stops the shard's heartbeat loop (led shards only);
	// leaderChange is closed and replaced whenever leaderAddr changes.
	hbStop       chan struct{}
	leaderChange chan struct{}

	// Single-flight failover state: failEpoch counts completed failovers,
	// failActive/failDone collapse concurrent observers of a dead shard
	// leader into one election.
	failEpoch  int64
	failActive bool
	failDone   chan struct{}

	election *electionState
	// reportedTo is the shard leader this helper last reconciled with.
	reportedTo  string
	reconciling bool
}

// idbKey keys per-(kind, shard) allocation batches and high-water marks.
type idbKey struct {
	kind  int
	shard int
}

// routeShard resolves which shard serves f — the routing layer in front
// of callLeader. ID-keyed requests use slab arithmetic; key- and
// pgid-keyed ones use the ring; batch allocation goes to the sender's
// home shard. Always 0 in a 1-shard topology.
func (h *Helper) routeShard(f *Frame) int {
	if h.shards <= 1 {
		return 0
	}
	switch f.Type {
	case MsgNSAlloc:
		return h.homeShard
	case MsgNSClaim, MsgNSQuery, MsgKeyOwner, MsgKeyChown, MsgKeyRemove:
		return shardOfID(f.B, h.shards)
	case MsgKeyGet, MsgKeyRegister:
		if f.B == api.IPCPrivate {
			// Anonymous objects have no key to hash; they live on the
			// creator's home shard (sysvShardOf), and everyone routing by
			// the literal IPCPrivate key is the creator itself.
			return h.homeShard
		}
		return h.ring.keyShard(int(f.A), keyBlock(f.B))
	case MsgKeyEvict:
		// B is already a block number on the leader-bound release path.
		return h.ring.keyShard(int(f.A), f.B)
	case MsgPgJoin, MsgPgLeave, MsgPgMembers:
		return h.ring.pgShard(f.A)
	case MsgQMigrate, MsgSemMigrate:
		return shardOfID(f.A, h.shards)
	}
	return 0
}

// groupFor returns the shard group addressed by a frame, nil when the
// frame's shard index is outside this helper's topology (a frame from a
// differently-sized sandbox; the dispatcher bounces it).
func (h *Helper) groupFor(shard int32) *shardGroup {
	if int(shard) < 0 || int(shard) >= len(h.groups) {
		return nil
	}
	return h.groups[shard]
}

// ledStateFor returns the leaderState this helper runs for the frame's
// shard, nil when it does not lead that shard — the gate in front of
// every leader-only handler.
func (h *Helper) ledStateFor(f *Frame) *leaderState {
	h.mu.Lock()
	defer h.mu.Unlock()
	if g := h.groupFor(f.Shard); g != nil {
		return g.leader
	}
	return nil
}

// keyShardOf is the key-block routing used by the SysV fast paths.
func (h *Helper) keyShardOf(kind int, key int64) int {
	return h.ring.keyShard(kind, keyBlock(key))
}

// sysvShardOf places a System V object's authoritative shard at create
// time: keyed objects live on the key block's ring shard, anonymous
// (IPCPrivate) ones on the creator's home shard. The proposed ID is then
// allocated from that shard's slabs, so by-ID routing agrees forever.
func (h *Helper) sysvShardOf(kind int, key int64) int {
	if h.shards <= 1 {
		return 0
	}
	if key == api.IPCPrivate {
		return h.homeShard
	}
	return h.keyShardOf(kind, key)
}

// leadsShard reports whether this helper is currently the given shard's
// leader. Caller holds h.mu.
func (h *Helper) leadsShardLocked(shard int) bool {
	g := h.groupFor(int32(shard))
	return g != nil && g.leader != nil
}

func (h *Helper) leadsShard(shard int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.leadsShardLocked(shard)
}

// TransferShard gracefully hands one led shard to another helper: the
// receiver promotes under a pre-fenced epoch (one above ours) and
// announces; we step down on its ack. Unlike a crash election there is no
// settling window and no routing disruption on other shards.
func (h *Helper) TransferShard(shard int, to string) error {
	h.mu.Lock()
	g := h.groupFor(int32(shard))
	if g == nil || g.leader == nil || to == h.Addr {
		h.mu.Unlock()
		return api.EPERM
	}
	epoch := g.leaderEpoch + 1
	h.mu.Unlock()
	c, err := h.dial(to)
	if err != nil {
		return err
	}
	if _, err := c.CallTimeout(Frame{Type: MsgShardHandoff, A: epoch, Shard: int32(shard), From: h.Addr}, rpcCallTimeout); err != nil {
		return err
	}
	h.stepDownShard(g, epoch, to)
	return nil
}

// Shards returns the topology's shard count (1 for the classic
// single-coordinator plane).
func (h *Helper) Shards() int { return h.shards }

// LiveShards counts shards with a known, believed-live leader.
func (h *Helper) LiveShards() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, g := range h.groups {
		if g.leaderAddr != "" {
			n++
		}
	}
	return n
}

// ShardLeaderAddrs snapshots the believed leader address of every shard
// (index = shard; "" = unknown). Checkpoint capture hands the slice to
// forked children so they join the sharded plane without broadcast
// discovery.
func (h *Helper) ShardLeaderAddrs() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, len(h.groups))
	for i, g := range h.groups {
		out[i] = g.leaderAddr
	}
	return out
}

// ShardEpoch returns the accepted election epoch for one shard.
func (h *Helper) ShardEpoch(shard int) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if g := h.groupFor(int32(shard)); g != nil {
		return g.leaderEpoch
	}
	return 0
}

// SetShardLeader pre-seeds the routing cache for one shard (test and
// bench harnesses use it to skip broadcast discovery when the topology
// is built by hand).
func (h *Helper) SetShardLeader(shard int, addr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if g := h.groupFor(int32(shard)); g != nil && g.leader == nil {
		h.setLeaderLocked(g, addr, g.leaderEpoch)
	}
}
