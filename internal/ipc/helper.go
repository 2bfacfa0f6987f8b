package ipc

import (
	"log"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/pal"
)

// PIDBatchSize is how many process IDs the leader hands out per request
// (50 by default, §4.3).
const PIDBatchSize = 50

// Tunables for the ablation benchmarks (DESIGN.md): each disables one of
// §4.3's optimizations so its contribution can be measured. All default
// to the optimized behavior.
var (
	migrationEnabled atomic.Bool
	connCaching      atomic.Bool
	pidBatchOverride atomic.Int64
	keyLeasesOn      atomic.Bool
)

func init() {
	migrationEnabled.Store(true)
	connCaching.Store(true)
	pidBatchOverride.Store(PIDBatchSize)
	keyLeasesOn.Store(true)
}

// SetMigrationEnabled toggles SysV ownership migration (ablation).
func SetMigrationEnabled(on bool) { migrationEnabled.Store(on) }

// SetConnCaching toggles point-to-point stream caching (ablation).
func SetConnCaching(on bool) { connCaching.Store(on) }

// SetPIDBatch overrides the leader's PID batch size (ablation; 1 forces a
// leader round trip per fork).
func SetPIDBatch(n int64) {
	if n < 1 {
		n = 1
	}
	pidBatchOverride.Store(n)
}

// SetKeyLeases toggles System V key block leasing (ablation; off forces a
// leader round trip per msgget/semget, the pre-lease behavior).
func SetKeyLeases(on bool) { keyLeasesOn.Store(on) }

// idBatchSize is the batch size for System V ID namespaces.
const idBatchSize = 32

// persistDir is where exiting owners serialize message queues (§4.2,
// "a common file naming scheme to serialize message queues to disk").
const persistDir = "/var/ipc"

// Service is the libOS's upcall surface: the helper calls it to act on
// RPCs that target local abstractions (signals, exit notifications, /proc
// metadata). Implementations must service these from local state only.
type Service interface {
	// DeliverSignal marks sig pending for the local thread group.
	DeliverSignal(target int64, sig api.Signal) api.Errno
	// NotifyExit records a child's exit and wakes waiters.
	NotifyExit(child int64, status int64, sig api.Signal)
	// ProcMeta reads a /proc/[pid] field for a local process.
	ProcMeta(pid int64, field string) (string, api.Errno)
}

// AddrForHostPID derives a helper's stream address from its host PID.
func AddrForHostPID(hostPID int) string {
	return "ipc." + strconv.Itoa(hostPID)
}

type idBatch struct {
	next, hi int64 // next free and inclusive upper bound; empty if next > hi
	// shard is the namespace shard that granted this batch. A shard
	// step-down must drop only the batches that shard granted; the others
	// stay valid.
	shard int
}

// Helper is the per-picoprocess IPC helper thread (§4.1): it services RPCs
// from other picoprocesses in the sandbox and runs the client side of the
// coordination protocol. It is hidden from the application.
type Helper struct {
	pal *pal.PAL
	svc Service

	// Addr is this helper's stream address.
	Addr string
	// GuestPID is the owning process's PID in the libOS PID namespace.
	GuestPID int64

	listener *host.Handle
	bsub     *host.BroadcastSub

	mu sync.Mutex
	// shardGroup is shard 0's coordination state — leader tracking
	// (leaderAddr/leader/leaderEpoch/leaderStateEpoch), the heartbeat and
	// leader-change channels, single-flight failover epochs, the election
	// round, and reconcile bookkeeping. The embedding keeps the classic
	// single-coordinator field names (h.leaderAddr, h.leaderEpoch, ...)
	// meaning what they always did: shard 0 is the whole namespace in a
	// 1-shard topology. In a sharded topology groups[i] holds shard i's
	// copy of the same machinery; groups[0] aliases this embedded struct.
	// Every shardGroup field is guarded by mu.
	shardGroup
	groups []*shardGroup

	// Fixed topology: shard count, the consistent-hash ring placing key
	// blocks and pgroups, and this helper's home shard (where its PID and
	// anonymous-ID batches come from).
	shards    int
	ring      *shardRing
	homeShard int

	// routeHits/routeMisses count shard routings served from a cached
	// shard-leader address vs. ones that needed broadcast discovery.
	routeHits   atomic.Uint64
	routeMisses atomic.Uint64

	// rpcShardHistNames pre-renders "rpc.<type>.s<N>" per-shard histogram
	// names ([shard][msgtype]; empty in single-shard topologies) so
	// endSpan's per-shard observation never concatenates.
	rpcShardHistNames [][]string

	// reqSeq mints ReqIDs for non-idempotent leader requests; dedup (with
	// FIFO eviction order dedupOrder) is the leader-side replay cache.
	reqSeq     atomic.Uint64
	dedup      map[dedupKey]Frame
	dedupOrder []dedupKey

	// conns and pidOwner are the RPC hot path's caches — the point-to-point
	// stream cache and the PID owner cache. They live outside h.mu in
	// lock-sharded maps so concurrent RPCs from many guest threads don't
	// serialize on the helper's global mutex (Fig. 5 at 48 processes).
	conns    shardedMap[*Conn]
	pidOwner shardedIntMap[string] // cache: guest PID -> final helper address

	// incoming holds the live accepted connections, for Shutdown to close;
	// dropConn removes a conn when its peer hangs up.
	incoming map[*Conn]struct{}

	localPIDs map[int64]string // PIDs allocated here -> their helper address
	pidBatch  idBatch
	// pidSkip holds PIDs inside this helper's granted batch that are
	// already taken (the helper's own PID, or a PID another process claimed
	// via MsgNSClaim after this batch was granted); AllocPID skips them.
	pidSkip map[int64]struct{}

	idBatches map[idbKey]*idBatch // NSSysVMsg / NSSysVSem local batches, per granting shard
	// nsHwm is the highest namespace allocation cursor heard in a MsgNSHwm
	// broadcast (or captured from our own leaderState at step-down), per
	// (kind, shard). Recover-state reports fold it into batchHi so a new
	// shard leader's cursor clears batches granted to helpers that cannot
	// report — the dead or partitioned-away old leader's own batch in
	// particular.
	nsHwm map[idbKey]int64

	queues      map[int64]*msgQueue
	qOwnerCache map[int64]string
	sems        map[int64]*semSet
	semOwner    map[int64]string

	// keyLeases are the System V key blocks this helper holds from the
	// leader; keyCache holds the key mappings under those blocks, for
	// which this helper (not the leader) is authoritative until it exits.
	keyLeases map[int]map[int64]struct{} // kind -> key block -> held
	keyCache  map[int]map[int64]keyEntry // kind -> key -> mapping
	// leaseCount mirrors the total block count in keyLeases so the key
	// fast path can skip the locked lease lookup while no lease is held
	// (the common case for the leader, whose resolutions are local
	// anyway).
	leaseCount atomic.Int64

	// pendingRegs queues lazy key registrations for the background
	// flusher; regFlushing is true while a drainPendingRegs goroutine
	// is live.
	pendingRegs []pendingReg
	regFlushing bool

	// bg tracks fire-and-forget notification goroutines (object-removal
	// fan-out). Shutdown waits for them before tearing down connections,
	// so a process that removes an object and immediately exits cannot
	// lose the leader's MsgKeyRemove to the teardown race.
	bg sync.WaitGroup

	// ringState is the client side of the kernel-bypass SysV datapath
	// (ring.go): per-object attach counters and mapped segments.
	// ringHits/ringMisses count fast-path operations served from a ring
	// vs. ones that had to fall back (full ring, revocation, unmodeled
	// ops); both sides' gauges ride RegisterGauges.
	ringState  ringClientState
	ringHits   atomic.Uint64
	ringMisses atomic.Uint64

	// ownPgid is this process's group for recovery re-registration.
	// (election, reportedTo, and reconciling live in each shardGroup.)
	ownPgid int64

	shutdown bool
	// shutdownCh is closed exactly once when Shutdown begins, so sleeps on
	// background paths (the post-election reconcile stagger, ring drainers)
	// can select against it instead of blocking a process exit behind a
	// timer.
	shutdownCh chan struct{}
}

// NewLeader creates the sandbox's first helper, which acts as the
// namespace leader. guestPID is the process's PID (1 for an init process).
func NewLeader(p *pal.PAL, svc Service, guestPID int64) (*Helper, error) {
	h, err := newHelper(p, svc, guestPID, 1)
	if err != nil {
		return nil, err
	}
	h.leader = newLeaderState()
	h.leaderAddr = h.Addr
	// Claim the leader's own PID before seeding the batch, so the batch
	// starts past it and can never mint it (regardless of where in the ID
	// space the init PID sits).
	h.leader.claimRange(NSPid, guestPID, h.Addr)
	lo, hi := h.leader.allocRange(NSPid, PIDBatchSize, h.Addr)
	h.pidBatch = idBatch{next: lo, hi: hi}
	h.start()
	h.mu.Lock()
	h.startHeartbeatLocked(&h.shardGroup)
	h.mu.Unlock()
	return h, nil
}

// NewShardLeader creates a coordinator picoprocess that leads one shard
// of an nshards-wide namespace plane. peers[i] is the believed leader
// address of shard i ("" when unknown — shards booted later are found by
// broadcast discovery or their heartbeats).
func NewShardLeader(p *pal.PAL, svc Service, guestPID int64, shard, nshards int, peers []string) (*Helper, error) {
	if nshards < 1 {
		nshards = 1
	}
	if shard < 0 || shard >= nshards {
		return nil, api.EINVAL
	}
	h, err := newHelper(p, svc, guestPID, nshards)
	if err != nil {
		return nil, err
	}
	g := h.groups[shard]
	g.leader = newLeaderStateShard(shard, nshards)
	g.leaderAddr = h.Addr
	for i, addr := range peers {
		if i < len(h.groups) && i != shard && addr != "" {
			h.groups[i].leaderAddr = addr
			h.groups[i].reportedTo = addr
		}
	}
	// Claim this process's PID at the shard owning its slab; seed the PID
	// batch eagerly only when the home shard is the one led here.
	ownsPID := shardOfID(guestPID, nshards) == shard
	if ownsPID {
		g.leader.claimRange(NSPid, guestPID, h.Addr)
	}
	if h.homeShard == shard {
		lo, hi := g.leader.allocRange(NSPid, PIDBatchSize, h.Addr)
		h.pidBatch = idBatch{next: lo, hi: hi, shard: shard}
	}
	h.start()
	if !ownsPID && guestPID != 0 {
		if _, err := h.callLeader(Frame{Type: MsgNSClaim, A: NSPid, B: guestPID}); err != nil {
			log.Printf("ipc: %s: pid claim for %d failed: %v", h.Addr, guestPID, err)
		}
	}
	h.mu.Lock()
	h.startHeartbeatLocked(g)
	h.mu.Unlock()
	return h, nil
}

// NewMember creates a helper that joins an existing sandbox coordination
// group under a PID the leader did not grant (see NewShardMember).
func NewMember(p *pal.PAL, svc Service, guestPID int64, leaderAddr string) (*Helper, error) {
	return NewShardMember(p, svc, guestPID, []string{leaderAddr})
}

// NewShardMember creates a helper that joins a sharded sandbox under an
// assigned PID — adopted, restored, or picked by the caller — that no
// leader granted; shardAddrs is as for NewForkedMember. The PID is
// reserved in its owning shard's allocator before the helper is returned:
// without the claim, AllocPID could mint it a second time. Best-effort: a
// member joining without a reachable leader is covered later by the
// recover-state report, which reserves every local PID.
func NewShardMember(p *pal.PAL, svc Service, guestPID int64, shardAddrs []string) (*Helper, error) {
	h, err := newMember(p, svc, guestPID, shardAddrs)
	if err == nil && guestPID != 0 && h.shardLeaderAddr(shardOfID(guestPID, h.shards)) != "" {
		if _, err := h.callLeader(Frame{Type: MsgNSClaim, A: NSPid, B: guestPID}); err != nil {
			log.Printf("ipc: %s: pid claim for %d failed: %v", h.Addr, guestPID, err)
		}
	}
	return h, err
}

// NewForkedMember creates the helper of a forked or spawned child, whose
// PID its parent minted with AllocPID out of a leader-granted batch: the
// allocator already stands past it, so the child joins without contacting
// anyone. It dials a shard leader on first need (§4.3, lazy discovery), and
// one that never coordinates never does. shardAddrs[i] is the believed
// leader address of shard i (the topology's shard count is
// len(shardAddrs); entries may be "" and are then found by discovery); a
// single-entry slice is the classic single-leader sandbox.
func NewForkedMember(p *pal.PAL, svc Service, guestPID int64, shardAddrs []string) (*Helper, error) {
	return newMember(p, svc, guestPID, shardAddrs)
}

func newMember(p *pal.PAL, svc Service, guestPID int64, shardAddrs []string) (*Helper, error) {
	h, err := newHelper(p, svc, guestPID, max(len(shardAddrs), 1))
	if err != nil {
		return nil, err
	}
	for i, addr := range shardAddrs {
		// A fresh member has no distributed state the shard leaders could
		// be missing. Marking each known leader as already reported-to keeps
		// the heartbeat path from shipping a pointless recover report on the
		// first re-assert after every join; a later *leader change* resets
		// this and triggers the real reconcile.
		h.groups[i].leaderAddr = addr
		h.groups[i].reportedTo = addr
	}
	h.start()
	return h, nil
}

// newHelper builds a helper with its listener bound and its broadcast
// subscription open but no goroutine running: the constructor seeds the
// leader fields it knows without the lock, then calls start. Seeding after
// the loops run would race a MsgNewLeader heartbeat arriving on them.
func newHelper(p *pal.PAL, svc Service, guestPID int64, nshards int) (*Helper, error) {
	addr := AddrForHostPID(p.Proc().ID)
	h := &Helper{
		pal:        p,
		svc:        svc,
		Addr:       addr,
		GuestPID:   guestPID,
		localPIDs:  map[int64]string{guestPID: addr},
		shards:     nshards,
		ring:       newShardRing(nshards),
		shutdownCh: make(chan struct{}),
	}
	h.groups = make([]*shardGroup, nshards)
	h.groups[0] = &h.shardGroup
	for i := 1; i < nshards; i++ {
		h.groups[i] = &shardGroup{shard: i}
	}
	for _, g := range h.groups {
		g.leaderChange = make(chan struct{})
	}
	h.homeShard = h.ring.addrShard(h.Addr)
	if nshards > 1 {
		h.rpcShardHistNames = make([][]string, nshards)
		for s := 0; s < nshards; s++ {
			names := make([]string, len(msgTypeNames))
			suffix := gaugeName(".s", int64(s))
			for t := 1; t < len(msgTypeNames); t++ {
				names[t] = rpcHistNames[t] + suffix
			}
			h.rpcShardHistNames[s] = names
		}
	}
	l, err := p.DkStreamOpen("pipe.srv:"+h.Addr, 0, 0)
	if err != nil {
		return nil, err
	}
	h.listener = l
	if sub, err := p.BroadcastSubscribe(); err == nil {
		h.bsub = sub
	}
	return h, nil
}

// start launches the helper's receive loops; connections and broadcasts
// that arrived since newHelper wait in the listener's backlog and the
// subscription's buffer.
func (h *Helper) start() {
	if h.bsub != nil {
		go h.broadcastLoop()
	}
	go h.acceptLoop()
}

func (h *Helper) acceptLoop() {
	for {
		conn, err := h.pal.DkStreamWaitForClient(h.listener)
		if err != nil {
			return
		}
		stream := conn.Stream
		c := NewConn(stream, h.Addr, func(f Frame, respond func(Frame)) {
			h.dispatchOn(stream, f, respond)
		}, h.dropConn)
		h.mu.Lock()
		if h.shutdown {
			h.mu.Unlock()
			c.Close()
			return
		}
		// A peer that already hung up has been through dropConn (the conn
		// is marked dead before dropConn runs): do not list it again.
		if c.Alive() {
			mapSet(&h.incoming, c, struct{}{})
		}
		h.mu.Unlock()
	}
}

func (h *Helper) broadcastLoop() {
	for {
		msg, ok := h.bsub.Recv()
		if !ok {
			return
		}
		f, err := DecodeFrame(bytesReader(msg.Data))
		if err != nil {
			continue
		}
		switch f.Type {
		case MsgWhoIsLeader:
			g := h.groupFor(f.Shard)
			if g == nil || f.From == "" {
				continue
			}
			h.mu.Lock()
			leading := g.leader != nil
			epoch := g.leaderEpoch
			h.mu.Unlock()
			if leading {
				// Respond point-to-point so the requester learns our address
				// (and the epoch we lead the shard under).
				go func(to string, shard int32, epoch int64) {
					if c, err := h.dial(to); err == nil {
						_ = c.Notify(Frame{Type: MsgWhoIsLeader, Shard: shard, A: epoch, S: h.Addr})
					}
				}(f.From, f.Shard, epoch)
			}
		case MsgElection:
			h.handleElectionBroadcast(f)
		case MsgNewLeader:
			h.handleNewLeaderBroadcast(f)
		case MsgNSHwm:
			h.noteNSHwm(int(f.A), int(f.Shard), f.B)
		}
	}
}

type sliceReader struct {
	b []byte
}

func bytesReader(b []byte) *sliceReader { return &sliceReader{b} }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, errClosed
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// noteNSHwm records a broadcast namespace cursor (see MsgNSHwm).
func (h *Helper) noteNSHwm(kind, shard int, next int64) {
	k := idbKey{kind: kind, shard: shard}
	h.mu.Lock()
	if next > h.nsHwm[k] {
		mapSet(&h.nsHwm, k, next)
	}
	h.mu.Unlock()
}

// broadcastNSHwm announces a shard leader's allocation cursor for kind
// after a grant or claim moved it. Best-effort: a lost broadcast only
// widens the window in which a failover cursor could lag, it never
// corrupts state.
func (h *Helper) broadcastNSHwm(kind, shard int, next int64) {
	f := Frame{Type: MsgNSHwm, A: int64(kind), B: next, Shard: int32(shard), From: h.Addr}
	_ = h.pal.BroadcastSend(EncodeFrame(&f))
}

func (h *Helper) isLeader() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.leader != nil
}

// leadsAny reports whether this helper currently leads any shard.
func (h *Helper) leadsAny() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, g := range h.groups {
		if g.leader != nil {
			return true
		}
	}
	return false
}

// DiscoverLeader discovers shard 0's leader (the whole namespace in a
// 1-shard topology).
func (h *Helper) DiscoverLeader() (string, error) {
	return h.discoverShard(&h.shardGroup)
}

// discoverShard broadcasts a who-is-leader query for one shard and waits
// (bounded) for that shard leader's point-to-point reply — the recovery
// path when a process lost a shard's leader address. ETIMEDOUT means no
// live leader answered; the caller decides whether to elect.
func (h *Helper) discoverShard(g *shardGroup) (string, error) {
	h.mu.Lock()
	if g.leaderAddr != "" {
		addr := g.leaderAddr
		h.mu.Unlock()
		return addr, nil
	}
	h.mu.Unlock()
	f := Frame{Type: MsgWhoIsLeader, Shard: int32(g.shard), From: h.Addr}
	if err := h.pal.BroadcastSend(EncodeFrame(&f)); err != nil {
		return "", err
	}
	return h.awaitNewLeader(g, 10*electionWindow)
}

// setLeaderLocked records addr as a shard's leader under epoch and wakes
// awaitNewLeader waiters. Caller holds h.mu.
func (h *Helper) setLeaderLocked(g *shardGroup, addr string, epoch int64) {
	if addr != g.leaderAddr {
		// A leader we reported to in an earlier reign has a fresh
		// leaderState now; the report must be re-sent (heartbeat-triggered)
		// even if the address is one we have reported to before.
		g.reportedTo = ""
	}
	g.leaderAddr = addr
	if epoch > g.leaderEpoch {
		g.leaderEpoch = epoch
	}
	close(g.leaderChange)
	g.leaderChange = make(chan struct{})
}

// clearLeaderLocked forgets a shard's leader address (it is presumed dead
// or stale). Caller holds h.mu.
func (h *Helper) clearLeaderLocked(g *shardGroup) {
	g.leaderAddr = ""
}

// dropConn runs when a peer stream dies: the conn leaves the dial cache
// and the accepted set, and — when we lead a shard — a peer that never
// said MsgBye is treated as crashed and reaped (the RPC-disconnection
// failure detector of §4.2, pointed at members instead of the leader).
func (h *Helper) dropConn(c *Conn) {
	h.conns.deleteValue(func(cc *Conn) bool { return cc == c })
	h.mu.Lock()
	delete(h.incoming, c)
	h.mu.Unlock()
	addr := c.remote()
	if addr == "" || addr == h.Addr || !h.leadsAny() {
		return
	}
	go h.reapMember(addr, true)
}

// dial returns a cached or fresh point-to-point stream to addr (§4.3,
// "Lazy discovery and caching improve performance").
func (h *Helper) dial(addr string) (*Conn, error) {
	if connCaching.Load() {
		if c, ok := h.conns.get(addr); ok && c.Alive() {
			return c, nil
		}
	}
	sh, err := h.pal.DkStreamOpen("pipe:"+addr, 0, 0)
	if err != nil {
		return nil, err
	}
	stream := sh.Stream
	c := NewConn(stream, h.Addr, func(f Frame, respond func(Frame)) {
		h.dispatchOn(stream, f, respond)
	}, h.dropConn)
	c.setRemote(addr)
	h.conns.put(addr, c)
	return c, nil
}

// ============================================================
// PID namespace and signaling
// ============================================================

// AllocPID allocates a guest PID for a child whose helper will live at
// childAddr, drawing from the local batch and refilling from the leader
// only when the batch is exhausted.
func (h *Helper) AllocPID(childAddr string) (int64, error) {
	h.mu.Lock()
	for {
		if h.pidBatch.next == 0 || h.pidBatch.next > h.pidBatch.hi {
			h.mu.Unlock()
			resp, err := h.callLeader(Frame{Type: MsgNSAlloc, A: NSPid, B: pidBatchOverride.Load()})
			if err != nil {
				return 0, err
			}
			h.mu.Lock()
			h.pidBatch = idBatch{next: resp.A, hi: resp.B, shard: h.homeShard}
		}
		pid := h.pidBatch.next
		h.pidBatch.next++
		// PIDs claimed by already-running processes (MsgNSClaim) can sit
		// inside this batch; skip them rather than mint a duplicate.
		if _, taken := h.pidSkip[pid]; taken {
			continue
		}
		mapSet(&h.localPIDs, pid, childAddr)
		h.mu.Unlock()
		return pid, nil
	}
}

// RegisterPID records a PID -> helper address mapping in the local table
// (used when adopting a migrated or restored process).
func (h *Helper) RegisterPID(pid int64, addr string) {
	h.mu.Lock()
	mapSet(&h.localPIDs, pid, addr)
	h.mu.Unlock()
}

// ForgetPID drops a PID from the local table once its process has been
// reaped (or never came to be): the table holds live children only, and a
// later kill(pid) answers ESRCH instead of dialing a dead address.
func (h *Helper) ForgetPID(pid int64) {
	h.mu.Lock()
	delete(h.localPIDs, pid)
	h.mu.Unlock()
}

// ResolvePID finds the helper address of a guest PID: local tables first,
// then the owner-discovery protocol through the leader, caching results.
func (h *Helper) ResolvePID(pid int64) (string, error) {
	h.mu.Lock()
	if addr, ok := h.localPIDs[pid]; ok {
		h.mu.Unlock()
		return addr, nil
	}
	h.mu.Unlock()
	if addr, ok := h.pidOwner.get(pid); ok {
		return addr, nil
	}

	q := Frame{Type: MsgNSQuery, A: NSPid, B: pid}
	q.Trace, q.Span = traceRoot()
	resp, err := h.callLeader(q)
	if err != nil {
		return "", err
	}
	addr := resp.S
	// The leader may point at the range owner rather than the process
	// itself; follow one indirection. The hop rides the same absolute
	// deadline as leader RPCs — a partitioned range owner must surface
	// ETIMEDOUT to the caller, not hang it.
	for hop := 0; resp.A == 1 && hop < 3; hop++ {
		if addr == h.Addr {
			return "", api.ESRCH // our own range, and the table above had no such child
		}
		c, err := h.dial(addr)
		if err != nil {
			return "", err
		}
		hf := Frame{Type: MsgNSQuery, A: NSPid, B: pid, Trace: q.Trace, Span: q.Span}
		start, parent := h.beginSpan(&hf)
		resp, err = c.CallTimeout(hf, rpcCallTimeout)
		h.endSpan(&hf, start, parent, err)
		if err != nil {
			return "", err
		}
		addr = resp.S
	}
	if addr == "" {
		return "", api.ESRCH
	}
	h.pidOwner.put(pid, addr)
	return addr, nil
}

// InvalidatePID drops a cached PID mapping (stale after process death).
func (h *Helper) InvalidatePID(pid int64) {
	h.pidOwner.delete(pid)
}

// SendSignal delivers sig to the process owning guest PID pid, locally or
// via a signal RPC (§4.2, Figure 3).
func (h *Helper) SendSignal(pid int64, sig api.Signal) error {
	addr, err := h.ResolvePID(pid)
	if err != nil {
		return err
	}
	if addr == h.Addr {
		if errno := h.svc.DeliverSignal(pid, sig); errno != 0 {
			return errno
		}
		return nil
	}
	c, err := h.dial(addr)
	if err != nil {
		h.InvalidatePID(pid)
		return api.ESRCH
	}
	f := Frame{Type: MsgSignal, A: pid, B: int64(sig)}
	f.Trace, f.Span = traceRoot()
	start, parent := h.beginSpan(&f)
	_, err = c.CallTimeout(f, rpcCallTimeout)
	h.endSpan(&f, start, parent, err)
	if err != nil {
		if err == api.EPIPE {
			h.InvalidatePID(pid)
			return api.ESRCH
		}
		if err == api.ETIMEDOUT {
			// The target is partitioned, not provably dead: drop the cached
			// route so a retry re-resolves, and surface the timeout.
			h.InvalidatePID(pid)
		}
		return err
	}
	return nil
}

// NotifyExitTo sends an exit notification to the parent's helper (§4.2).
// Asynchronous: the exiting process does not block on the parent.
func (h *Helper) NotifyExitTo(parentAddr string, child int64, status int64, sig api.Signal) error {
	c, err := h.dial(parentAddr)
	if err != nil {
		return err
	}
	return c.Notify(Frame{Type: MsgExitNotify, A: child, B: status, C: int64(sig)})
}

// ProcMeta reads a /proc/[pid] field, locally or over RPC (§4.2, Table 2).
func (h *Helper) ProcMeta(pid int64, field string) (string, error) {
	addr, err := h.ResolvePID(pid)
	if err != nil {
		return "", err
	}
	if addr == h.Addr {
		v, errno := h.svc.ProcMeta(pid, field)
		if errno != 0 {
			return "", errno
		}
		return v, nil
	}
	c, err := h.dial(addr)
	if err != nil {
		return "", api.ESRCH
	}
	resp, err := c.CallTimeout(Frame{Type: MsgProcMeta, A: pid, S: field}, rpcCallTimeout)
	if err != nil {
		return "", err
	}
	return resp.S, nil
}

// Ping round-trips a no-op RPC to addr (Figure 5's workload).
func (h *Helper) Ping(addr string) error {
	c, err := h.dial(addr)
	if err != nil {
		return err
	}
	f := Frame{Type: MsgPing}
	start, parent := h.beginSpan(&f)
	_, err = c.Call(f)
	h.endSpan(&f, start, parent, err)
	return err
}

// LeaderAddr returns shard 0's current leader address ("" if
// undiscovered) — the whole namespace's leader in a 1-shard topology.
func (h *Helper) LeaderAddr() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.leaderAddr
}

// shardLeaderAddr returns the believed leader address of one shard.
func (h *Helper) shardLeaderAddr(shard int) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if g := h.groupFor(int32(shard)); g != nil {
		return g.leaderAddr
	}
	return ""
}

// bgEnter opens a tracked background task unless shutdown has begun; the
// caller ends it with h.bg.Done(). The shutdown check and the WaitGroup Add
// happen under the helper lock that also orders Shutdown's flag write, so
// Add can never race the counter-at-zero Wait.
func (h *Helper) bgEnter() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.shutdown {
		return false
	}
	h.bg.Add(1)
	return true
}

// bgGo runs fn as a tracked background task; a task refused here (false)
// is one the shutdown path's own persist/evict/reap machinery makes
// redundant.
func (h *Helper) bgGo(fn func()) bool {
	if !h.bgEnter() {
		return false
	}
	go func() {
		defer h.bg.Done()
		fn()
	}()
	return true
}

// Shutdown persists owned message queues, closes connections and the
// listener. Called from process exit.
func (h *Helper) Shutdown() {
	h.mu.Lock()
	if h.shutdown {
		h.mu.Unlock()
		return
	}
	h.shutdown = true
	close(h.shutdownCh)
	for _, g := range h.groups {
		h.stopHeartbeatLocked(g)
	}
	queues := make([]*msgQueue, 0, len(h.queues))
	for _, q := range h.queues {
		queues = append(queues, q)
	}
	sems := make([]*semSet, 0, len(h.sems))
	for _, s := range h.sems {
		sems = append(sems, s)
	}
	// Snapshot the shard-leader view: the distinct coordinator addresses
	// (excluding ourselves) are owed a goodbye if we share a stream with
	// them, and every owned semaphore set migrates back to its owning
	// shard's leader.
	shardAddr := make([]string, len(h.groups))
	ledShard := make([]bool, len(h.groups))
	byeAddrs := make([]string, 0, len(h.groups))
	for i, g := range h.groups {
		shardAddr[i] = g.leaderAddr
		ledShard[i] = g.leader != nil
		if g.leaderAddr != "" && g.leaderAddr != h.Addr && !slices.Contains(byeAddrs, g.leaderAddr) {
			byeAddrs = append(byeAddrs, g.leaderAddr)
		}
	}
	h.mu.Unlock()

	// Detach kernel-bypass rings while the streams still work, so owners
	// fold ring contents back before this process disappears.
	h.ringShutdown()

	// Let in-flight removal fan-out finish while the streams still work.
	// Ring drainer goroutines saw shutdownCh close, collapsed their rings,
	// and exit here — before persistQueue serializes below.
	h.bg.Wait()

	// System V objects survive their owner: queues serialize to disk
	// (§4.2); semaphore sets migrate back to their shard's leader so other
	// picoprocesses can keep operating on them.
	for _, q := range queues {
		h.persistQueue(q)
	}
	for _, s := range sems {
		os := shardOfID(s.id, h.shards)
		if os < len(ledShard) && !ledShard[os] && shardAddr[os] != "" {
			h.evictSemOnShutdown(s, shardAddr[os])
		}
	}
	if len(byeAddrs) > 0 {
		h.flushKeyLeases()
	}

	conns := h.conns.values()
	h.mu.Lock()
	for c := range h.incoming {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	// Say goodbye, synchronously, to each shard coordinator we share a live
	// stream with — dialled or accepted, whichever we find first — before
	// any stream closes: its teardown would otherwise read as a crash at
	// that leader and reap the objects just persisted or migrated. A leader
	// we share no stream with has nothing to see die (and whatever it holds
	// of ours stays, as after any goodbye), so a picoprocess that never
	// coordinated leaves in silence.
	for _, c := range conns {
		if i := slices.Index(byeAddrs, c.remote()); i >= 0 && c.Alive() {
			byeAddrs = slices.Delete(byeAddrs, i, i+1)
			// Deadline-bounded: a leader stuck behind a partition must not
			// wedge this process's exit; after the timeout we accept the
			// (inherent) reap race.
			_, _ = c.CallTimeout(Frame{Type: MsgBye, From: h.Addr}, rpcCallTimeout)
		}
	}
	for _, c := range conns {
		c.Close()
	}
	_ = h.pal.DkObjectClose(h.listener)
}

// evictSemOnShutdown fails parked waiters with EXDEV (they retry against
// the new owner) and migrates the set to the leader. In-flight remote
// operations can re-park between the flush and the migration, so both
// steps retry; the shutdown flag makes the dispatcher bounce new arrivals.
func (h *Helper) evictSemOnShutdown(s *semSet, leaderAddr string) {
	for attempt := 0; attempt < 50; attempt++ {
		s.mu.Lock()
		if s.removed || s.movedTo != "" {
			s.mu.Unlock()
			return // gone or successfully migrated
		}
		waiters := s.waiters
		s.waiters = nil
		migrating := s.migrating
		s.mu.Unlock()
		for _, w := range waiters {
			w.deliver(api.EXDEV)
		}
		if !migrating {
			h.migrateSem(s.id, leaderAddr)
		}
		migrationBackoff(attempt)
	}
}

func (h *Helper) persistQueue(q *msgQueue) {
	q.mu.Lock()
	// Persist any live owned queue (even an empty one) so survivors can
	// adopt it; parked receivers retry after adoption.
	live := !q.removed && q.movedTo == ""
	id := q.id
	waiters := q.waiters
	q.waiters = nil
	q.mu.Unlock()
	if !live {
		return
	}
	for _, w := range waiters {
		w.deliver(0, nil, api.EXDEV)
	}
	_ = h.pal.DkStreamMkdir("file:"+persistDir[:4], 0755) // /var
	_ = h.pal.DkStreamMkdir("file:"+persistDir, 0755)
	fh, err := h.pal.DkStreamOpen("file:"+persistPath(id), api.OCreate|api.OTrunc|api.OWrOnly, 0600)
	if err != nil {
		return
	}
	_, _ = h.pal.DkStreamWrite(fh, q.serialize())
	_ = h.pal.DkObjectClose(fh)
}

func persistPath(id int64) string {
	return persistDir + "/msgq." + strconv.FormatInt(id, 10)
}
