package ipc

import (
	"log"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/pal"
)

// PIDBatchSize is how many process IDs the leader hands out per request
// (50 by default, §4.3).
const PIDBatchSize = 50

// migrationEnabled gates SysV ownership migration; Table 7's inter-process
// cells turn it off so the remote path is what they measure.
var migrationEnabled atomic.Bool

func init() { migrationEnabled.Store(true) }

// SetMigrationEnabled toggles SysV ownership migration (ablation).
func SetMigrationEnabled(on bool) { migrationEnabled.Store(on) }

// idBatchSize is the batch size for System V ID namespaces.
const idBatchSize = 32

// persistDir is where exiting owners serialize message queues (§4.2,
// "a common file naming scheme to serialize message queues to disk").
const persistDir = "/var/ipc"

// Service is the libOS's upcall surface: the helper calls it to act on
// RPCs that target local abstractions (signals, /proc metadata).
// Implementations must service these from local state only. A child's exit
// is not among them: the parent learns of it from the host exit event.
type Service interface {
	// DeliverSignal marks sig pending for the local thread group.
	DeliverSignal(target int64, sig api.Signal) api.Errno
	// ProcMeta reads a /proc/[pid] field for a local process.
	ProcMeta(pid int64, field string) (string, api.Errno)
}

// AddrForHostPID derives a helper's stream address from its host PID.
func AddrForHostPID(hostPID int) string {
	return "ipc." + strconv.Itoa(hostPID)
}

type idBatch struct {
	next, hi int64 // next free and inclusive upper bound; empty if next > hi
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

	// leaderAddr is the believed leader address ("" = unknown); leader is
	// non-nil when this helper IS the leader. leaderEpoch is the accepted
	// election epoch.
	leaderAddr  string
	leader      *leaderState
	leaderEpoch int64
	// lastLeader is the last leader this helper accepted (or was given at
	// birth); unlike leaderAddr a stale-address EPERM does not clear it,
	// so an election knows whose death it must confirm before claiming.
	lastLeader string

	// leaderChange is closed and replaced whenever leaderAddr changes, and
	// when the broadcast subscription is lost.
	leaderChange chan struct{}

	// claiming is open while this helper's claim to an epoch is on the
	// broadcast stream and not yet read back (see claim); deaf is set
	// once the broadcast subscription is gone.
	claiming chan struct{}
	deaf     bool

	// routeHits/routeMisses count leader calls served from a cached
	// leader address vs. ones that needed broadcast discovery.
	routeHits   atomic.Uint64
	routeMisses atomic.Uint64

	// conns caches the point-to-point streams this helper dialled, by
	// peer address; pidOwner caches where a guest PID's process lives
	// (its final helper address).
	conns    map[string]*Conn
	pidOwner map[int64]string

	// incoming holds the live accepted connections, for Shutdown to close;
	// dropConn removes a conn when its peer hangs up.
	incoming map[*Conn]struct{}

	localPIDs map[int64]string // PIDs allocated here -> their helper address
	pidBatch  idBatch
	// pidSkip holds PIDs inside this helper's granted batch that are
	// already taken (the helper's own PID, or a PID another process claimed
	// via MsgNSClaim after this batch was granted); AllocPID skips them.
	pidSkip map[int64]struct{}

	idBatches map[int]*idBatch // NSSysVMsg / NSSysVSem local batches
	// nsHwm is the highest namespace allocation cursor heard in a MsgNSHwm
	// broadcast, per kind. Recover-state reports fold it into batchHi so a
	// new leader's cursor clears batches granted to helpers that cannot
	// report — the dead old leader's own batch in particular.
	nsHwm map[int]int64

	// queues and sems are the System V objects held here: live copies and
	// forwarding tombstones. ownerCache remembers where objects held
	// elsewhere live (kind -> ID -> owner address).
	queues     map[int64]*msgQueue
	sems       map[int64]*semSet
	ownerCache map[int]map[int64]string

	// bg tracks fire-and-forget notification goroutines (object-removal
	// fan-out). Shutdown waits for them before tearing down connections,
	// so a process that removes an object and immediately exits cannot
	// lose the leader's MsgKeyRemove to the teardown race.
	bg sync.WaitGroup

	// ringState is the client side of the kernel-bypass send rings
	// (ring.go): per-queue attach counters and mapped rings.
	// ringHits/ringMisses count sends carried by a ring vs. ones that had
	// to fall back (full ring, oversize message, revocation); both gauges
	// ride RegisterGauges.
	ringState  ringClientState
	ringHits   atomic.Uint64
	ringMisses atomic.Uint64

	// cookies mints the tags of this helper's interruptible System V
	// calls, so a cancel names the one waiter it withdraws: a waiter is
	// matched by (caller address, cookie), and only this helper's threads
	// touch the counter.
	cookies atomic.Int64

	// ownPgid is this process's group for recovery re-registration.
	ownPgid int64

	shutdown bool
	// shutdownCh is closed exactly once when Shutdown begins, so waits on
	// background paths (ring drainers) can select against it instead of
	// blocking a process exit.
	shutdownCh chan struct{}
}

// NewLeader creates the sandbox's first helper, which acts as the
// namespace leader. guestPID is the process's PID (1 for an init process).
func NewLeader(p *pal.PAL, svc Service, guestPID int64) (*Helper, error) {
	h, err := newHelper(p, svc, guestPID)
	if err != nil {
		return nil, err
	}
	h.leader = newLeaderState()
	h.leaderAddr = h.Addr
	h.lastLeader = h.Addr
	h.leader.claimRange(NSPid, guestPID, h.Addr)
	lo, hi := h.leader.allocRange(NSPid, PIDBatchSize, h.Addr)
	h.pidBatch = idBatch{next: lo, hi: hi}
	h.start()
	return h, nil
}

// NewMember creates a helper that joins an existing sandbox under an
// assigned PID — adopted, restored, or picked by the caller — that the
// leader did not grant. The PID is reserved in the leader's allocator
// before the helper is returned: without the claim, AllocPID could mint
// it a second time. Best-effort: a member joining without a reachable
// leader is covered later by the recover-state report, which reserves
// every local PID.
func NewMember(p *pal.PAL, svc Service, guestPID int64, leaderAddr string) (*Helper, error) {
	h, err := NewForkedMember(p, svc, guestPID, leaderAddr)
	if err == nil && guestPID != 0 && leaderAddr != "" {
		h.claimPID(guestPID)
	}
	return h, err
}

// claimPID reserves guestPID at the leader (MsgNSClaim) and remembers the
// cursor the answer carries. IDs the leader minted before this helper
// joined — its own PID and first batch among them — were announced to no
// one yet, and a recover report from here must still clear them if that
// leader is lost.
func (h *Helper) claimPID(guestPID int64) {
	resp, err := h.callLeader(Frame{Type: MsgNSClaim, A: NSPid, B: guestPID})
	if err != nil {
		log.Printf("ipc: %s: pid claim for %d failed: %v", h.Addr, guestPID, err)
		return
	}
	h.noteNSHwm(NSPid, resp.B)
}

// NewForkedMember creates the helper of a forked or spawned child, whose
// PID its parent minted with AllocPID out of a leader-granted batch: the
// allocator already stands past it, so the child joins without contacting
// anyone. It dials the leader at leaderAddr on first need (§4.3, lazy
// discovery), and one that never coordinates never does. An empty
// leaderAddr is found by broadcast discovery.
func NewForkedMember(p *pal.PAL, svc Service, guestPID int64, leaderAddr string) (*Helper, error) {
	h, err := newHelper(p, svc, guestPID)
	if err != nil {
		return nil, err
	}
	h.leaderAddr = leaderAddr
	h.lastLeader = leaderAddr
	h.start()
	return h, nil
}

// mapSet stores m[k] = v, allocating the map on first use: a helper's
// tables read correctly while nil, so a picoprocess that never caches an
// owner, dials a peer or holds a queue never pays for them.
func mapSet[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// kindSet is mapSet for the helper's per-namespace-kind tables.
func kindSet[V any](m *map[int]map[int64]V, kind int, k int64, v V) {
	if (*m)[kind] == nil {
		mapSet(m, kind, make(map[int64]V))
	}
	(*m)[kind][k] = v
}

// newHelper builds a helper with its listener bound and its broadcast
// subscription open but no goroutine running: the constructor seeds the
// leader fields it knows without the lock, then calls start. Seeding after
// the loops run would race a MsgNewLeader announcement arriving on them.
func newHelper(p *pal.PAL, svc Service, guestPID int64) (*Helper, error) {
	addr := AddrForHostPID(p.Proc().ID)
	h := &Helper{
		pal:          p,
		svc:          svc,
		Addr:         addr,
		GuestPID:     guestPID,
		localPIDs:    map[int64]string{guestPID: addr},
		leaderChange: make(chan struct{}),
		shutdownCh:   make(chan struct{}),
	}
	l, err := p.DkStreamOpen("pipe.srv:"+h.Addr, 0, 0)
	if err != nil {
		return nil, err
	}
	h.listener = l
	if sub, err := p.BroadcastSubscribe(); err == nil {
		h.bsub = sub
	} else {
		h.deaf = true
	}
	return h, nil
}

// start launches the helper's receive loops; connections and broadcasts
// that arrived since newHelper wait in the listener's backlog and the
// subscription's log.
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
		c := newConn(conn.Stream, h.Addr, h.dispatch, h.dropConn)
		// List the conn before its reader runs: a peer whose first request
		// has been answered is already counted by AcceptedConns, and a
		// hang-up, which only the reader sees, cannot come before the
		// listing that dropConn undoes. Once Shutdown has begun, a new
		// peer is hung up on at once — until the listener closes, so a
		// dial never waits on a backlog nobody drains (a newly elected
		// leader asking a departing member for its report).
		h.mu.Lock()
		if h.shutdown {
			h.mu.Unlock()
			c.Close()
			continue
		}
		mapSet(&h.incoming, c, struct{}{})
		h.mu.Unlock()
		c.start()
	}
}

func (h *Helper) broadcastLoop() {
	for {
		msg, ok := h.bsub.Recv()
		if !ok {
			// Detached by a sandbox split or the process's exit. A claim
			// not read back by now never will be, and an election waiting
			// for one must hear so.
			h.mu.Lock()
			h.deaf = true
			h.leaderChangedLocked()
			h.mu.Unlock()
			h.endClaim()
			return
		}
		f, err := DecodeFrame(bytesReader(msg.Data))
		if err != nil {
			continue
		}
		switch f.Type {
		case MsgWhoIsLeader:
			if f.From == "" {
				continue
			}
			h.mu.Lock()
			leading := h.leader != nil
			epoch := h.leaderEpoch
			h.mu.Unlock()
			if leading {
				// Respond point-to-point so the requester learns our address
				// (and the epoch we lead under).
				go func(to string, epoch int64) {
					if c, err := h.dial(to); err == nil {
						_ = c.Notify(Frame{Type: MsgWhoIsLeader, A: epoch, S: h.Addr})
					}
				}(f.From, epoch)
			}
		case MsgNewLeader:
			h.handleNewLeaderBroadcast(f)
		case MsgNSHwm:
			h.noteNSHwm(int(f.A), f.B)
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
func (h *Helper) noteNSHwm(kind int, next int64) {
	h.mu.Lock()
	if next > h.nsHwm[kind] {
		mapSet(&h.nsHwm, kind, next)
	}
	h.mu.Unlock()
}

// broadcastNSHwm announces the leader's allocation cursor for kind after
// a grant or claim moved it. Best-effort: a lost broadcast only widens the
// window in which a failover cursor could lag, it never corrupts state.
func (h *Helper) broadcastNSHwm(kind int, next int64) {
	f := Frame{Type: MsgNSHwm, A: int64(kind), B: next, From: h.Addr}
	_ = h.pal.BroadcastSend(EncodeFrame(&f))
}

func (h *Helper) isLeader() bool { return h.ledState() != nil }

// ledState returns the leaderState this helper runs, nil when it does not
// lead — the gate in front of every leader-only handler.
func (h *Helper) ledState() *leaderState {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Members that read our claim before we do already send us leader
	// requests: hold them until the claim is read back.
	for h.leader == nil && h.claiming != nil {
		ch := h.claiming
		h.mu.Unlock()
		<-ch
		h.mu.Lock()
	}
	return h.leader
}

// discoverTimeout bounds DiscoverLeader's wait for an answer.
const discoverTimeout = 500 * time.Millisecond

// DiscoverLeader broadcasts a who-is-leader query and waits (bounded) for
// the leader's point-to-point reply — the recovery path when a process
// lost the leader's address. ETIMEDOUT means no live leader answered; the
// caller decides whether to elect.
func (h *Helper) DiscoverLeader() (string, error) {
	h.mu.Lock()
	if h.leaderAddr != "" {
		addr := h.leaderAddr
		h.mu.Unlock()
		return addr, nil
	}
	h.mu.Unlock()
	f := Frame{Type: MsgWhoIsLeader, From: h.Addr}
	if err := h.pal.BroadcastSend(EncodeFrame(&f)); err != nil {
		return "", err
	}
	timer := time.NewTimer(discoverTimeout)
	defer timer.Stop()
	for {
		h.mu.Lock()
		addr := h.leaderAddr
		ch := h.leaderChange
		h.mu.Unlock()
		if addr != "" {
			return addr, nil
		}
		select {
		case <-ch:
		case <-timer.C:
			return "", api.ETIMEDOUT
		}
	}
}

// setLeaderLocked records addr as the leader under epoch and wakes the
// helper's waits for a leader. Caller holds h.mu.
func (h *Helper) setLeaderLocked(addr string, epoch int64) {
	h.leaderAddr = addr
	h.lastLeader = addr
	if epoch > h.leaderEpoch {
		h.leaderEpoch = epoch
	}
	h.leaderChangedLocked()
}

// leaderChangedLocked wakes everything waiting on leaderChange. Caller
// holds h.mu.
func (h *Helper) leaderChangedLocked() {
	close(h.leaderChange)
	h.leaderChange = make(chan struct{})
}

// dropConn runs when a peer stream dies: the conn leaves the dial cache
// and the accepted set, and — when we lead — a peer that never said
// MsgBye is treated as crashed and reaped (the RPC-disconnection failure
// detector of §4.2, pointed at members instead of the leader). A leader
// whose own picoprocess has died reaps nothing: its exit closes every
// stream it holds, so each of those deaths is its own, not a member's.
func (h *Helper) dropConn(c *Conn) {
	h.mu.Lock()
	for addr, cc := range h.conns {
		if cc == c {
			delete(h.conns, addr)
		}
	}
	delete(h.incoming, c)
	h.mu.Unlock()
	addr := c.remote()
	if addr == "" || addr == h.Addr || !h.isLeader() || h.pal.Proc().Dead() {
		return
	}
	go h.reapMember(addr)
}

// dial returns a cached or fresh point-to-point stream to addr (§4.3,
// "Lazy discovery and caching improve performance").
func (h *Helper) dial(addr string) (*Conn, error) {
	h.mu.Lock()
	c := h.conns[addr]
	h.mu.Unlock()
	if c != nil && c.Alive() {
		return c, nil
	}
	c, err := h.open(addr, h.Addr, h.dropConn)
	if err != nil {
		return nil, err
	}
	c.setRemote(addr)
	h.mu.Lock()
	mapSet(&h.conns, addr, c)
	h.mu.Unlock()
	return c, nil
}

// open connects to the helper at addr over a fresh stream, uncached, whose
// frames carry local as their sender ("" for none); onClose is NewConn's.
func (h *Helper) open(addr, local string, onClose func(*Conn)) (*Conn, error) {
	sh, err := h.pal.DkStreamOpen("pipe:"+addr, 0, 0)
	for api.ToErrno(err) == api.EAGAIN {
		// The peer is alive and its accept backlog is full (a whole
		// sandbox dialing a new leader at once): wait for room, as a
		// blocking connect does.
		select {
		case <-h.shutdownCh:
			return nil, err
		case <-time.After(time.Millisecond):
		}
		sh, err = h.pal.DkStreamOpen("pipe:"+addr, 0, 0)
	}
	if err != nil {
		return nil, err
	}
	return NewConn(sh.Stream, local, h.dispatch, onClose), nil
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
			resp, err := h.callLeader(Frame{Type: MsgNSAlloc, A: NSPid, B: PIDBatchSize})
			if err != nil {
				return 0, err
			}
			h.mu.Lock()
			h.pidBatch = idBatch{next: resp.A, hi: resp.B}
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
	addr, ok := h.localPIDs[pid]
	if !ok {
		addr, ok = h.pidOwner[pid]
	}
	h.mu.Unlock()
	if ok {
		return addr, nil
	}

	q := Frame{Type: MsgNSQuery, A: NSPid, B: pid}
	q.Trace, q.Span = traceRoot()
	resp, err := h.callLeader(q)
	if err != nil {
		return "", err
	}
	addr = resp.S
	// The leader may point at the range owner rather than the process
	// itself; follow one indirection.
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
		resp, err = c.Call(hf)
		h.endSpan(&hf, start, parent, err)
		if err != nil {
			return "", err
		}
		addr = resp.S
	}
	if addr == "" {
		return "", api.ESRCH
	}
	h.mu.Lock()
	mapSet(&h.pidOwner, pid, addr)
	h.mu.Unlock()
	return addr, nil
}

// InvalidatePID drops a cached PID mapping (stale after process death).
func (h *Helper) InvalidatePID(pid int64) {
	h.mu.Lock()
	delete(h.pidOwner, pid)
	h.mu.Unlock()
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
	_, err = c.Call(f)
	h.endSpan(&f, start, parent, err)
	if err != nil {
		if err == api.EPIPE {
			h.InvalidatePID(pid)
			return api.ESRCH
		}
		return err
	}
	return nil
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
	resp, err := c.Call(Frame{Type: MsgProcMeta, A: pid, S: field})
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

// LeaderAddr returns the current leader address ("" if undiscovered).
func (h *Helper) LeaderAddr() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.leaderAddr
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
	objs := h.objectsLocked()
	// Snapshot the leader view: a leader other than ourselves is owed a
	// goodbye if we share a stream with it, and every owned semaphore set
	// migrates back to it.
	leaderAddr := ""
	if h.leader == nil {
		leaderAddr = h.leaderAddr
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
	// (§4.2); semaphore sets migrate back to the leader so other
	// picoprocesses can keep operating on them.
	for _, o := range objs {
		switch o := o.(type) {
		case *msgQueue:
			h.persistQueue(o)
		case *semSet:
			if leaderAddr != "" {
				h.evictSemOnShutdown(o, leaderAddr)
			}
		}
	}
	var conns []*Conn
	h.mu.Lock()
	for _, c := range h.conns {
		conns = append(conns, c)
	}
	for c := range h.incoming {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	// Say goodbye, synchronously, on a live stream we share with the
	// leader — dialled or accepted, whichever we find first — before any
	// stream closes: its teardown would otherwise read as a crash at the
	// leader and reap the objects just persisted or migrated. A leader we
	// share no stream with has nothing to see die (and whatever it holds of
	// ours stays, as after any goodbye), so a picoprocess that never
	// coordinated leaves in silence.
	for _, c := range conns {
		if leaderAddr != "" && c.remote() == leaderAddr && c.Alive() {
			_, _ = c.Call(Frame{Type: MsgBye, From: h.Addr})
			break
		}
	}
	for _, c := range conns {
		c.Close()
	}
	_ = h.pal.DkObjectClose(h.listener)
}

// evictSemOnShutdown migrates set s to the leader; the handoff
// bounces parked waiters, which retry against the new owner. An aborted
// handoff lets in-flight remote operations re-park, so it retries; the
// shutdown flag makes the dispatcher bounce new arrivals.
func (h *Helper) evictSemOnShutdown(s *semSet, leaderAddr string) {
	for attempt := 0; attempt < 50; attempt++ {
		s.mu.Lock()
		live := s.liveLocked()
		s.mu.Unlock()
		if !live {
			return // gone or successfully migrated
		}
		h.migrate(NSSysVSem, s.id, leaderAddr)
		migrationBackoff(attempt)
	}
}

// persistQueue serializes any live owned queue (even an empty one) so
// survivors can adopt it; the snapshot bounces parked receivers, which
// retry after adoption. The file is the queue from then on: this copy
// bounces every later send and receive with EXDEV, as a handoff's snapshot
// leaves it, so a synchronous send arriving before the streams close is
// not acked into a copy nobody reads — it retries, meets EPIPE once they
// close, and lands in the adopted file.
func (h *Helper) persistQueue(q *msgQueue) {
	q.mu.Lock()
	live := q.liveLocked()
	var blob []byte
	if live {
		blob = q.snapshotLocked()
		q.migrating = true
	}
	q.mu.Unlock()
	if !live {
		return
	}
	_ = h.pal.DkStreamMkdir("file:"+persistDir[:4], 0755) // /var
	_ = h.pal.DkStreamMkdir("file:"+persistDir, 0755)
	fh, err := h.pal.DkStreamOpen("file:"+persistPath(q.id), api.OCreate|api.OTrunc|api.OWrOnly, 0600)
	if err != nil {
		return
	}
	_, _ = h.pal.DkStreamWrite(fh, blob)
	_ = h.pal.DkObjectClose(fh)
}

func persistPath(id int64) string {
	return persistDir + "/msgq." + strconv.FormatInt(id, 10)
}
