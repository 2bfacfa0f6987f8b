package ipc

import (
	"sync"

	"graphene/internal/api"
)

// idRange is a batch of identifiers handed by the leader to one helper,
// which then allocates from it without further leader involvement (§4.3,
// "Batched allocation of names minimizes leader workload").
type idRange struct {
	lo, hi int64 // inclusive
	owner  string
}

// keyEntry maps a System V key to its ID and owning helper.
type keyEntry struct {
	id    int64
	owner string
}

// keyBlockSize is how many consecutive System V keys one placement block
// covers. Applications name related IPC objects with clustered keys (ftok
// over the same file, a base key plus a small index), and the shard ring
// places a whole block on one shard, so related keys share one authority.
const keyBlockSize = 64

// keyBlock maps a key to its placement block (floor division, so negative
// keys land in well-defined blocks too).
func keyBlock(key int64) int64 {
	b := key / keyBlockSize
	if key%keyBlockSize != 0 && key < 0 {
		b--
	}
	return b
}

// ownerEntry records who owns a System V object plus the migration epoch
// under which they claimed it. Each ownership transfer increments the
// epoch, and the leader ignores a chown carrying a lower epoch than the
// recorded one: two migrations racing in opposite directions (an eviction
// toward the leader crossing the leader's own consumer migration) commit
// their chowns in nondeterministic order, and without the guard the loser
// can leave the authoritative map pointing at a dead helper forever.
type ownerEntry struct {
	addr  string
	epoch int64
}

// leaderState is the sandbox leader's namespace bookkeeping: ID ranges per
// namespace kind, System V key mappings, and object ownership.
type leaderState struct {
	mu     sync.RWMutex
	ranges map[int][]idRange
	next   map[int]int64
	keys   map[int]map[int64]keyEntry   // kind -> key -> entry
	owners map[int]map[int64]ownerEntry // kind -> id -> owner
	// removed tombstones destroyed object IDs. A member's post-heal
	// reconcile (MsgKeyRegister) can report an object this side removed
	// while the two were cut off, and without the tombstone it would
	// resurrect the key mapping; the reconcile reads the tombstone as
	// "your copy lost" and the recover checks read it as "dead, not split".
	// IDs are allocated monotonically and never reused, so a tombstone
	// stays valid forever; the set grows by one int64 per destroyed
	// object, which is fine at sandbox scale.
	removed map[int]map[int64]struct{} // kind -> id
	// departed marks member addresses that said a graceful MsgBye while
	// holding something in these tables (never reap them: their objects
	// were persisted or migrated).
	departed map[string]struct{}
	pgs      *pgroupState
	// shard/nshards place this leaderState in a sharded plane: its
	// allocation cursors only ever mint IDs from slabs where
	// slab%nshards == shard (see alignCursorLocked). The classic
	// single-coordinator plane is shard 0 of 1.
	shard   int
	nshards int
}

func newLeaderStateShard(shard, nshards int) *leaderState {
	l := &leaderState{
		ranges:   make(map[int][]idRange),
		next:     map[int]int64{NSPid: 1, NSSysVMsg: 1, NSSysVSem: 1},
		keys:     map[int]map[int64]keyEntry{NSSysVMsg: {}, NSSysVSem: {}},
		owners:   map[int]map[int64]ownerEntry{NSSysVMsg: {}, NSSysVSem: {}},
		removed:  map[int]map[int64]struct{}{NSSysVMsg: {}, NSSysVSem: {}},
		departed: make(map[string]struct{}),
		pgs:      newPgroupState(),
		shard:    shard,
		nshards:  nshards,
	}
	for _, kind := range []int{NSPid, NSSysVMsg, NSSysVSem} {
		l.alignCursorLocked(kind, 1)
	}
	return l
}

// alignCursorLocked moves the cursor of one namespace kind to the start
// of this shard's next owned slab when the cursor sits in a foreign slab
// or an n-wide grant would cross out of the current one. A no-op in the
// 1-shard plane and whenever the grant fits inside an owned slab — the
// common case, so sharding costs the allocator nothing per grant. Caller
// holds l.mu (or owns l exclusively during construction).
func (l *leaderState) alignCursorLocked(kind int, n int64) {
	if l.nshards <= 1 {
		return
	}
	next := l.next[kind]
	if next < 1 {
		next = 1
	}
	slab := (next - 1) / slabWidth
	owned := int(slab%int64(l.nshards)) == l.shard
	fits := next+n-1 <= (slab+1)*slabWidth
	if owned && fits {
		return
	}
	s := slab + 1
	for int(s%int64(l.nshards)) != l.shard {
		s++
	}
	l.next[kind] = s*slabWidth + 1
}

// cursor reports the next unallocated ID of the given kind.
func (l *leaderState) cursor(kind int) int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.next[kind]
}

// allocRange hands out a fresh batch of n IDs of the given kind to owner.
func (l *leaderState) allocRange(kind int, n int64, owner string) (lo, hi int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.alignCursorLocked(kind, n)
	lo = l.next[kind]
	hi = lo + n - 1
	l.next[kind] = hi + 1
	l.ranges[kind] = append(l.ranges[kind], idRange{lo: lo, hi: hi, owner: owner})
	return lo, hi
}

// coveredLocked reports whether id falls inside any granted or claimed
// range of the given kind. Caller holds l.mu.
func (l *leaderState) coveredLocked(kind int, id int64) bool {
	for _, r := range l.ranges[kind] {
		if id >= r.lo && id <= r.hi {
			return true
		}
	}
	return false
}

// claimRange reserves a single ID some helper already holds — an adopted,
// restored, or externally assigned process PID — so the allocator never
// hands it out again: the claim is recorded as a one-ID range (unless an
// existing range already covers it) and the cursor advances past it.
// Batches granted to other helpers before the claim are not recalled; a
// claim is expected at join time, before the ID's neighborhood has been
// handed out. Reports whether the cursor moved.
func (l *leaderState) claimRange(kind int, id int64, owner string) (moved bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.coveredLocked(kind, id) {
		l.ranges[kind] = append(l.ranges[kind], idRange{lo: id, hi: id, owner: owner})
	}
	if moved = id >= l.next[kind]; moved {
		l.next[kind] = id + 1
	}
	return moved
}

// rangeOwner returns the helper owning the batch containing id.
func (l *leaderState) rangeOwner(kind int, id int64) (string, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, r := range l.ranges[kind] {
		if id >= r.lo && id <= r.hi {
			return r.owner, true
		}
	}
	return "", false
}

// keyResolve resolves or creates a key mapping at the key's shard leader,
// the key's one authority: the mapping is in the table before the caller's
// msgget or semget returns. proposedID is the requester's ID from its
// batch of this shard, used only on creation.
func (l *leaderState) keyResolve(kind int, key int64, flags int, proposedID int64, requester string) (id int64, owner string, err api.Errno) {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := l.keys[kind]
	if keys == nil {
		return 0, "", api.EINVAL
	}
	if key != api.IPCPrivate {
		if e, ok := keys[key]; ok {
			if flags&api.IPCCreat != 0 && flags&api.IPCExcl != 0 {
				return 0, "", api.EEXIST
			}
			return e.id, e.owner, 0
		}
		if flags&api.IPCCreat == 0 {
			return 0, "", api.ENOENT
		}
	}
	if proposedID <= 0 {
		return 0, "", api.EINVAL
	}
	if key != api.IPCPrivate {
		keys[key] = keyEntry{id: proposedID, owner: requester}
	}
	l.owners[kind][proposedID] = ownerEntry{addr: requester, epoch: 1}
	return proposedID, requester, 0
}

// registerKey installs a key mapping a member reports on reconcile after
// a leader change. The report can arrive after a migration already
// recorded a newer owner for the ID, so an existing owner entry wins over
// it. The returned ID is the authoritative one the key resolves to after
// the call: 0 when the reported object is tombstoned, the incumbent
// entry's ID when the key is already taken (first writer won), else the
// reported ID itself. Reconciliation compares it against the reported ID
// to detect losing copies.
func (l *leaderState) registerKey(kind int, key, id int64, owner string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dead := l.removed[kind][id]; dead {
		return 0 // the object was destroyed while the report was in flight
	}
	if cur, ok := l.owners[kind][id]; ok {
		owner = cur.addr
	} else {
		if l.owners[kind] == nil {
			return 0
		}
		l.owners[kind][id] = ownerEntry{addr: owner, epoch: 1}
	}
	if key != api.IPCPrivate && l.keys[kind] != nil {
		if cur, exists := l.keys[kind][key]; exists {
			return cur.id
		}
		l.keys[kind][key] = keyEntry{id: id, owner: owner}
	}
	return id
}

// idOwner returns the current owner of a System V object.
func (l *leaderState) idOwner(kind int, id int64) (string, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	o, ok := l.owners[kind][id]
	return o.addr, ok
}

// chown updates an object's owner after a migration (§4.3). epoch is the
// migration epoch under which newOwner received the object; a chown older
// than the recorded epoch lost a migration race and is dropped. epoch 0
// means the caller has no epoch knowledge (queue adoption from a persisted
// copy, whose previous owner is dead): the claim is accepted and bumps the
// recorded epoch.
func (l *leaderState) chown(kind int, id int64, newOwner string, epoch int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.owners[kind]
	if m == nil {
		return
	}
	cur := m[id]
	if epoch == 0 {
		epoch = cur.epoch + 1
	} else if epoch < cur.epoch {
		return
	}
	m[id] = ownerEntry{addr: newOwner, epoch: epoch}
	for key, e := range l.keys[kind] {
		if e.id == id {
			e.owner = newOwner
			l.keys[kind][key] = e
		}
	}
}

// remove drops an object and any key pointing at it, leaving a
// tombstone.
func (l *leaderState) remove(kind int, id int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.removeLocked(kind, id)
}

func (l *leaderState) removeLocked(kind int, id int64) {
	if l.removed[kind] != nil {
		l.removed[kind][id] = struct{}{}
	}
	delete(l.owners[kind], id)
	for key, e := range l.keys[kind] {
		if e.id == id {
			delete(l.keys[kind], key)
		}
	}
}

// holdsLocked reports whether addr still owns anything in these tables: an
// ID range or a System V object. Caller holds l.mu.
func (l *leaderState) holdsLocked(addr string) bool {
	for _, rs := range l.ranges {
		for _, r := range rs {
			if r.owner == addr {
				return true
			}
		}
	}
	for _, owners := range l.owners {
		for _, o := range owners {
			if o.addr == addr {
				return true
			}
		}
	}
	return false
}

// markDeparted records a graceful member departure (MsgBye): the member's
// objects were persisted or migrated on its way out, so a later stream
// teardown from it must not trigger reaping. Only a member that holds
// something here needs the mark — reaping one that holds nothing is a
// no-op — so the set grows with what departed members leave behind, not
// with how many ever said goodbye.
func (l *leaderState) markDeparted(addr string) {
	l.mu.Lock()
	if addr != "" && l.holdsLocked(addr) {
		l.departed[addr] = struct{}{}
	}
	l.mu.Unlock()
}

// reap reclaims a crashed member's namespace state: its ID ranges (so PID
// queries fail ESRCH instead of pointing at a ghost) and its owned System
// V objects (tombstoned, exactly like an explicit remove, so parked
// waiters and future lookups get EIDRM). Reports whether anything was
// reclaimed — false for an address that departed gracefully, was already
// reaped, or never held anything here.
func (l *leaderState) reap(addr string) (reaped bool) {
	if addr == "" {
		return false
	}
	l.mu.Lock()
	if _, gone := l.departed[addr]; gone {
		l.mu.Unlock()
		return false
	}
	for kind, rs := range l.ranges {
		keep := rs[:0]
		for _, r := range rs {
			if r.owner != addr {
				keep = append(keep, r)
			}
		}
		reaped = reaped || len(keep) != len(rs)
		l.ranges[kind] = keep
	}
	for kind, owners := range l.owners {
		for id, o := range owners {
			if o.addr == addr {
				reaped = true
				l.removeLocked(kind, id)
			}
		}
	}
	l.mu.Unlock()
	return l.pgs.dropAddr(addr) || reaped
}
