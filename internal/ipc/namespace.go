package ipc

import (
	"fmt"
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
	// keyOf indexes keys by ID (kind -> id -> key), so a removal or an
	// ownership change finds the object's key without ranging over every
	// key of the kind. An ID names one object and an object has one key:
	// setKeyLocked keeps the index and keys exact inverses.
	keyOf map[int]map[int64]int64
	// held counts, per member address, the ranges and System V objects it
	// holds in these tables, so a goodbye asks "does it hold anything"
	// without a scan. Addresses holding nothing have no entry.
	held map[string]int
	// departed marks member addresses that said a graceful MsgBye while
	// holding something in these tables (never reap them: their objects
	// were persisted or migrated).
	departed map[string]struct{}
	// outran holds the IDs whose removal got here before the chown of the
	// handoff that gave the remover the object (the remover's migration
	// epoch was above the recorded owner's), so that chown, still on its
	// way, is known to name a removed object. The chown of that epoch
	// consumes the entry; a removal that outruns nothing leaves none.
	outran map[int]map[int64]int64 // kind -> id -> the remover's epoch
	pgs    *pgroupState
}

func newLeaderState() *leaderState {
	return &leaderState{
		ranges:   make(map[int][]idRange),
		next:     map[int]int64{NSPid: 1, NSSysVMsg: 1, NSSysVSem: 1},
		keys:     map[int]map[int64]keyEntry{NSSysVMsg: {}, NSSysVSem: {}},
		owners:   map[int]map[int64]ownerEntry{NSSysVMsg: {}, NSSysVSem: {}},
		keyOf:    map[int]map[int64]int64{NSSysVMsg: {}, NSSysVSem: {}},
		held:     make(map[string]int),
		departed: make(map[string]struct{}),
		outran:   map[int]map[int64]int64{NSSysVMsg: {}, NSSysVSem: {}},
		pgs:      newPgroupState(),
	}
}

// cursor reports the next unallocated ID of the given kind.
func (l *leaderState) cursor(kind int) int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.next[kind]
}

// allocRange hands out a fresh batch of n IDs of the given kind to owner.
// A PID batch is recorded as a range, through which a PID query finds
// the batch's holder (rangeOwner). A System V batch is recorded by the
// cursor alone: a System V ID resolves through its object's owner entry,
// so a range would be one more entry per batch that nothing reads.
func (l *leaderState) allocRange(kind int, n int64, owner string) (lo, hi int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lo = l.next[kind]
	hi = lo + n - 1
	l.next[kind] = hi + 1
	if kind == NSPid {
		l.addRangeLocked(kind, idRange{lo: lo, hi: hi, owner: owner})
	}
	return lo, hi
}

// addRangeLocked records a granted or claimed range. Caller holds l.mu.
func (l *leaderState) addRangeLocked(kind int, r idRange) {
	l.ranges[kind] = append(l.ranges[kind], r)
	l.held[r.owner]++
}

// releaseLocked takes one holding off addr's count. Caller holds l.mu.
func (l *leaderState) releaseLocked(addr string) {
	if l.held[addr] <= 1 {
		delete(l.held, addr)
	} else {
		l.held[addr]--
	}
}

// setOwnerLocked records o as the owner of object id and carries the new
// owner into the object's key mapping, if it has one. Caller holds l.mu,
// and l.owners[kind] exists.
func (l *leaderState) setOwnerLocked(kind int, id int64, o ownerEntry) {
	m := l.owners[kind]
	if cur, ok := m[id]; ok {
		l.releaseLocked(cur.addr)
	}
	m[id] = o
	l.held[o.addr]++
	if key, ok := l.keyOf[kind][id]; ok {
		l.keys[kind][key] = keyEntry{id: id, owner: o.addr}
	}
}

// setKeyLocked maps key to object id under the object's recorded owner.
// The ID the key named before loses its key, and a key id was mapped
// under before loses its ID, so keys and keyOf stay exact inverses.
// Caller holds l.mu, and the object's owner entry is set.
func (l *leaderState) setKeyLocked(kind int, key, id int64) {
	if old, ok := l.keyOf[kind][id]; ok {
		delete(l.keys[kind], old)
	}
	if prev, ok := l.keys[kind][key]; ok {
		delete(l.keyOf[kind], prev.id)
	}
	l.keys[kind][key] = keyEntry{id: id, owner: l.owners[kind][id].addr}
	l.keyOf[kind][id] = key
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
		l.addRangeLocked(kind, idRange{lo: id, hi: id, owner: owner})
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

// keyResolve resolves or creates a key mapping at the leader, the key's
// one authority: the mapping is in the table before the caller's msgget or
// semget returns. proposedID is the requester's ID from its batch, used
// only on creation.
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
	l.setOwnerLocked(kind, proposedID, ownerEntry{addr: requester, epoch: 1})
	if key != api.IPCPrivate {
		l.setKeyLocked(kind, key, proposedID)
	}
	return proposedID, requester, 0
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
// than the recorded epoch lost a migration race and is dropped, and so is
// one the receiver's removal outran. A claim on an ID with no owner entry
// is recorded: at a freshly elected leader that is an object no report
// has named yet — a queue adopted from a persisted copy, or a handoff that
// committed between the two ends' reports. epoch 0 means the caller has
// no epoch knowledge (queue adoption from a persisted copy, whose previous
// owner is gone): the claim is accepted and bumps the recorded epoch.
func (l *leaderState) chown(kind int, id int64, newOwner string, epoch int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.owners[kind]
	if m == nil {
		return
	}
	if gone, ok := l.outran[kind][id]; ok && epoch <= gone {
		if epoch == gone {
			delete(l.outran[kind], id)
		}
		return
	}
	cur := m[id]
	if epoch == 0 {
		epoch = cur.epoch + 1
	} else if epoch < cur.epoch {
		return
	}
	l.setOwnerLocked(kind, id, ownerEntry{addr: newOwner, epoch: epoch})
}

// remove drops an object and any key pointing at it. epoch is the
// remover's migration epoch (0 when it has none: the owner died and a
// survivor drops what is left). An epoch above the recorded owner's means
// the chown of the handoff that made the remover owner is still on its
// way, and outran keeps the ID until it lands. Otherwise nothing of the
// object stays behind: IDs are never reused, so no later request can name
// it again except to be told it is gone.
func (l *leaderState) remove(kind int, id, epoch int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if o, ok := l.owners[kind][id]; ok && epoch > o.epoch {
		l.outran[kind][id] = epoch
	}
	l.removeLocked(kind, id)
}

func (l *leaderState) removeLocked(kind int, id int64) {
	if o, ok := l.owners[kind][id]; ok {
		delete(l.owners[kind], id)
		l.releaseLocked(o.addr)
	}
	if key, ok := l.keyOf[kind][id]; ok {
		delete(l.keys[kind], key)
		delete(l.keyOf[kind], id)
	}
}

// holdsLocked reports whether addr still owns anything in these tables: an
// ID range or a System V object. Caller holds l.mu.
func (l *leaderState) holdsLocked(addr string) bool {
	return l.held[addr] > 0
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
// V objects (removed, exactly like an explicit remove, so parked waiters
// and future lookups get EIDRM). Reports whether anything was
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
	if l.holdsLocked(addr) {
		reaped = true
		for kind, rs := range l.ranges {
			keep := rs[:0]
			for _, r := range rs {
				if r.owner != addr {
					keep = append(keep, r)
				}
			}
			l.ranges[kind] = keep
		}
		for kind, owners := range l.owners {
			for id, o := range owners {
				if o.addr == addr {
					l.removeLocked(kind, id)
				}
			}
		}
		delete(l.held, addr)
	}
	l.mu.Unlock()
	return l.pgs.dropAddr(addr) || reaped
}

// checkIndexLocked recounts the tables the index and the holdings count
// summarise — keys, owners and ranges — and describes every entry of
// keyOf or held that disagrees with the recount, and every key whose
// recorded owner is not its object's. Caller holds l.mu (read suffices).
func (l *leaderState) checkIndexLocked() []string {
	var bad []string
	held := make(map[string]int)
	for _, rs := range l.ranges {
		for _, r := range rs {
			held[r.owner]++
		}
	}
	for kind, owners := range l.owners {
		for _, o := range owners {
			held[o.addr]++
		}
		indexed := 0
		for key, e := range l.keys[kind] {
			if k, ok := l.keyOf[kind][e.id]; !ok || k != key {
				bad = append(bad, fmt.Sprintf("kind %d key %d -> id %d: index has key %d (present %v)", kind, key, e.id, k, ok))
			} else {
				indexed++
			}
			if o, ok := owners[e.id]; !ok || o.addr != e.owner {
				bad = append(bad, fmt.Sprintf("kind %d key %d: owner %q, object %d owned by %q (present %v)", kind, key, e.owner, e.id, o.addr, ok))
			}
		}
		if indexed != len(l.keyOf[kind]) {
			bad = append(bad, fmt.Sprintf("kind %d: index holds %d ids, keys map %d of them", kind, len(l.keyOf[kind]), indexed))
		}
	}
	for addr, n := range held {
		if l.held[addr] != n {
			bad = append(bad, fmt.Sprintf("%s holds %d, counted %d", addr, n, l.held[addr]))
		}
	}
	if len(l.held) != len(held) {
		bad = append(bad, fmt.Sprintf("holdings count has %d addresses, tables %d", len(l.held), len(held)))
	}
	return bad
}
