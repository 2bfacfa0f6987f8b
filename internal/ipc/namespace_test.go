package ipc

import (
	"math/rand"
	"reflect"
	"testing"

	"graphene/internal/api"
)

// TestLeaderStateIndexMatchesScan drives a leaderState through a seeded
// mix of every table mutation — key resolve, recover report, chown,
// remove, reap, range grant, claim and goodbye — and after each step
// compares the id -> key index and the per-owner holdings count with a
// brute-force recount of keys, owners and ranges (checkIndexLocked).
func TestLeaderStateIndexMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := newLeaderState()
		addrs := []string{"ipc.11", "ipc.12", "ipc.13", "ipc.14"}
		kinds := []int{NSSysVMsg, NSSysVSem}
		var nextID int64 = 1
		pickID := func() int64 { return 1 + rng.Int63n(nextID) }
		for step := 0; step < 400; step++ {
			kind := kinds[rng.Intn(2)]
			addr := addrs[rng.Intn(len(addrs))]
			key := int64(rng.Intn(24))
			if rng.Intn(6) == 0 {
				key = api.IPCPrivate
			}
			var op string
			switch rng.Intn(8) {
			case 0:
				op = "keyResolve"
				flags := []int{0, api.IPCCreat, api.IPCCreat | api.IPCExcl}[rng.Intn(3)]
				var proposed int64
				if flags&api.IPCCreat != 0 || key == api.IPCPrivate {
					proposed = nextID
					nextID++
				}
				l.keyResolve(kind, key, flags, proposed, addr)
			case 1:
				op = "installRecoverState"
				id := pickID()
				if rng.Intn(2) == 0 {
					id = nextID
					nextID++
				}
				l.installRecoverState(recoverPayload{
					pids:    []pgMember{{PID: 1 + rng.Int63n(200), Addr: addrs[rng.Intn(len(addrs))]}},
					objects: []recoverObject{{Kind: kind, ID: id, Key: key, Epoch: rng.Int63n(3)}},
				}, addr)
			case 2:
				op = "chown"
				l.chown(kind, pickID(), addr, rng.Int63n(3))
			case 3:
				op = "remove"
				l.remove(kind, pickID(), rng.Int63n(4))
			case 4:
				op = "reap"
				l.reap(addr)
			case 5:
				op = "allocRange"
				l.allocRange(NSPid, 1+rng.Int63n(8), addr)
			case 6:
				op = "claimRange"
				l.claimRange(NSPid, 1+rng.Int63n(200), addr)
			case 7:
				op = "markDeparted"
				l.markDeparted(addr)
			}
			l.mu.RLock()
			if bad := l.checkIndexLocked(); len(bad) > 0 {
				t.Fatalf("seed %d step %d (%s): index or holdings disagree with the tables: %v", seed, step, op, bad)
			}
			l.mu.RUnlock()
		}
	}
}

// leaderTableSizes counts the entries of every table a leaderState keeps
// — each map and slice field, plus the maps and slices nested one level
// in them — by field name, so a table added later is counted without a
// change here.
func leaderTableSizes(l *leaderState) map[string]int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	sizes := make(map[string]int)
	v := reflect.ValueOf(l).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Map && f.Kind() != reflect.Slice {
			continue
		}
		n := f.Len()
		if f.Kind() == reflect.Map {
			for it := f.MapRange(); it.Next(); {
				if e := it.Value(); e.Kind() == reflect.Map || e.Kind() == reflect.Slice {
					n += e.Len()
				}
			}
		}
		sizes[v.Type().Field(i).Name] = n
	}
	return sizes
}

// TestLeaderStateFlatUnderRemovals: a member creates and removes 10,000
// fresh keys, queues and semaphore sets in turn. The leader keeps nothing
// of a removed object — IDs are never reused, so no record of the dead
// ID is needed to refuse it — and no range for the System V ID batches
// the churn consumes, so every table is the size it was before.
func TestLeaderStateFlatUnderRemovals(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())
	cycle := func(i int) {
		key := int64(0x20000 + i)
		if i%2 == 0 {
			id, err := mh.Msgget(key, api.IPCCreat|api.IPCExcl)
			if err == nil {
				err = mh.MsgRmid(id)
			}
			if err != nil {
				t.Fatalf("queue cycle %d: %v", i, err)
			}
			return
		}
		id, err := mh.Semget(key, 1, api.IPCCreat|api.IPCExcl)
		if err == nil {
			err = mh.SemRmid(id)
		}
		if err != nil {
			t.Fatalf("set cycle %d: %v", i, err)
		}
	}
	// The first cycle of each kind dials the leader and takes a batch.
	cycle(0)
	cycle(1)
	before := leaderTableSizes(lh.leader)
	for i := 2; i < 10_002; i++ {
		cycle(i)
	}
	if after := leaderTableSizes(lh.leader); !reflect.DeepEqual(before, after) {
		t.Fatalf("leader tables grew under create + rmid churn:\n before %v\n after  %v", before, after)
	}
}
