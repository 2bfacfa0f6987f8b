package ipc

import (
	"math/rand"
	"testing"

	"graphene/internal/api"
)

// TestLeaderStateIndexMatchesScan drives a leaderState through a seeded
// mix of every table mutation — key resolve, reconcile register, chown,
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
				op = "registerKey"
				id := pickID()
				if rng.Intn(2) == 0 {
					id = nextID
					nextID++
				}
				l.registerKey(kind, key, id, addr)
			case 2:
				op = "chown"
				l.chown(kind, pickID(), addr, rng.Int63n(3))
			case 3:
				op = "remove"
				l.remove(kind, pickID())
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
