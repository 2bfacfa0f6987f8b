package ipc

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"graphene/internal/api"
	"graphene/internal/host"
)

// Key resolution: a System V key has one authority, the leader.
// A member's msgget/semget is one MsgKeyGet to that leader, the leader's
// own is a plain call against its tables, and either way the mapping is
// registered before the call returns. Each behaviour below runs for both
// keyed kinds.

// keyedKind is the guest-facing get and rmid of one System V kind.
type keyedKind struct {
	kind int
	get  func(h *Helper, key int64, flags int) (int64, error)
	rmid func(h *Helper, id int64) error
}

var (
	msgKeyed = keyedKind{
		kind: NSSysVMsg,
		get:  func(h *Helper, key int64, flags int) (int64, error) { return h.Msgget(key, flags) },
		rmid: (*Helper).MsgRmid,
	}
	semKeyed = keyedKind{
		kind: NSSysVSem,
		get:  func(h *Helper, key int64, flags int) (int64, error) { return h.Semget(key, 1, flags) },
		rmid: (*Helper).SemRmid,
	}
)

// leaderMaps returns the (id, owner) the leader's table holds for key.
func leaderMaps(lh *Helper, kind int, key int64) (keyEntry, bool) {
	lh.leader.mu.RLock()
	defer lh.leader.mu.RUnlock()
	e, ok := lh.leader.keys[kind][key]
	return e, ok
}

// siblingLookup: a member creates clustered keys, and the leader's table
// maps each one before the create returns; a sibling member and the
// leader then look every key up to the creator's ID.
func siblingLookup(t *testing.T, k keyedKind, base int64) (lh, m1, m2 *Helper, ids []int64) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ = g.member(lp, lh.Addr, 2, newFakeService())
	m2, _ = g.member(lp, lh.Addr, 3, newFakeService())
	for i := int64(0); i < 8; i++ {
		id, err := k.get(m1, base+i, api.IPCCreat)
		if err != nil {
			t.Fatalf("create key %d: %v", base+i, err)
		}
		if e, ok := leaderMaps(lh, k.kind, base+i); !ok || e.id != id || e.owner != m1.Addr {
			t.Fatalf("key %d: leader maps %+v (mapped=%v) when the create returned, want id %d owner %s",
				base+i, e, ok, id, m1.Addr)
		}
		ids = append(ids, id)
	}
	for i, want := range ids {
		for _, h := range []*Helper{m2, lh} {
			if got, err := k.get(h, base+int64(i), 0); err != nil || got != want {
				t.Fatalf("%s lookup of key %d: id=%d err=%v, want %d", h.Addr, base+int64(i), got, err, want)
			}
		}
	}
	return lh, m1, m2, ids
}

func TestKeySiblingLookupMsg(t *testing.T) {
	_, m1, m2, ids := siblingLookup(t, msgKeyed, 65280)
	if err := m2.Msgsnd(ids[0], 1, []byte("hi"), 0); err != nil {
		t.Fatalf("sibling send: %v", err)
	}
	if mt, data, err := m1.Msgrcv(ids[0], 0, 0); err != nil || mt != 1 || string(data) != "hi" {
		t.Fatalf("creator recv: %d %q %v", mt, data, err)
	}
}

func TestKeySiblingLookupSem(t *testing.T) {
	lh, m1, _, ids := siblingLookup(t, semKeyed, 69632)
	if err := m1.Semop(ids[0], []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := lh.Semop(ids[0], []api.SemBuf{{Num: 0, Op: -1}}); err != nil {
		t.Fatal(err)
	}
}

// exclAcrossMembers: IPC_CREAT|IPC_EXCL of an existing key answers EEXIST
// from every member and from the leader, whoever created it; a plain
// IPC_CREAT of it returns the existing ID. Two members racing an
// exclusive create of the same fresh key get one winner and one EEXIST.
func exclAcrossMembers(t *testing.T, k keyedKind, base int64) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())
	excl := api.IPCCreat | api.IPCExcl
	for i, creator := range []*Helper{lh, m1} {
		key := base + int64(i)
		id, err := k.get(creator, key, excl)
		if err != nil {
			t.Fatalf("%s exclusive create of key %d: %v", creator.Addr, key, err)
		}
		for _, h := range []*Helper{lh, m1, m2} {
			if _, err := k.get(h, key, excl); err != api.EEXIST {
				t.Fatalf("%s exclusive create of %s's key %d: err=%v, want EEXIST", h.Addr, creator.Addr, key, err)
			}
			if got, err := k.get(h, key, api.IPCCreat); err != nil || got != id {
				t.Fatalf("%s create of %s's key %d: id=%d err=%v, want %d", h.Addr, creator.Addr, key, got, err, id)
			}
		}
	}
	for i := int64(0); i < 16; i++ {
		key := base + 2 + i
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for j, h := range []*Helper{m1, m2} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[j] = k.get(h, key, excl)
			}()
		}
		wg.Wait()
		if (errs[0] == nil) == (errs[1] == nil) || (errs[0] != nil && errs[0] != api.EEXIST) || (errs[1] != nil && errs[1] != api.EEXIST) {
			t.Fatalf("racing exclusive creates of key %d: %v, want one winner and one EEXIST", key, errs)
		}
	}
}

func TestKeyExclAcrossMembersMsg(t *testing.T) { exclAcrossMembers(t, msgKeyed, 70656) }
func TestKeyExclAcrossMembersSem(t *testing.T) { exclAcrossMembers(t, semKeyed, 70656) }

// rmidENOENT: once rmid returns, every member — creator, sibling and
// leader — reads ENOENT for the key, and a fresh create mints a new ID
// rather than resurrecting the dead one. The sibling removes, so the
// removal travels to the remote owner and then to the leader.
func rmidENOENT(t *testing.T, k keyedKind, key int64) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())
	id, err := k.get(m1, key, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Helper{lh, m2} {
		if got, err := k.get(h, key, 0); err != nil || got != id {
			t.Fatalf("%s lookup before rmid: id=%d err=%v, want %d", h.Addr, got, err, id)
		}
	}
	if err := k.rmid(m2, id); err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Helper{lh, m1, m2} {
		if got, err := k.get(h, key, 0); err != api.ENOENT {
			t.Fatalf("%s lookup after rmid: id=%d err=%v, want ENOENT", h.Addr, got, err)
		}
	}
	id2, err := k.get(m1, key, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("create after rmid resurrected dead id %d", id)
	}
}

func TestKeyRmidENOENTMsg(t *testing.T) { rmidENOENT(t, msgKeyed, 66560) }
func TestKeyRmidENOENTSem(t *testing.T) { rmidENOENT(t, semKeyed, 66560) }

// survivesCreatorExit: a member creates keys and exits; a member that
// joined after the exit finds every key under its original ID (a queue
// persisted for adoption, a set evicted to the leader) and can use it.
func survivesCreatorExit(t *testing.T, k keyedKind, base int64) (survivor *Helper, ids []int64) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, mp := g.member(lp, lh.Addr, 2, newFakeService())
	for i := int64(0); i < 4; i++ {
		id, err := k.get(m1, base+i, api.IPCCreat)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	m1.Shutdown()
	mp.Proc().Exit(0)
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())
	for i, want := range ids {
		for _, h := range []*Helper{m2, lh} {
			if got, err := k.get(h, base+int64(i), 0); err != nil || got != want {
				t.Fatalf("%s lookup of key %d after its creator exited: id=%d err=%v, want %d",
					h.Addr, base+int64(i), got, err, want)
			}
		}
	}
	return m2, ids
}

func TestKeySurvivesCreatorExitMsg(t *testing.T) {
	m2, ids := survivesCreatorExit(t, msgKeyed, 67584)
	if err := m2.Msgsnd(ids[0], 1, []byte("after"), 0); err != nil {
		t.Fatalf("send to the exited creator's queue: %v", err)
	}
	if mt, data, err := m2.Msgrcv(ids[0], 0, api.IPCNoWait); err != nil || mt != 1 || string(data) != "after" {
		t.Fatalf("recv: %d %q %v", mt, data, err)
	}
}

func TestKeySurvivesCreatorExitSem(t *testing.T) {
	m2, ids := survivesCreatorExit(t, semKeyed, 71680)
	if err := m2.Semop(ids[0], []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
		t.Fatalf("semop on the exited creator's set: %v", err)
	}
	if err := m2.Semop(ids[0], []api.SemBuf{{Num: 0, Op: -1, Flg: int16(api.IPCNoWait)}}); err != nil {
		t.Fatalf("semop on the exited creator's set: %v", err)
	}
}

// TestInvariantKeyedObjectResolvesAtLeader: every keyed object a member
// creates is mapped at the leader to (id, member) the moment the create
// returns: the check runs straight after the creates, so only a create
// that registers synchronously passes.
func TestInvariantKeyedObjectResolvesAtLeader(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())

	base := int64(72704)
	for i := int64(0); i < 4; i++ {
		if _, err := mh.Msgget(base+i, api.IPCCreat); err != nil {
			t.Fatal(err)
		}
		if _, err := mh.Semget(base+i, 1, api.IPCCreat); err != nil {
			t.Fatal(err)
		}
	}
	if v := CheckInvariants([]*Helper{lh, mh}); len(v) != 0 {
		t.Fatalf("keyed objects not resolvable at the leader: %v", v)
	}
}

// TestInvariantFlagsASystemVIDLiveTwice: two helpers holding one System V
// ID live — what a batch handed out twice leaves behind — is a violation,
// and a handoff in flight, where both ends hold the ID, is not.
func TestInvariantFlagsASystemVIDLiveTwice(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())
	id, err := m1.Msgget(api.IPCPrivate, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	all := []*Helper{lh, m1, m2}
	if v := CheckInvariants(all); len(v) != 0 {
		t.Fatalf("violations before the double mint: %v", v)
	}
	// m1's copy is mid-handoff to m2: both hold it, and that is allowed.
	m1.mu.Lock()
	hd := m1.objectLocked(NSSysVMsg, id).header()
	m1.mu.Unlock()
	hd.mu.Lock()
	hd.migrating = true
	hd.mu.Unlock()
	m2.mu.Lock()
	m2.setObjectLocked(newMsgQueue(id, api.IPCPrivate))
	m2.mu.Unlock()
	if v := CheckInvariants(all); len(v) != 0 {
		t.Fatalf("a handoff in flight flagged: %v", v)
	}
	hd.mu.Lock()
	hd.migrating = false
	hd.mu.Unlock()
	v := CheckInvariants(all)
	if len(v) != 1 || !strings.Contains(v[0], fmt.Sprintf("id %d live at both", id)) {
		t.Fatalf("an ID live at two helpers: violations %v", v)
	}
}

// TestNamespaceRPCAllocations holds a member's namespace RPCs to
// allocation ceilings per unit: a lookup of a live key, a create + rmid of
// a fresh key (BenchmarkRPCKeyLookupRemote and BenchmarkRPCKeyChurnRemote),
// and an acknowledged RPC send with the owner's receive
// (BenchmarkRPCMsgsndRemote). A per-call timer, a reply kept per create
// or a task per rmid puts them over. Each unit pools a response
// channel and a responder on both helpers, so the race detector's pool
// drops alone lift it over a ceiling: the gate runs without it.
func TestNamespaceRPCAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts under -race measure sync.Pool's random drops")
	}
	SetMigrationEnabled(false)
	defer SetMigrationEnabled(true)
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	live, err := lh.Msgget(0x7c00, api.IPCCreat)
	must(err)
	qid, err := lh.Msgget(0x7c01, api.IPCCreat)
	must(err)
	payload := make([]byte, host.RingSlotData+1)
	key := int64(0x10000)

	for _, c := range []struct {
		name    string
		ceiling float64
		unit    func()
	}{
		{"member lookup", 2, func() {
			if got, err := mh.Msgget(0x7c00, 0); err != nil || got != live {
				t.Fatalf("lookup: %d, %v; want %d", got, err, live)
			}
		}},
		{"member create+rmid", 4, func() {
			key++
			id, err := mh.Msgget(key, api.IPCCreat|api.IPCExcl)
			must(err)
			must(mh.MsgRmid(id))
		}},
		{"RPC msgsnd+owner msgrcv", 4, func() {
			must(mh.Msgsnd(qid, 1, payload, 0))
			_, _, err := lh.Msgrcv(qid, 0, 0)
			must(err)
		}},
	} {
		if got := testing.AllocsPerRun(200, c.unit); got > c.ceiling {
			t.Errorf("%s: %v allocs per unit, want at most %v", c.name, got, c.ceiling)
		}
	}
}
