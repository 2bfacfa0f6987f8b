package ipc

import (
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
)

// The one System V operation path (DESIGN.md "SysV operation path"):
// what it must not lose, keep or allocate.

// TestSendDuringOwnerExitIsNotLost sends to a queue whose owner is
// exiting, after the owner persisted the queue and while its goodbye to
// the leader is held up. The owner's copy is no longer the queue, so the
// send must not be acked into it: it retries until the owner's streams
// close, adopts the persisted file, and lands there, after the message
// sent before the exit.
func TestSendDuringOwnerExitIsNotLost(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	oh, _ := g.member(lp, lh.Addr, 2, newFakeService())
	ph, _ := g.member(lp, lh.Addr, 3, newFakeService())

	id, err := oh.Msgget(0x5e1d, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ph.Msgget(0x5e1d, 0); err != nil || got != id {
		t.Fatalf("peer lookup: %d, %v; want %d", got, err, id)
	}
	if err := ph.Msgsnd(id, 1, []byte("before"), 0); err != nil {
		t.Fatal(err)
	}

	plan := host.NewFaultPlan().DelayRule("rpc.MsgBye.enter", 1, 100*time.Millisecond)
	lp.Proc().SetFaultPlan(plan)
	exited := make(chan struct{})
	go func() {
		oh.Shutdown()
		close(exited)
	}()
	// The goodbye reaches the leader only after the queue is persisted.
	waitFor(t, 2*time.Second, "the owner's goodbye", func() bool { return plan.Hits("rpc.MsgBye.enter") > 0 })
	if err := ph.Msgsnd(id, 1, []byte("during"), 0); err != nil {
		t.Fatalf("send during the owner's exit: %v", err)
	}
	<-exited

	for _, want := range []string{"before", "during"} {
		_, data, err := ph.Msgrcv(id, 0, api.IPCNoWait)
		if err != nil || string(data) != want {
			t.Fatalf("after the exit: got %q, %v; want %q", data, err, want)
		}
	}
	if _, _, err := ph.Msgrcv(id, 0, api.IPCNoWait); err != api.ENOMSG {
		t.Fatalf("after both messages err = %v, want ENOMSG", err)
	}
}

// TestSendAcrossHandoffKeepsOrder sends 200 messages from a helper whose
// owner cache names the queue's creator while the queue migrates to its
// receiver, which drains it with blocking receives. The sender runs at
// most a window of messages ahead, so its sends meet the old copy before,
// during and after the handoff: each must land exactly once, in send
// order, at whichever copy is the queue.
func TestSendAcrossHandoffKeepsOrder(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	oh, _ := g.member(lp, lh.Addr, 2, newFakeService())
	rh, _ := g.member(lp, lh.Addr, 3, newFakeService())
	sh, _ := g.member(lp, lh.Addr, 4, newFakeService())

	id, err := oh.Msgget(0x5e1e, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	const total, window = 200, 8
	credits := make(chan struct{}, window)
	// The first send caches the creator as the owner.
	credits <- struct{}{}
	if err := sh.Msgsnd(id, 1, []byte{0, 0}, 0); err != nil {
		t.Fatal(err)
	}
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 1; i < total; i++ {
			credits <- struct{}{}
			if err := sh.Msgsnd(id, 1, []byte{byte(i), byte(i >> 8)}, 0); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < total; i++ {
		_, data, err := rh.Msgrcv(id, 0, 0)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got := int(data[0]) | int(data[1])<<8; got != i {
			t.Fatalf("recv %d delivered message %d: a send across the handoff was reordered, lost or doubled", i, got)
		}
		<-credits
	}
	<-sent
	if _, _, err := rh.Msgrcv(id, 0, api.IPCNoWait); err != api.ENOMSG {
		t.Fatalf("after %d messages err = %v, want ENOMSG", total, err)
	}
	rh.mu.Lock()
	q := rh.queues[id]
	rh.mu.Unlock()
	if q == nil {
		t.Fatal("the queue never migrated to its receiver; the sends did not cross a handoff")
	}
}

// TestLookupLeavesNoOwnerCacheEntry runs units of create (A) → lookup
// (B) → rmid (A), queues and sets in turn. B never uses the objects, so
// no owner records it as an accessor and no removal is sent its way: it
// must not have cached their owners either.
func TestLookupLeavesNoOwnerCacheEntry(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	ah, _ := g.member(lp, lh.Addr, 2, newFakeService())
	bh, _ := g.member(lp, lh.Addr, 3, newFakeService())
	const units = 1000
	for i := 0; i < units; i++ {
		key := int64(0x7000 + i)
		get, rmid := ah.Msgget, ah.MsgRmid
		lookup := bh.Msgget
		if i%2 == 1 {
			get = func(key int64, flags int) (int64, error) { return ah.Semget(key, 1, flags) }
			lookup = func(key int64, flags int) (int64, error) { return bh.Semget(key, 1, flags) }
			rmid = ah.SemRmid
		}
		id, err := get(key, api.IPCCreat|api.IPCExcl)
		if err != nil {
			t.Fatalf("unit %d: create: %v", i, err)
		}
		if got, err := lookup(key, 0); err != nil || got != id {
			t.Fatalf("unit %d: lookup: %d, %v; want %d", i, got, err, id)
		}
		if err := rmid(id); err != nil {
			t.Fatalf("unit %d: rmid: %v", i, err)
		}
	}
	bh.mu.Lock()
	n := 0
	for _, m := range bh.ownerCache {
		n += len(m)
	}
	bh.mu.Unlock()
	if n != 0 {
		t.Fatalf("after %d create/lookup/rmid units the looking-up helper caches %d owners, want 0", units, n)
	}
}

// intrObject is one interruptible System V operation for the matrix: a
// blocking take that a signal can interrupt, the put that satisfies it,
// and a non-blocking take that answers empty once nothing is left.
type intrObject struct {
	name   string
	create func(h *Helper, key int64) (int64, error)
	call   func(h *Helper, id int64, intr <-chan struct{}) error
	put    func(h *Helper, id int64) error
	take   func(h *Helper, id int64) error
	empty  api.Errno
	// parked counts the waiters parked at owner h.
	parked func(h *Helper, id int64) int
}

var intrObjects = []intrObject{
	{
		name:   "msgrcv",
		create: func(h *Helper, key int64) (int64, error) { return h.Msgget(key, api.IPCCreat) },
		call: func(h *Helper, id int64, intr <-chan struct{}) error {
			_, data, err := h.MsgrcvIntr(id, 0, 0, intr)
			if err == nil && string(data) != "m" {
				return api.EINVAL
			}
			return err
		},
		put: func(h *Helper, id int64) error { return h.Msgsnd(id, 1, []byte("m"), 0) },
		take: func(h *Helper, id int64) error {
			_, data, err := h.Msgrcv(id, 0, api.IPCNoWait)
			if err == nil && string(data) != "m" {
				return api.EINVAL
			}
			return err
		},
		empty: api.ENOMSG,
		parked: func(h *Helper, id int64) int {
			h.mu.Lock()
			q := h.queues[id]
			h.mu.Unlock()
			q.mu.Lock()
			defer q.mu.Unlock()
			return len(q.waiters)
		},
	},
	{
		name:   "semop",
		create: func(h *Helper, key int64) (int64, error) { return h.Semget(key, 1, api.IPCCreat) },
		call: func(h *Helper, id int64, intr <-chan struct{}) error {
			return h.SemopIntr(id, []api.SemBuf{{Num: 0, Op: -1}}, intr)
		},
		put: func(h *Helper, id int64) error { return h.Semop(id, []api.SemBuf{{Num: 0, Op: 1}}) },
		take: func(h *Helper, id int64) error {
			return h.Semop(id, []api.SemBuf{{Num: 0, Op: -1, Flg: api.IPCNoWait}})
		},
		empty: api.EAGAIN,
		parked: func(h *Helper, id int64) int {
			h.mu.Lock()
			s := h.sems[id]
			h.mu.Unlock()
			s.mu.Lock()
			defer s.mu.Unlock()
			return len(s.waiters)
		},
	},
}

// TestSysVInterruptMatrix interrupts a parked msgrcv and semop on every
// route that can park one — the owner's own copy and an RPC to the owner
// — once before the message or permit arrives (signal wins: EINTR) and
// once after (delivery wins: the result). Either way the unit is returned by the interrupted call or is
// still there for the next one, never both and never neither.
func TestSysVInterruptMatrix(t *testing.T) {
	SetMigrationEnabled(false)
	defer SetMigrationEnabled(true)
	key := int64(0x6100)
	for _, obj := range intrObjects {
		for _, route := range []string{"owner-local", "rpc"} {
			for _, signalWins := range []bool{true, false} {
				key++
				name := obj.name + "/" + route + "/delivery-wins"
				if signalWins {
					name = obj.name + "/" + route + "/signal-wins"
				}
				t.Run(name, func(t *testing.T) {
					g := newTestGroup(t)
					lh, lp := g.leader(newFakeService())
					mh, _ := g.member(lp, lh.Addr, 2, newFakeService())
					id, err := obj.create(lh, key)
					if err != nil {
						t.Fatal(err)
					}
					caller := lh
					if route != "owner-local" {
						caller = mh
					}

					intr := make(chan struct{})
					res := make(chan error, 1)
					go func() { res <- obj.call(caller, id, intr) }()
					waitFor(t, 2*time.Second, "the parked call", func() bool { return obj.parked(lh, id) == 1 })
					if !signalWins {
						if err := obj.put(lh, id); err != nil {
							t.Fatal(err)
						}
					}
					close(intr)
					var err2 error
					select {
					case err2 = <-res:
					case <-time.After(5 * time.Second):
						t.Fatal("interrupted call never returned")
					}
					if signalWins {
						if err2 != api.EINTR {
							t.Fatalf("signal before the unit: %v, want EINTR", err2)
						}
						if err := obj.put(lh, id); err != nil {
							t.Fatal(err)
						}
						// The cancelled call took nothing: the unit is there.
						if err := obj.take(caller, id); err != nil {
							t.Fatalf("take after EINTR: %v", err)
						}
					} else if err2 != nil {
						t.Fatalf("signal after the unit: %v, want the unit", err2)
					}
					if err := obj.take(caller, id); api.ToErrno(err) != obj.empty {
						t.Fatalf("second take: %v, want %v", err, obj.empty)
					}
				})
			}
		}
	}
}

// TestSysVOpPathAllocations holds the operation path to allocation
// ceilings per unit: an owner-local send and receive, an owner-local semop
// up and down, and a ring send with the owner's receive. The ceilings hold under the race detector too, where sync.Pool
// drops some of what is put back.
func TestSysVOpPathAllocations(t *testing.T) {
	SetMigrationEnabled(false)
	defer SetMigrationEnabled(true)
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())
	payload := []byte("0123456789abcdef")
	up := []api.SemBuf{{Num: 0, Op: 1}}
	down := []api.SemBuf{{Num: 0, Op: -1}}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}

	qid, err := lh.Msgget(0x6200, api.IPCCreat)
	must(err)
	sid, err := lh.Semget(0x6201, 1, api.IPCCreat)
	must(err)
	rqid, err := lh.Msgget(0x6202, api.IPCCreat)
	must(err)
	driveQAttach(t, mh, rqid)
	for i := 0; i < ringAttachThreshold; i++ {
		_, _, err := lh.Msgrcv(rqid, 0, 0)
		must(err)
	}

	for _, c := range []struct {
		name    string
		ceiling float64
		unit    func()
	}{
		{"owner-local msgsnd+msgrcv", 4, func() {
			must(lh.Msgsnd(qid, 1, payload, 0))
			_, _, err := lh.Msgrcv(qid, 0, 0)
			must(err)
		}},
		{"owner-local semop up+down", 4, func() {
			must(lh.Semop(sid, up))
			must(lh.Semop(sid, down))
		}},
		{"ring msgsnd+owner msgrcv", 4, func() {
			must(mh.Msgsnd(rqid, 1, payload, 0))
			_, _, err := lh.Msgrcv(rqid, 0, 0)
			must(err)
		}},
	} {
		if got := testing.AllocsPerRun(200, c.unit); got > c.ceiling {
			t.Errorf("%s: %v allocs per unit, want at most %v", c.name, got, c.ceiling)
		}
	}
}
