package ipc

import (
	"testing"
	"time"

	"graphene/internal/api"
)

// lifecycleKind drives one System V object kind through the steps its
// lifecycle shares with the other kind (DESIGN.md "SysV object
// lifecycle"). Content is counted in units: a queue unit is one message, a
// semaphore unit one permit on semaphore 0.
type lifecycleKind struct {
	name string
	// create makes the object under key at h, so h owns it.
	create func(h *Helper, key int64) (int64, error)
	lookup func(h *Helper, key int64) (int64, error)
	put    func(h *Helper, id int64) error
	// take removes one unit without blocking; a receive or an acquire,
	// which is also the remote op that votes for migration.
	take func(h *Helper, id int64) error
	rmid func(h *Helper, id int64) error
	// held reports whether h holds a live copy; setMigrating flips the
	// copy's mid-handoff flag.
	held         func(h *Helper, id int64) bool
	setMigrating func(h *Helper, id int64, on bool)
	migrate      func(h *Helper, id int64, to string)
	// incoming is a migration frame carrying n units of the object.
	incoming func(id, key int64, n int) Frame
	// checkMerge pins the merge of an incoming copy into h's live copy.
	checkMerge func(t *testing.T, h *Helper)
}

var lifecycleKinds = []lifecycleKind{
	{
		name:   "queue",
		create: func(h *Helper, key int64) (int64, error) { return h.Msgget(key, api.IPCCreat) },
		lookup: func(h *Helper, key int64) (int64, error) { return h.Msgget(key, 0) },
		put:    func(h *Helper, id int64) error { return h.Msgsnd(id, 1, []byte("u"), 0) },
		take: func(h *Helper, id int64) error {
			_, _, err := h.Msgrcv(id, 0, api.IPCNoWait)
			return err
		},
		rmid: func(h *Helper, id int64) error { return h.MsgRmid(id) },
		held: func(h *Helper, id int64) bool {
			h.mu.Lock()
			q := h.queues[id]
			h.mu.Unlock()
			if q == nil {
				return false
			}
			q.mu.Lock()
			defer q.mu.Unlock()
			return !q.removed && q.movedTo == ""
		},
		setMigrating: func(h *Helper, id int64, on bool) {
			h.mu.Lock()
			q := h.queues[id]
			h.mu.Unlock()
			q.mu.Lock()
			q.migrating = on
			q.mu.Unlock()
		},
		migrate: func(h *Helper, id int64, to string) { h.migrate(NSSysVMsg, id, to) },
		incoming: func(id, key int64, n int) Frame {
			msgs := make([]msgMessage, n)
			for i := range msgs {
				msgs[i] = msgMessage{Type: 1, Data: []byte("u")}
			}
			return Frame{Type: MsgQMigrate, A: id, Blob: encodeMessages(key, msgs), D: 2}
		},
		checkMerge: func(t *testing.T, h *Helper) {
			id, err := h.Msgget(0x11fe, api.IPCCreat)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Msgsnd(id, 1, []byte("a"), 0); err != nil {
				t.Fatal(err)
			}
			woken := make(chan string, 1)
			go func() {
				_, data, err := h.Msgrcv(id, 7, 0)
				if err != nil {
					woken <- err.Error()
					return
				}
				woken <- string(data)
			}()
			waitFor(t, 2*time.Second, "parked receiver", func() bool {
				h.mu.Lock()
				q := h.queues[id]
				h.mu.Unlock()
				q.mu.Lock()
				defer q.mu.Unlock()
				return len(q.waiters) > 0
			})
			in := []msgMessage{{Type: 1, Data: []byte("b")}, {Type: 7, Data: []byte("w")}, {Type: 1, Data: []byte("c")}}
			if err := dispatchErr(h, Frame{Type: MsgQMigrate, A: id, Blob: encodeMessages(0x11fe, in), D: 2}); err != 0 {
				t.Fatalf("merge into live copy: %v", err)
			}
			select {
			case got := <-woken:
				if got != "w" {
					t.Fatalf("parked receiver got %q, want %q", got, "w")
				}
			case <-time.After(2 * time.Second):
				t.Fatal("parked receiver not woken by the merge")
			}
			for _, want := range []string{"a", "b", "c"} {
				_, data, err := h.Msgrcv(id, 0, api.IPCNoWait)
				if err != nil || string(data) != want {
					t.Fatalf("merged order: got %q, %v; want %q", data, err, want)
				}
			}
			if _, _, err := h.Msgrcv(id, 0, api.IPCNoWait); err != api.ENOMSG {
				t.Fatalf("after the merged messages err = %v, want ENOMSG", err)
			}
		},
	},
	{
		name:   "semaphore set",
		create: func(h *Helper, key int64) (int64, error) { return h.Semget(key, 1, api.IPCCreat) },
		lookup: func(h *Helper, key int64) (int64, error) { return h.Semget(key, 1, 0) },
		put:    func(h *Helper, id int64) error { return h.Semop(id, []api.SemBuf{{Num: 0, Op: 1}}) },
		take: func(h *Helper, id int64) error {
			return h.Semop(id, []api.SemBuf{{Num: 0, Op: -1, Flg: int16(api.IPCNoWait)}})
		},
		rmid: func(h *Helper, id int64) error { return h.SemRmid(id) },
		held: func(h *Helper, id int64) bool {
			h.mu.Lock()
			s := h.sems[id]
			h.mu.Unlock()
			if s == nil {
				return false
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			return !s.removed && s.movedTo == ""
		},
		setMigrating: func(h *Helper, id int64, on bool) {
			h.mu.Lock()
			s := h.sems[id]
			h.mu.Unlock()
			s.mu.Lock()
			s.migrating = on
			s.mu.Unlock()
		},
		migrate: func(h *Helper, id int64, to string) { h.migrate(NSSysVSem, id, to) },
		incoming: func(id, key int64, n int) Frame {
			return Frame{Type: MsgSemMigrate, A: id, Blob: encodeSemState(key, []int{n}), D: 2}
		},
		checkMerge: func(t *testing.T, h *Helper) {
			id, err := h.Semget(0x11fe, 2, api.IPCCreat)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Semop(id, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
				t.Fatal(err)
			}
			woken := make(chan error, 1)
			go func() { woken <- h.Semop(id, []api.SemBuf{{Num: 1, Op: -1}}) }()
			waitFor(t, 2*time.Second, "parked acquirer", func() bool {
				h.mu.Lock()
				s := h.sems[id]
				h.mu.Unlock()
				s.mu.Lock()
				defer s.mu.Unlock()
				return len(s.waiters) > 0
			})
			if err := dispatchErr(h, Frame{Type: MsgSemMigrate, A: id, Blob: encodeSemState(0x11fe, []int{2, 3}), D: 2}); err != 0 {
				t.Fatalf("merge into live copy: %v", err)
			}
			select {
			case err := <-woken:
				if err != nil {
					t.Fatalf("parked acquirer: %v", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("parked acquirer not woken by the merge")
			}
			// Values add: sem 0 holds 1+2, sem 1 holds 0+3 less the woken acquire.
			for _, c := range []struct {
				num int
				n   int16
			}{{0, 3}, {1, 2}} {
				if err := h.Semop(id, []api.SemBuf{{Num: c.num, Op: -c.n, Flg: int16(api.IPCNoWait)}}); err != nil {
					t.Fatalf("sem %d: acquire %d after merge: %v", c.num, c.n, err)
				}
				if err := h.Semop(id, []api.SemBuf{{Num: c.num, Op: -1, Flg: int16(api.IPCNoWait)}}); err != api.EAGAIN {
					t.Fatalf("sem %d: acquire past the merged value err = %v, want EAGAIN", c.num, err)
				}
			}
		},
	},
}

// dispatchErr delivers f to h's dispatcher and returns the response errno.
func dispatchErr(h *Helper, f Frame) api.Errno {
	resp := make(chan Frame, 1)
	h.dispatch(f, func(r Frame) { resp <- r })
	select {
	case r := <-resp:
		return r.Err
	case <-time.After(2 * time.Second):
		return api.ETIMEDOUT
	}
}

// voteFor makes voter out-use the current owner of id until voter holds
// it. A take on an empty object fails (ENOMSG / EAGAIN) but still votes.
func voteFor(t *testing.T, k lifecycleKind, voter *Helper, id int64) {
	t.Helper()
	waitFor(t, 2*time.Second, k.name+" migration to the voter", func() bool {
		_ = k.take(voter, id)
		return k.held(voter, id)
	})
}

// TestSysVObjectLifecycle pins, for both object kinds, the lifecycle steps
// a per-kind copy could drift on: rmid chasing a migrated copy, the merge
// of an incoming copy into a live one, the EPERM refusals of an inbound
// handoff, and the object outliving its owner's clean exit.
func TestSysVObjectLifecycle(t *testing.T) {
	for _, k := range lifecycleKinds {
		t.Run(k.name+"/rmid chases the migrated copy", func(t *testing.T) {
			g := newTestGroup(t)
			lh, lp := g.leader(newFakeService())
			m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
			m2, _ := g.member(lp, lh.Addr, 3, newFakeService())
			id, err := k.create(lh, 0x11a0)
			if err != nil {
				t.Fatal(err)
			}
			voteFor(t, k, m1, id)
			voteFor(t, k, m2, id)
			// The leader's copy and m1's are both tombstones now; the rmid
			// must chase past them to m2 instead of stopping at either.
			if err := k.rmid(lh, id); err != nil {
				t.Fatalf("rmid from the pre-migration owner: %v", err)
			}
			if k.held(m2, id) {
				t.Fatal("the live copy survived the rmid")
			}
			for _, h := range []*Helper{lh, m1, m2} {
				if _, err := k.lookup(h, 0x11a0); err != api.ENOENT {
					t.Fatalf("key lookup after rmid err = %v, want ENOENT", err)
				}
			}
			if err := k.take(m1, id); err != api.EIDRM {
				t.Fatalf("op after rmid err = %v, want EIDRM", err)
			}
		})

		t.Run(k.name+"/incoming copy merges into the live one", func(t *testing.T) {
			g := newTestGroup(t)
			lh, _ := g.leader(newFakeService())
			k.checkMerge(t, lh)
		})

		t.Run(k.name+"/inbound handoff refused", func(t *testing.T) {
			g := newTestGroup(t)
			lh, lp := g.leader(newFakeService())
			mh, _ := g.member(lp, lh.Addr, 2, newFakeService())
			id, err := k.create(lh, 0x11b0)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.put(lh, id); err != nil {
				t.Fatal(err)
			}
			// The receiver holds its own copy (a crash-recovery duplicate),
			// mid-handoff to someone else.
			if err := dispatchErr(mh, k.incoming(id, 0x11b0, 1)); err != 0 {
				t.Fatalf("install at the receiver: %v", err)
			}
			k.setMigrating(mh, id, true)
			k.migrate(lh, id, mh.Addr)
			k.setMigrating(mh, id, false)
			if !k.held(lh, id) {
				t.Fatal("mid-handoff refusal: the sender lost its copy")
			}
			// Shutting down: the receiver refuses ownership outright.
			mh.mu.Lock()
			mh.shutdown = true
			mh.mu.Unlock()
			k.migrate(lh, id, mh.Addr)
			mh.mu.Lock()
			mh.shutdown = false
			mh.mu.Unlock()
			if !k.held(lh, id) {
				t.Fatal("shutdown refusal: the sender lost its copy")
			}
			// The sender's copy still works, its unit intact; the
			// receiver's copy absorbed nothing.
			if err := k.take(lh, id); err != nil {
				t.Fatalf("sender's copy after two refusals: %v", err)
			}
			if err := k.take(lh, id); err == nil {
				t.Fatal("sender's copy gained a unit")
			}
			if err := k.take(mh, id); err != nil {
				t.Fatalf("receiver's own copy: %v", err)
			}
			if err := k.take(mh, id); err == nil {
				t.Fatal("receiver's copy absorbed the refused handoff")
			}
		})

		t.Run(k.name+"/outlives its owner's clean exit", func(t *testing.T) {
			g := newTestGroup(t)
			lh, lp := g.leader(newFakeService())
			mh, mp := g.member(lp, lh.Addr, 2, newFakeService())
			id, err := k.create(mh, 0x11c0)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.put(mh, id); err != nil {
				t.Fatal(err)
			}
			mh.Shutdown()
			mp.Proc().Exit(0)
			if err := k.take(lh, id); err != nil {
				t.Fatalf("survivor after the owner's exit: %v", err)
			}
			if !k.held(lh, id) {
				t.Fatal("the survivor does not hold the object")
			}
			if err := k.put(lh, id); err != nil {
				t.Fatal(err)
			}
			if err := k.rmid(lh, id); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRmidTellsOnlyOtherAccessors: an rmid tells the object's other
// accessors of its end, and only them. A queue a remote sender used still
// reaches that sender as MsgQDeleted, which drops its cached owner. A
// queue only its owner used starts no background task: its rmid allocates
// only its leader removal call's one object, where the task would add its
// closure, its accessor list and its goroutine.
func TestRmidTellsOnlyOtherAccessors(t *testing.T) {
	SetMigrationEnabled(false)
	defer SetMigrationEnabled(true)
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	oh, _ := g.member(lp, lh.Addr, 2, newFakeService())
	ph, _ := g.member(lp, lh.Addr, 3, newFakeService())
	cachedOwner := func(h *Helper, id int64) bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		_, ok := h.ownerCache[NSSysVMsg][id]
		return ok
	}

	used, err := oh.Msgget(0x7d00, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	if err := ph.Msgsnd(used, 1, []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if !cachedOwner(ph, used) {
		t.Fatal("the sender does not cache the queue's owner")
	}
	if err := oh.MsgRmid(used); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "MsgQDeleted at the remote accessor", func() bool { return !cachedOwner(ph, used) })

	const runs = 100
	quiet := make([]int64, runs+1)
	for i := range quiet {
		if quiet[i], err = oh.Msgget(0x7e000+int64(i), api.IPCCreat|api.IPCExcl); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := oh.MsgRmid(quiet[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if !raceDetector && allocs > 1 {
		t.Fatalf("rmid of an owner-only queue: %v allocs, want at most 1: it starts a fan-out task", allocs)
	}
}
