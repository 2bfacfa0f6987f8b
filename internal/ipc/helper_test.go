package ipc

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/monitor"
	"graphene/internal/pal"
)

// fakeService records upcalls for assertions.
type fakeService struct {
	mu      sync.Mutex
	signals []struct {
		pid int64
		sig api.Signal
	}
	meta map[string]string
}

func newFakeService() *fakeService {
	return &fakeService{meta: map[string]string{"comm": "test"}}
}

func (s *fakeService) DeliverSignal(pid int64, sig api.Signal) api.Errno {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.signals = append(s.signals, struct {
		pid int64
		sig api.Signal
	}{pid, sig})
	return 0
}

func (s *fakeService) ProcMeta(pid int64, field string) (string, api.Errno) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.meta[field]
	if !ok {
		return "", api.ENOENT
	}
	return v, 0
}

func (s *fakeService) signalCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.signals)
}

// testGroup is a sandbox of picoprocesses with helpers.
type testGroup struct {
	k       *host.Kernel
	m       *monitor.Monitor
	t       testing.TB
	mf      *monitor.Manifest
	idx     int
	helpers []*Helper
}

func newTestGroup(t testing.TB) *testGroup {
	k := host.NewKernel()
	m := monitor.New(k)
	mf, err := monitor.ParseManifest("ipc-test", "mount / /\nallow_read /\nallow_write /\n")
	if err != nil {
		t.Fatal(err)
	}
	g := &testGroup{k: k, m: m, t: t, mf: mf}
	// The group dies with the test. A helper left running keeps serving,
	// and its allocations and failover counters leak into later tests'
	// measurements.
	t.Cleanup(g.stop)
	// Any failure — invariant violations included — dumps every involved
	// picoprocess's flight recorder into the test log (registered last, so
	// it runs before the group is stopped).
	host.DumpTracesOnFailure(t, k)
	return g
}

// stop ends the group. Each helper is stopped first, without the exit
// protocol, so the processes' deaths start no election or reap either.
func (g *testGroup) stop() {
	for _, h := range g.helpers {
		h.mu.Lock()
		if !h.shutdown {
			h.shutdown = true
			close(h.shutdownCh)
		}
		h.mu.Unlock()
	}
	for _, p := range g.k.Processes() {
		p.Exit(0)
	}
}

// leader creates the first picoprocess + leader helper with guest PID 1.
func (g *testGroup) leader(svc Service) (*Helper, *pal.PAL) {
	proc, _, err := g.m.Launch(g.mf)
	if err != nil {
		g.t.Fatal(err)
	}
	p := pal.New(g.k, proc, g.m)
	h, err := NewLeader(p, svc, 1)
	if err != nil {
		g.t.Fatal(err)
	}
	g.helpers = append(g.helpers, h)
	return h, p
}

// forkPAL forks a bare child picoprocess from parent and returns its PAL
// (the child thread parks for the test's duration).
func (g *testGroup) forkPAL(parent *pal.PAL) *pal.PAL {
	done := make(chan struct{})
	var childPAL *pal.PAL
	_, _, err := parent.DkProcessCreate(func(c *pal.PAL, initial *host.Stream) {
		childPAL = c
		close(done)
		select {}
	}, false)
	if err != nil {
		g.t.Fatal(err)
	}
	<-done
	return childPAL
}

// member forks a child picoprocess from parent and joins the group.
func (g *testGroup) member(parent *pal.PAL, leaderAddr string, guestPID int64, svc Service) (*Helper, *pal.PAL) {
	done := make(chan struct{})
	var childPAL *pal.PAL
	_, initial, err := parent.DkProcessCreate(func(c *pal.PAL, initial *host.Stream) {
		childPAL = c
		close(done)
		// Keep the picoprocess thread alive for the test duration.
		select {}
	}, false)
	if err != nil {
		g.t.Fatal(err)
	}
	<-done
	initial.Close() // nothing travels on the creation stream in these tests
	h, err := NewMember(childPAL, svc, guestPID, leaderAddr)
	if err != nil {
		g.t.Fatal(err)
	}
	g.helpers = append(g.helpers, h)
	return h, childPAL
}

func TestPingPong(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())
	if err := mh.Ping(lh.Addr); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := lh.Ping(mh.Addr); err != nil {
		t.Fatalf("reverse ping: %v", err)
	}
}

func TestBatchedPIDAllocation(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())

	// The member's first allocation fetches one batch from the leader;
	// subsequent allocations must come from the local batch (no RPC).
	first, err := mh.AllocPID("ipc.x")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < int(PIDBatchSize); i++ {
		pid, err := mh.AllocPID("ipc.x")
		if err != nil {
			t.Fatal(err)
		}
		if pid != first+int64(i) {
			t.Fatalf("pid %d not contiguous with batch start %d", pid, first)
		}
	}
	// Batch exhausted: the next allocation fetches a fresh batch.
	next, err := mh.AllocPID("ipc.x")
	if err != nil {
		t.Fatal(err)
	}
	if next == first+PIDBatchSize-1 {
		t.Fatal("expected a new batch")
	}
	// Leader's own allocations never collide with the member's.
	lpid, err := lh.AllocPID("ipc.y")
	if err != nil {
		t.Fatal(err)
	}
	if lpid >= first && lpid < first+PIDBatchSize {
		t.Fatalf("leader pid %d collides with member batch [%d,%d)", lpid, first, first+PIDBatchSize)
	}
}

func TestSignalDeliveryLocalAndRemote(t *testing.T) {
	g := newTestGroup(t)
	lsvc := newFakeService()
	msvc := newFakeService()
	lh, lp := g.leader(lsvc)
	mh, _ := g.member(lp, lh.Addr, 0, msvc)

	// Allocate the member's guest PID at the leader, as fork would.
	pid, err := lh.AllocPID(mh.Addr)
	if err != nil {
		t.Fatal(err)
	}
	mh.RegisterPID(pid, mh.Addr)
	mh.GuestPID = pid

	// Local signal: leader signals itself — serviced from local state.
	if err := lh.SendSignal(1, api.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	if lsvc.signalCount() != 1 {
		t.Fatalf("local signal not delivered: %d", lsvc.signalCount())
	}

	// Remote signal: member -> leader (resolves PID 1 via the leader).
	if err := mh.SendSignal(1, api.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if lsvc.signalCount() != 2 {
		t.Fatalf("remote signal not delivered: %d", lsvc.signalCount())
	}

	// Remote signal the other way: leader knows pid (it allocated it).
	if err := lh.SendSignal(pid, api.SIGUSR2); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(time.Second)
	for msvc.signalCount() == 0 {
		select {
		case <-deadline:
			t.Fatal("signal to member never arrived")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestSignalToUnknownPID(t *testing.T) {
	g := newTestGroup(t)
	lh, _ := g.leader(newFakeService())
	if err := lh.SendSignal(9999, api.SIGKILL); err != api.ESRCH {
		t.Fatalf("err = %v, want ESRCH", err)
	}
}

func TestPIDResolutionCached(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 0, newFakeService())
	pid, _ := lh.AllocPID(mh.Addr)
	mh.RegisterPID(pid, mh.Addr)

	// Third member resolves pid through leader -> range owner -> final.
	m2, _ := g.member(lp, lh.Addr, 0, newFakeService())
	addr, err := m2.ResolvePID(pid)
	if err != nil || addr != mh.Addr {
		t.Fatalf("resolve: %q, %v; want %q", addr, err, mh.Addr)
	}
	// Second resolution hits the cache (no way to observe directly, but it
	// must return the same answer instantly even if the leader were gone).
	addr2, err := m2.ResolvePID(pid)
	if err != nil || addr2 != addr {
		t.Fatalf("cached resolve: %q, %v", addr2, err)
	}
}

func TestProcMetaRemote(t *testing.T) {
	g := newTestGroup(t)
	lsvc := newFakeService()
	lsvc.meta["comm"] = "leaderproc"
	lh, lp := g.leader(lsvc)
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())

	v, err := mh.ProcMeta(1, "comm")
	if err != nil || v != "leaderproc" {
		t.Fatalf("ProcMeta: %q, %v", v, err)
	}
	if _, err := mh.ProcMeta(1, "nope"); err != api.ENOENT {
		t.Fatalf("missing field err = %v", err)
	}
}

func TestLeaderDiscoveryOverBroadcast(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	// Member starts without knowing the leader.
	mh, _ := g.member(lp, "", 2, newFakeService())
	addr, err := mh.DiscoverLeader()
	if err != nil || addr != lh.Addr {
		t.Fatalf("DiscoverLeader: %q, %v; want %q", addr, err, lh.Addr)
	}
}

// --- System V message queues ---

func TestMsgQueueLocalSendRecv(t *testing.T) {
	g := newTestGroup(t)
	lh, _ := g.leader(newFakeService())
	id, err := lh.Msgget(100, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	if err := lh.Msgsnd(id, 1, []byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	mt, data, err := lh.Msgrcv(id, 0, 0)
	if err != nil || mt != 1 || string(data) != "hello" {
		t.Fatalf("recv: %d, %q, %v", mt, data, err)
	}
}

func TestMsgQueueTypeSelection(t *testing.T) {
	g := newTestGroup(t)
	lh, _ := g.leader(newFakeService())
	id, _ := lh.Msgget(api.IPCPrivate, api.IPCCreat)
	for i := int64(1); i <= 3; i++ {
		if err := lh.Msgsnd(id, i, []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Exact type.
	mt, _, err := lh.Msgrcv(id, 2, 0)
	if err != nil || mt != 2 {
		t.Fatalf("exact: %d, %v", mt, err)
	}
	// Negative: lowest type <= 3.
	mt, _, err = lh.Msgrcv(id, -3, 0)
	if err != nil || mt != 1 {
		t.Fatalf("negative: %d, %v", mt, err)
	}
	// NoWait on empty-for-type.
	if _, _, err := lh.Msgrcv(id, 9, api.IPCNoWait); err != api.ENOMSG {
		t.Fatalf("nowait err = %v", err)
	}
}

func TestMsgQueueBlockingRecv(t *testing.T) {
	g := newTestGroup(t)
	lh, _ := g.leader(newFakeService())
	id, _ := lh.Msgget(api.IPCPrivate, api.IPCCreat)
	got := make(chan string, 1)
	go func() {
		_, data, err := lh.Msgrcv(id, 0, 0)
		if err != nil {
			got <- "err:" + err.Error()
			return
		}
		got <- string(data)
	}()
	time.Sleep(5 * time.Millisecond)
	if err := lh.Msgsnd(id, 1, []byte("woke"), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != "woke" {
			t.Fatalf("blocked recv got %q", v)
		}
	case <-time.After(time.Second):
		t.Fatal("blocking recv never woke")
	}
}

func TestMsgQueueInterProcess(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())

	id, err := lh.Msgget(200, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	// Member resolves the same key to the same queue.
	id2, err := mh.Msgget(200, 0)
	if err != nil || id2 != id {
		t.Fatalf("member msgget: %d, %v; want %d", id2, err, id)
	}
	// Remote async send from member to leader-owned queue.
	if err := mh.Msgsnd(id, 7, []byte("remote"), 0); err != nil {
		t.Fatal(err)
	}
	mt, data, err := lh.Msgrcv(id, 0, 0)
	if err != nil || mt != 7 || string(data) != "remote" {
		t.Fatalf("owner recv: %d, %q, %v", mt, data, err)
	}
	// Remote blocking recv: member parks at owner until a send.
	got := make(chan string, 1)
	go func() {
		_, d, err := mh.Msgrcv(id, 0, 0)
		if err != nil {
			got <- "err:" + err.Error()
			return
		}
		got <- string(d)
	}()
	time.Sleep(5 * time.Millisecond)
	if err := lh.Msgsnd(id, 1, []byte("deferred"), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != "deferred" {
			t.Fatalf("remote blocked recv got %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("remote blocking recv never completed")
	}
}

func TestMsgGetExclFails(t *testing.T) {
	g := newTestGroup(t)
	lh, _ := g.leader(newFakeService())
	if _, err := lh.Msgget(300, api.IPCCreat|api.IPCExcl); err != nil {
		t.Fatal(err)
	}
	if _, err := lh.Msgget(300, api.IPCCreat|api.IPCExcl); err != api.EEXIST {
		t.Fatalf("err = %v, want EEXIST", err)
	}
	if _, err := lh.Msgget(301, 0); err != api.ENOENT {
		t.Fatalf("lookup of missing key err = %v, want ENOENT", err)
	}
}

func TestMsgQueueConsumerMigration(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())

	id, _ := lh.Msgget(400, api.IPCCreat)
	// Producer (leader) sends, consumer (member) receives repeatedly: the
	// queue must migrate to the consumer after the threshold.
	for i := 0; i < migrateThreshold+2; i++ {
		if err := lh.Msgsnd(id, 1, []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := mh.Msgrcv(id, 0, 0); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	// Give the async migration a moment, then verify the member owns it.
	deadline := time.After(2 * time.Second)
	for {
		mh.mu.Lock()
		_, owned := mh.queues[id]
		mh.mu.Unlock()
		if owned {
			break
		}
		select {
		case <-deadline:
			t.Fatal("queue never migrated to the consumer")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// Post-migration: sends from the old owner still arrive.
	if err := lh.Msgsnd(id, 1, []byte("after"), 0); err != nil {
		t.Fatal(err)
	}
	_, data, err := mh.Msgrcv(id, 0, 0)
	if err != nil || string(data) != "after" {
		t.Fatalf("post-migration recv: %q, %v", data, err)
	}
}

func TestMsgQueueDeletionNotification(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())
	id, _ := lh.Msgget(500, api.IPCCreat)
	if err := mh.Msgsnd(id, 1, []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	// Owner deletes; member's subsequent ops must fail.
	if err := lh.MsgRmid(id); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // allow notification + leader removal
	if _, _, err := mh.Msgrcv(id, 0, api.IPCNoWait); err != api.EIDRM {
		t.Fatalf("recv after rmid err = %v, want EIDRM", err)
	}
}

func TestMsgQueuePersistence(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())

	id, _ := mh.Msgget(600, api.IPCCreat)
	if err := mh.Msgsnd(id, 5, []byte("survives"), 0); err != nil {
		t.Fatal(err)
	}
	// Owner exits: queue contents are serialized to the host FS.
	mh.Shutdown()
	// The leader (a non-concurrent accessor) receives after adoption.
	mt, data, err := lh.Msgrcv(id, 0, api.IPCNoWait)
	if err != nil || mt != 5 || string(data) != "survives" {
		t.Fatalf("post-crash recv: %d, %q, %v", mt, data, err)
	}
	// The persisted file is consumed on adoption.
	if _, _, err := lh.Msgrcv(id, 0, api.IPCNoWait); err != api.ENOMSG {
		t.Fatalf("second recv err = %v, want ENOMSG", err)
	}
}

// --- System V semaphores ---

func TestSemaphoreLocalOps(t *testing.T) {
	g := newTestGroup(t)
	lh, _ := g.leader(newFakeService())
	id, err := lh.Semget(700, 2, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	// Release then acquire.
	if err := lh.Semop(id, []api.SemBuf{{Num: 0, Op: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := lh.Semop(id, []api.SemBuf{{Num: 0, Op: -1}}); err != nil {
		t.Fatal(err)
	}
	// NoWait acquire beyond value fails with EAGAIN.
	if err := lh.Semop(id, []api.SemBuf{{Num: 0, Op: -2, Flg: int16(api.IPCNoWait)}}); err != api.EAGAIN {
		t.Fatalf("err = %v, want EAGAIN", err)
	}
	// Bad semaphore index.
	if err := lh.Semop(id, []api.SemBuf{{Num: 9, Op: 1}}); err != api.EINVAL {
		t.Fatalf("err = %v, want EINVAL", err)
	}
}

func TestSemaphoreBlockingAcquire(t *testing.T) {
	g := newTestGroup(t)
	lh, _ := g.leader(newFakeService())
	id, _ := lh.Semget(api.IPCPrivate, 1, api.IPCCreat)
	done := make(chan error, 1)
	go func() {
		done <- lh.Semop(id, []api.SemBuf{{Num: 0, Op: -1}})
	}()
	select {
	case err := <-done:
		t.Fatalf("acquire on zero semaphore returned: %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	if err := lh.Semop(id, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked acquire: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked acquire never woke")
	}
}

func TestSemaphoreRemoteOps(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())

	id, _ := lh.Semget(800, 1, api.IPCCreat)
	id2, err := mh.Semget(800, 1, 0)
	if err != nil || id2 != id {
		t.Fatalf("member semget: %d, %v", id2, err)
	}
	// Remote release then remote acquire.
	if err := mh.Semop(id, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := mh.Semop(id, []api.SemBuf{{Num: 0, Op: -1}}); err != nil {
		t.Fatal(err)
	}
	// Remote blocking acquire deferred until local release.
	done := make(chan error, 1)
	go func() { done <- mh.Semop(id, []api.SemBuf{{Num: 0, Op: -1}}) }()
	time.Sleep(5 * time.Millisecond)
	if err := lh.Semop(id, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("remote blocked acquire: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("remote blocked acquire never completed")
	}
}

func TestSemaphoreMigratesToFrequentAcquirer(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())
	id, _ := lh.Semget(900, 1, api.IPCCreat)
	// Prime with permits so acquires never block.
	if err := lh.Semop(id, []api.SemBuf{{Num: 0, Op: 100}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < migrateThreshold+3; i++ {
		if err := mh.Semop(id, []api.SemBuf{{Num: 0, Op: -1}}); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	deadline := time.After(2 * time.Second)
	for {
		mh.mu.Lock()
		_, owned := mh.sems[id]
		mh.mu.Unlock()
		if owned {
			break
		}
		select {
		case <-deadline:
			t.Fatal("semaphore never migrated to the frequent acquirer")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// The old owner can still operate on it (now remotely).
	if err := lh.Semop(id, []api.SemBuf{{Num: 0, Op: -1}}); err != nil {
		t.Fatalf("old owner post-migration: %v", err)
	}
}

func TestSemMigrationNotStarvedByParkedWaiter(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	mh, _ := g.member(lp, lh.Addr, 2, newFakeService())
	id, _ := lh.Semget(902, 1, api.IPCCreat)
	// Park a blocking acquire at the owner; nothing ever satisfies it
	// there, so before the quiesce fix the waiter blocked migration
	// forever (the gate bailed while len(s.waiters) > 0).
	done := make(chan error, 1)
	go func() { done <- mh.Semop(id, []api.SemBuf{{Num: 0, Op: -1}}) }()
	deadline := time.After(2 * time.Second)
	for {
		lh.mu.Lock()
		s := lh.sems[id]
		lh.mu.Unlock()
		parked := false
		if s != nil {
			s.mu.Lock()
			parked = len(s.waiters) > 0
			s.mu.Unlock()
		}
		if parked {
			break
		}
		select {
		case <-deadline:
			t.Fatal("remote acquire never parked at the owner")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// Force the migration the heuristic would eventually request.
	lh.migrate(NSSysVSem, id, mh.Addr)
	mh.mu.Lock()
	_, owned := mh.sems[id]
	mh.mu.Unlock()
	if !owned {
		t.Fatal("migration did not complete with a parked waiter")
	}
	// The bounced waiter re-issued against the new owner; a permit
	// released there must complete it.
	if err := lh.Semop(id, []api.SemBuf{{Num: 0, Op: 1}}); err != nil {
		t.Fatalf("release after migration: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("bounced waiter completed with error: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("bounced waiter never completed against the new owner")
	}
}

func TestSemRmid(t *testing.T) {
	g := newTestGroup(t)
	lh, _ := g.leader(newFakeService())
	id, _ := lh.Semget(api.IPCPrivate, 1, api.IPCCreat)
	if err := lh.SemRmid(id); err != nil {
		t.Fatal(err)
	}
	if err := lh.Semop(id, []api.SemBuf{{Num: 0, Op: 1}}); err != api.EIDRM {
		t.Fatalf("op after rmid err = %v, want EIDRM", err)
	}
}

// TestSemRmidDuringOwnerExit pins the SemRmid retry loop: removing a set
// whose owner exits concurrently must never surface the transport error
// to the guest (the stress suite caught a raw EPIPE here once migration
// stopped being starved by parked waiters). Eviction-on-exit moves the
// set to the leader, so the re-resolve either deletes it there or finds
// the owner fully gone and removes the mapping — both succeed.
func TestSemRmidDuringOwnerExit(t *testing.T) {
	for i := 0; i < 6; i++ {
		g := newTestGroup(t)
		lh, lp := g.leader(newFakeService())
		mh, mhp := g.member(lp, lh.Addr, 2, newFakeService())
		id, err := lh.Semget(api.IPCPrivate, 1, api.IPCCreat)
		if err != nil {
			t.Fatal(err)
		}
		if err := lh.Semop(id, []api.SemBuf{{Num: 0, Op: 100}}); err != nil {
			t.Fatal(err)
		}
		// Migrate ownership to the member, then race its clean exit
		// against the leader's rmid.
		for j := 0; j < migrateThreshold+3; j++ {
			if err := mh.Semop(id, []api.SemBuf{{Num: 0, Op: -1}}); err != nil {
				t.Fatalf("acquire %d: %v", j, err)
			}
		}
		waitFor(t, 2*time.Second, "semaphore migration to member", func() bool {
			mh.mu.Lock()
			_, owned := mh.sems[id]
			mh.mu.Unlock()
			return owned
		})
		exited := make(chan struct{})
		go func() {
			mh.Shutdown()
			mhp.Proc().Exit(0)
			close(exited)
		}()
		if err := lh.SemRmid(id); err != nil {
			t.Fatalf("iteration %d: SemRmid racing owner exit: %v", i, err)
		}
		<-exited
	}
}

func TestConcurrentPidAllocationsUnique(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	const workers = 4
	const perWorker = 60 // forces batch refills
	helpers := make([]*Helper, workers)
	helpers[0] = lh
	for i := 1; i < workers; i++ {
		helpers[i], _ = g.member(lp, lh.Addr, int64(100+i), newFakeService())
	}
	var mu sync.Mutex
	seen := make(map[int64]string)
	var wg sync.WaitGroup
	for i, h := range helpers {
		wg.Add(1)
		go func(i int, h *Helper) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				pid, err := h.AllocPID("ipc.test")
				if err != nil {
					t.Errorf("worker %d: %v", i, err)
					return
				}
				mu.Lock()
				if prev, dup := seen[pid]; dup {
					t.Errorf("pid %d allocated twice (%s and worker %d)", pid, prev, i)
				}
				seen[pid] = fmt.Sprintf("worker %d", i)
				mu.Unlock()
			}
		}(i, h)
	}
	wg.Wait()
}

// TestJoinRacesLeaderHeartbeat joins 200 members while copies of the
// leader's MsgNewLeader announcement flood the broadcast channel. A
// constructor that seeds leaderAddr / localPIDs after the helper's receive
// loops are running races handleNewLeaderBroadcast on them; under -race
// this test is the detector. Every member then leaves,
// and the leader must end up listing none of them.
func TestJoinRacesLeaderHeartbeat(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	before := g.k.Census()

	stop := make(chan struct{})
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		lh.mu.Lock()
		hb := Frame{Type: MsgNewLeader, A: lh.leaderEpoch, From: lh.Addr, S: lh.Addr}
		lh.mu.Unlock()
		msg := EncodeFrame(&hb)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if lp.BroadcastSend(msg) != nil {
				return
			}
			runtime.Gosched()
		}
	}()
	for i := 0; i < 200; i++ {
		mh, mp := g.member(lp, lh.Addr, int64(100+i), newFakeService())
		if got := mh.LeaderAddr(); got != lh.Addr {
			t.Fatalf("member %d: leader address %q, want %q", i, got, lh.Addr)
		}
		mh.Shutdown()
		mp.DkProcessExit(0)
	}
	close(stop)
	<-flooded

	// Each member dialled the leader (PID claim, goodbye) and hung up: the
	// leader's accepted set and the kernel's tables are back where they
	// started, but for the recorders the kernel keeps of the last 64 exits.
	waitFor(t, 5*time.Second, "the leader to drop every departed member's conn", func() bool {
		after := g.k.Census()
		after.RetiredRecorders, after.RecorderBytes = before.RetiredRecorders, before.RecorderBytes
		return lh.AcceptedConns() == 0 && after == before
	})
}
