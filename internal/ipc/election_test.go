package ipc

import (
	"maps"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"graphene/internal/api"
)

// crashLeader simulates leader failure: shut its helper down and kill its
// picoprocess so members' RPCs fail.
func crashLeader(h *Helper) {
	h.Shutdown()
	h.pal.Proc().Exit(137)
}

func TestLeaderElectionAfterCrash(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 0, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 0, newFakeService())

	// Give the members real guest PIDs (as fork would).
	pid1, err := lh.AllocPID(m1.Addr)
	if err != nil {
		t.Fatal(err)
	}
	pid2, err := lh.AllocPID(m2.Addr)
	if err != nil {
		t.Fatal(err)
	}
	m1.GuestPID = pid1
	m1.RegisterPID(pid1, m1.Addr)
	m2.GuestPID = pid2
	m2.RegisterPID(pid2, m2.Addr)

	crashLeader(lh)

	// m1 alone detects the failure and elects: its claim is the only one,
	// so it leads.
	newLeader, err := m1.ElectLeader()
	if err != nil {
		t.Fatalf("ElectLeader: %v", err)
	}
	if newLeader != m1.Addr {
		t.Fatalf("winner = %q, want the detector %q", newLeader, m1.Addr)
	}
	if !m1.isLeader() {
		t.Fatal("winner did not promote itself")
	}
	// m2 learns the new leader via the broadcast announcement.
	deadline := time.After(2 * time.Second)
	for {
		if m2.LeaderAddr() == m1.Addr {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("m2 leader = %q, want %q", m2.LeaderAddr(), m1.Addr)
		case <-time.After(time.Millisecond):
		}
	}
}

func TestElectionRecoversNamespaceState(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 0, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 0, newFakeService())
	pid1, _ := lh.AllocPID(m1.Addr)
	pid2, _ := lh.AllocPID(m2.Addr)
	m1.GuestPID, m2.GuestPID = pid1, pid2
	m1.RegisterPID(pid1, m1.Addr)
	m2.RegisterPID(pid2, m2.Addr)

	// m2 owns a message queue created pre-crash.
	qid, err := m2.Msgget(42, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Msgsnd(qid, 1, []byte("pre-crash"), 0); err != nil {
		t.Fatal(err)
	}

	crashLeader(lh)
	if _, err := m1.ElectLeader(); err != nil {
		t.Fatal(err)
	}
	// Allow m2's MsgRecoverState to land at the new leader.
	time.Sleep(150 * time.Millisecond)

	// The key mapping survived: m1 resolves key 42 to the same queue and
	// receives m2's pre-crash message over RPC.
	qid2, err := m1.Msgget(42, 0)
	if err != nil {
		t.Fatalf("post-recovery msgget: %v", err)
	}
	if int64(qid2) != qid {
		t.Fatalf("recovered qid = %d, want %d", qid2, qid)
	}
	mt, data, err := m1.Msgrcv(qid, 0, api.IPCNoWait)
	if err != nil || mt != 1 || string(data) != "pre-crash" {
		t.Fatalf("post-recovery recv: %d %q %v", mt, data, err)
	}

	// PID resolution works through the new leader too: m1 can reach m2.
	if err := m1.SendSignal(pid2, api.SIGUSR1); err != nil {
		t.Fatalf("post-recovery signal: %v", err)
	}

	// Fresh allocations never collide with pre-crash IDs.
	fresh, err := m1.AllocPID(m1.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if fresh <= pid2 {
		t.Fatalf("fresh pid %d collides with pre-crash ids (max %d)", fresh, pid2)
	}
}

func TestConcurrentElectionsConverge(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 0, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 0, newFakeService())
	m3, _ := g.member(lp, lh.Addr, 0, newFakeService())
	pids := make([]int64, 3)
	for i, m := range []*Helper{m1, m2, m3} {
		pid, _ := lh.AllocPID(m.Addr)
		m.GuestPID = pid
		m.RegisterPID(pid, m.Addr)
		pids[i] = pid
	}
	crashLeader(lh)

	// All three detect the failure simultaneously.
	type res struct {
		addr string
		err  error
	}
	ch := make(chan res, 3)
	for _, m := range []*Helper{m1, m2, m3} {
		m := m
		go func() {
			addr, err := m.ElectLeader()
			ch <- res{addr, err}
		}()
	}
	var winners []string
	for i := 0; i < 3; i++ {
		r := <-ch
		if r.err != nil {
			t.Fatalf("election: %v", r.err)
		}
		winners = append(winners, r.addr)
	}
	for _, w := range winners[1:] {
		if w != winners[0] {
			t.Fatalf("split brain: %v", winners)
		}
	}
	// The first claim in broadcast order leads: exactly one of the three,
	// the one every survivor follows.
	var leaders []string
	for _, m := range []*Helper{m1, m2, m3} {
		if m.isLeader() {
			leaders = append(leaders, m.Addr)
		}
	}
	if len(leaders) != 1 || leaders[0] != winners[0] {
		t.Fatalf("leading: %v, want exactly the winner %s", leaders, winners[0])
	}
}

func TestElectionPreservesProcessGroups(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	svc := newFakeService()
	m1, _ := g.member(lp, lh.Addr, 0, svc)
	pid1, _ := lh.AllocPID(m1.Addr)
	m1.GuestPID = pid1
	m1.RegisterPID(pid1, m1.Addr)
	if err := m1.JoinGroup(pid1, pid1); err != nil {
		t.Fatal(err)
	}

	crashLeader(lh)
	if _, err := m1.ElectLeader(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	// The group membership was reconstructed: signaling the group works.
	if err := m1.SignalGroup(pid1, api.SIGUSR1); err != nil {
		t.Fatalf("post-recovery group signal: %v", err)
	}
	if svc.signalCount() == 0 {
		t.Fatal("group member never signaled after recovery")
	}
}

// TestElectedLeaderClearsPIDsMintedBeforeJoin: the old leader's own PID
// and first batch were minted before any member joined, so no MsgNSHwm
// ever announced them, and the old leader cannot report once it is dead.
// A member that joined by claim must still elect a leader whose PID
// cursor stands past them — from the moment its leaderState serves.
func TestElectedLeaderClearsPIDsMintedBeforeJoin(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	minted := lh.leader.cursor(NSPid)

	lp.Proc().Exit(137) // crash: no goodbye, no report
	if addr, err := m1.ElectLeader(); err != nil || addr != m1.Addr {
		t.Fatalf("ElectLeader = (%q, %v), want %q", addr, err, m1.Addr)
	}
	if got := m1.leader.cursor(NSPid); got < minted {
		t.Fatalf("elected leader's PID cursor = %d, want >= %d: it can mint the old leader's PIDs again", got, minted)
	}
}

// TestElectedLeaderSkipsADepartingMember: a member that has begun its
// Shutdown but not yet closed its listener hangs up on every new peer, so
// the winner's request for its report fails at once instead of waiting on
// a backlog nobody drains.
func TestElectedLeaderSkipsADepartingMember(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())
	m2.mu.Lock()
	m2.shutdown = true
	close(m2.shutdownCh)
	m2.mu.Unlock()
	if err := m1.Ping(m2.Addr); err == nil {
		t.Fatal("a departing member answered a new peer")
	}
	lp.Proc().Exit(137)
	done := make(chan error, 1)
	go func() {
		_, err := m1.ElectLeader()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ElectLeader: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the winner is still waiting for a departing member's report")
	}
	if !m1.isLeader() {
		t.Fatalf("the detector did not take over (leader %q)", m1.LeaderAddr())
	}
}

// TestReportQuestionCarriesNoLeaderTraffic: the winner asks each member
// for its report on a stream that names no sender, so the member never
// takes that stream for one shared with its leader. A departing member's
// goodbye sent there would wait in the winner's ledState on the reader
// the answer needs, and the election would hang.
func TestReportQuestionCarriesNoLeaderTraffic(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())
	lp.Proc().Exit(137)
	if addr, err := m1.ElectLeader(); err != nil || addr != m1.Addr {
		t.Fatalf("ElectLeader = (%q, %v), want %q", addr, err, m1.Addr)
	}
	m2.mu.Lock()
	defer m2.mu.Unlock()
	for c := range m2.incoming {
		if c.remote() == m1.Addr {
			t.Fatal("the report question left m2 a stream that names the new leader")
		}
	}
}

// recoverTables is a leaderState's content in a form two folds can be
// compared by: the PID ranges sorted, everything else copied as is.
type recoverTables struct {
	Ranges  []idRange
	Next    map[int]int64
	Keys    map[int]map[int64]keyEntry
	Owners  map[int]map[int64]ownerEntry
	KeyOf   map[int]map[int64]int64
	Held    map[string]int
	PGroups map[int64]map[int64]string
}

func dumpRecoverTables(l *leaderState) recoverTables {
	l.mu.RLock()
	defer l.mu.RUnlock()
	d := recoverTables{
		Ranges: append([]idRange(nil), l.ranges[NSPid]...),
		Next:   maps.Clone(l.next),
		Keys:   make(map[int]map[int64]keyEntry),
		Owners: make(map[int]map[int64]ownerEntry),
		KeyOf:  make(map[int]map[int64]int64),
		Held:   maps.Clone(l.held),
	}
	sort.Slice(d.Ranges, func(i, j int) bool { return d.Ranges[i].lo < d.Ranges[j].lo })
	for _, kind := range []int{NSSysVMsg, NSSysVSem} {
		d.Keys[kind] = maps.Clone(l.keys[kind])
		d.Owners[kind] = maps.Clone(l.owners[kind])
		d.KeyOf[kind] = maps.Clone(l.keyOf[kind])
	}
	l.pgs.mu.Lock()
	d.PGroups = make(map[int64]map[int64]string)
	for pgid, m := range l.pgs.groups {
		d.PGroups[pgid] = maps.Clone(m)
	}
	l.pgs.mu.Unlock()
	return d
}

// TestReportReachesALeaderLearnedByDiscovery: a member that learns the new
// leader from a discovery answer before the winning claim reaches it — a
// guest call that had lost the leader's address — finds its state at that
// leader all the same (the winner asked for it before serving), and the
// claim, a duplicate by then, changes nothing.
func TestReportReachesALeaderLearnedByDiscovery(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())
	id, err := m2.Msgget(74752, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	lp.Proc().Exit(137)

	// m1 leads and its claim has not reached m2 yet; m2 has lost the
	// leader's address, so its guest call asks by broadcast and m1
	// answers it.
	m1.promote(1)
	m2.mu.Lock()
	m2.leaderAddr = ""
	m2.mu.Unlock()
	if addr, err := m2.DiscoverLeader(); err != nil || addr != m1.Addr {
		t.Fatalf("discovery: %q %v, want %s", addr, err, m1.Addr)
	}
	nf := Frame{Type: MsgNewLeader, A: 1, From: m1.Addr, S: m1.Addr}
	if err := m1.pal.BroadcastSend(EncodeFrame(&nf)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, failoverDeadline, "m2's queue to reach the new leader", func() bool {
		got, err := m1.Msgget(74752, 0)
		return err == nil && got == id
	})
	if v := CheckInvariants([]*Helper{m1, m2}); len(v) != 0 {
		t.Fatalf("invariants violated: %v", v)
	}
}

// TestClaimantHoldsLeaderRequestsUntilReadBack: a member that reads a
// claim before its author does sends the claimant leader requests while
// the claimant does not lead yet. The claimant holds them until it has
// read its own claim back and collected the members' reports, so a lookup
// of the member's own key is answered with its ID — not refused with
// EPERM, and not ENOENT from tables the report has not reached.
func TestClaimantHoldsLeaderRequestsUntilReadBack(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())
	id, err := m2.Msgget(75776, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	lp.Proc().Exit(137)

	// m1's claim to epoch 1 is on the stream; m2 has read it, m1 not yet.
	m1.mu.Lock()
	m1.claiming = make(chan struct{})
	m1.mu.Unlock()
	m2.mu.Lock()
	m2.setLeaderLocked(m1.Addr, 1)
	m2.mu.Unlock()
	type lookup struct {
		id  int64
		err error
	}
	got := make(chan lookup, 1)
	go func() {
		id, err := m2.Msgget(75776, 0)
		got <- lookup{id, err}
	}()
	select {
	case r := <-got:
		t.Fatalf("the lookup was answered (%d, %v) before the claim was read back", r.id, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	m1.handleNewLeaderBroadcast(Frame{Type: MsgNewLeader, A: 1, From: m1.Addr, S: m1.Addr})
	if !m1.isLeader() {
		t.Fatal("the claim read back first of its epoch did not promote m1")
	}
	if r := <-got; r.err != nil || r.id != id {
		t.Fatalf("held lookup answered (%d, %v), want %d", r.id, r.err, id)
	}
	if v := CheckInvariants([]*Helper{m1, m2}); len(v) != 0 {
		t.Fatalf("invariants violated: %v", v)
	}
}

// TestRecoverFoldIsAJoin: a new leader folds the members' recover reports
// in whatever order they arrive, so the fold must be a join — the same
// tables for any order, any duplication, and any split of the set between
// arrivals. The report set is every helper's real report after creates,
// a removal and a migration, plus two claims a fold must order without
// arrival order: an equal-epoch claim on a live object from a helper that
// does not hold it, and a key claim naming a dead, lower ID. Every seeded
// fold is installed at the leader and must leave CheckInvariants clean.
func TestRecoverFoldIsAJoin(t *testing.T) {
	g := newTestGroup(t)
	lh, lp := g.leader(newFakeService())
	m1, _ := g.member(lp, lh.Addr, 2, newFakeService())
	m2, _ := g.member(lp, lh.Addr, 3, newFakeService())
	m3, _ := g.member(lp, lh.Addr, 4, newFakeService())
	helpers := []*Helper{lh, m1, m2, m3}

	must := func(id int64, err error) int64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	dead := must(m1.Msgget(0x6100, api.IPCCreat))
	if err := m1.MsgRmid(dead); err != nil {
		t.Fatal(err)
	}
	contested := must(m1.Msgget(0x6101, api.IPCCreat))
	must(lh.Msgget(0x6102, api.IPCCreat))
	must(m2.Semget(0x6103, 2, api.IPCCreat))
	moved := must(m2.Msgget(0x6104, api.IPCCreat))
	m2.migrate(NSSysVMsg, moved, m3.Addr) // m3 holds it at epoch 2
	must(m3.Msgget(api.IPCPrivate, api.IPCCreat))
	for _, h := range []*Helper{m2, m3} {
		h.mu.Lock()
		h.ownPgid = 3
		h.mu.Unlock()
	}

	type report struct {
		r    recoverPayload
		from string
	}
	var set []report
	for _, h := range helpers {
		set = append(set, report{h.collectRecoverState(), h.Addr})
	}
	// "ipc.~" sorts after every helper address, so it loses the
	// equal-epoch tie wherever it arrives; the dead ID loses the key to
	// the live, higher one.
	set = append(set, report{recoverPayload{objects: []recoverObject{
		{Kind: NSSysVMsg, ID: contested, Key: 0x6101, Epoch: 1},
		{Kind: NSSysVMsg, ID: dead, Key: 0x6101, Epoch: 1},
	}}, "ipc.~"})

	fold := func(order []report) recoverTables {
		l := newLeaderState()
		for _, rp := range order {
			l.installRecoverState(rp.r, rp.from)
		}
		lh.mu.Lock()
		lh.leader = l
		lh.mu.Unlock()
		if v := CheckInvariants(helpers); len(v) != 0 {
			t.Fatalf("invariants violated after the fold: %v", v)
		}
		return dumpRecoverTables(l)
	}
	want := fold(set)
	if o := want.Owners[NSSysVMsg][contested]; o.addr != m1.Addr {
		t.Fatalf("contested object owned by %q, want its holder %s", o.addr, m1.Addr)
	}
	if e := want.Keys[NSSysVMsg][0x6101]; e.id != contested {
		t.Fatalf("contested key maps to id %d, want the live %d", e.id, contested)
	}

	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shuffled := func() []report {
			out := append([]report(nil), set...)
			rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			return out
		}
		perm := shuffled()
		dup := shuffled()
		for n := 1 + rng.Intn(len(set)); n > 0; n-- {
			at := rng.Intn(len(dup) + 1)
			dup = append(dup[:at], append([]report{set[rng.Intn(len(set))]}, dup[at:]...)...)
		}
		split := shuffled()
		cut := 1 + rng.Intn(len(split)-1)
		subsetThenAll := append(append([]report(nil), split[:cut]...), shuffled()...)
		for name, order := range map[string][]report{
			"permutation":       perm,
			"duplicates":        dup,
			"subset, then rest": split,
			"subset, then all":  subsetThenAll,
		} {
			if got := fold(order); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s: the fold depends on arrival:\n got  %+v\n want %+v", seed, name, got, want)
			}
		}
	}
}
