package ipc

import (
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/pal"
)

// Sharded-plane suite: slab and ring placement properties, routing
// determinism across helpers and across elections, and the headline
// isolation property — killing or partitioning one shard's coordinator
// leaves operations routed to the other shards completely undisturbed.

// shardTopo is a live n-shard sandbox: coords[i] leads shard i (coord 0
// is the sandbox init, guest PID 1), mems joined with the full address
// table.
type shardTopo struct {
	coords    []*Helper
	coordPALs []*pal.PAL
	mems      []*Helper
	memPALs   []*pal.PAL
}

// all lists every live helper (for CheckInvariants); dead lists the ones
// to exclude.
func (tp *shardTopo) all(dead ...*Helper) []*Helper {
	var out []*Helper
	skip := func(h *Helper) bool {
		for _, d := range dead {
			if d == h {
				return true
			}
		}
		return false
	}
	for _, h := range append(append([]*Helper{}, tp.coords...), tp.mems...) {
		if !skip(h) {
			out = append(out, h)
		}
	}
	return out
}

// shardTopology boots an n-shard coordination plane plus `members` member
// helpers. Coordinator i is booted with the addresses of coordinators
// 0..i-1 and back-fills the earlier ones via SetShardLeader, so every
// helper starts with a complete routing table — tests exercise failure
// paths explicitly, not boot-order discovery.
func (g *testGroup) shardTopology(n, members int) *shardTopo {
	tp := &shardTopo{}
	addrs := make([]string, n)

	proc, _, err := g.m.Launch(g.mf)
	if err != nil {
		g.t.Fatal(err)
	}
	p0 := pal.New(g.k, proc, g.m)
	c0, err := NewShardLeader(p0, newFakeService(), 1, 0, n, addrs)
	if err != nil {
		g.t.Fatal(err)
	}
	tp.coords = append(tp.coords, c0)
	tp.coordPALs = append(tp.coordPALs, p0)
	addrs[0] = c0.Addr

	for i := 1; i < n; i++ {
		cp := g.forkPAL(p0)
		ch, err := NewShardLeader(cp, newFakeService(), int64(i+1), i, n, addrs)
		if err != nil {
			g.t.Fatal(err)
		}
		tp.coords = append(tp.coords, ch)
		tp.coordPALs = append(tp.coordPALs, cp)
		addrs[i] = ch.Addr
		for j := 0; j < i; j++ {
			tp.coords[j].SetShardLeader(i, ch.Addr)
		}
	}
	for m := 0; m < members; m++ {
		mp := g.forkPAL(p0)
		mh, err := NewShardMember(mp, newFakeService(), int64(n+1+m), addrs)
		if err != nil {
			g.t.Fatal(err)
		}
		tp.mems = append(tp.mems, mh)
		tp.memPALs = append(tp.memPALs, mp)
	}
	g.helpers = append(g.helpers, tp.coords...)
	g.helpers = append(g.helpers, tp.mems...)
	return tp
}

// keyOnShard finds a small SysV key whose block the ring places on the
// given shard.
func keyOnShard(h *Helper, kind int, shard int) int64 {
	for k := int64(1); k < 100_000; k++ {
		if h.keyShardOf(kind, k) == shard {
			return k
		}
	}
	return -1
}

func TestShardOfIDSlabStriping(t *testing.T) {
	cases := []struct {
		id   int64
		n    int
		want int
	}{
		{1, 4, 0}, {slabWidth, 4, 0}, {slabWidth + 1, 4, 1},
		{2 * slabWidth, 4, 1}, {2*slabWidth + 1, 4, 2},
		{4*slabWidth + 1, 4, 0}, // stripe wraps round-robin
		{slabWidth + 1, 1, 0},   // single shard: everything is shard 0
		{0, 4, 0}, {-5, 4, 0},   // non-positive ids never route off shard 0
	}
	for _, c := range cases {
		if got := shardOfID(c.id, c.n); got != c.want {
			t.Errorf("shardOfID(%d, %d) = %d, want %d", c.id, c.n, got, c.want)
		}
	}
}

// TestShardRingDeterminism: ring placement is a pure function of (shard
// count, key) — two independently built rings agree on every key, and
// every shard owns a non-trivial share.
func TestShardRingDeterminism(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		a, b := newShardRing(n), newShardRing(n)
		counts := make([]int, n)
		for k := int64(0); k < 20_000; k++ {
			sa := a.keyShard(NSSysVMsg, k)
			if sb := b.keyShard(NSSysVMsg, k); sa != sb {
				t.Fatalf("n=%d key %d: ring placement diverged (%d vs %d)", n, k, sa, sb)
			}
			counts[sa]++
		}
		for s, c := range counts {
			if c == 0 {
				t.Fatalf("n=%d: shard %d owns no keys at all", n, s)
			}
			// 64 vnodes keeps worst-case skew well under 3x the fair share.
			if c > 3*20_000/n {
				t.Fatalf("n=%d: shard %d owns %d of 20000 keys — skew too high", n, s, c)
			}
		}
	}
}

// TestShardRingRebalance pins the consistent-hashing property: growing the
// ring from n to n+1 shards moves only about 1/(n+1) of the keys.
func TestShardRingRebalance(t *testing.T) {
	const samples = 20_000
	for _, n := range []int{2, 4} {
		old, grown := newShardRing(n), newShardRing(n+1)
		moved := 0
		for k := int64(0); k < samples; k++ {
			before := old.keyShard(NSSysVMsg, k)
			after := grown.keyShard(NSSysVMsg, k)
			if before != after {
				moved++
				// Keys that move may only move to the new shard — a key
				// hopping between pre-existing shards would break the
				// minimal-disruption property outright.
				if after != n {
					t.Fatalf("n=%d→%d: key %d moved %d→%d, not to the new shard",
						n, n+1, k, before, after)
				}
			}
		}
		frac := float64(moved) / samples
		want := 1.0 / float64(n+1)
		if frac < want/3 || frac > want*2 {
			t.Fatalf("n=%d→%d: %.1f%% of keys moved, expected ~%.1f%%",
				n, n+1, 100*frac, 100*want)
		}
		t.Logf("n=%d→%d: %.1f%% of keys moved (ideal %.1f%%)", n, n+1, 100*frac, 100*want)
	}
}

// TestShardRoutingAgreement boots a live 2-shard plane and checks that
// every helper — coordinators and members alike — routes any given key to
// the same shard, and that an object created through one member is
// resolvable through another with an ID whose slab agrees with the key's
// ring placement (single-shard authority per object).
func TestShardRoutingAgreement(t *testing.T) {
	g := newTestGroup(t)
	tp := g.shardTopology(2, 2)
	m1, m2 := tp.mems[0], tp.mems[1]

	for k := int64(1); k <= 64; k++ {
		f := Frame{Type: MsgKeyGet, A: NSSysVMsg, B: k}
		want := m1.routeShard(&f)
		for _, h := range tp.all() {
			if got := h.routeShard(&f); got != want {
				t.Fatalf("key %d: %s routes to shard %d, %s to %d", k, m1.Addr, want, h.Addr, got)
			}
		}
	}
	for _, shard := range []int{0, 1} {
		key := keyOnShard(m1, NSSysVMsg, shard)
		id, err := m1.Msgget(key, api.IPCCreat)
		if err != nil {
			t.Fatalf("msgget key %d (shard %d): %v", key, shard, err)
		}
		if got := shardOfID(id, 2); got != shard {
			t.Fatalf("key %d on shard %d got id %d from shard %d's slabs", key, shard, id, got)
		}
		id2, err := m2.Msgget(key, 0)
		if err != nil || id2 != id {
			t.Fatalf("m2 lookup of key %d: id %d err %v, want id %d", key, id2, err, id)
		}
	}
	if v := CheckInvariants(tp.all()); len(v) != 0 {
		t.Fatalf("invariants violated: %v", v)
	}
}

// TestShardRoutingStableAcrossElection kills one shard's coordinator and
// verifies the election changes only who serves the shard — never which
// shard a key routes to — and that the surviving owner's reconcile
// re-registers the key with the new shard leader (same object ID).
func TestShardRoutingStableAcrossElection(t *testing.T) {
	g := newTestGroup(t)
	tp := g.shardTopology(2, 2)
	m1, m2 := tp.mems[0], tp.mems[1]

	const victim = 1
	key := keyOnShard(m1, NSSysVMsg, victim)
	id, err := m2.Msgget(key, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	routeBefore := m1.routeShard(&Frame{Type: MsgKeyGet, A: NSSysVMsg, B: key})
	epochOther := m1.ShardEpoch(0)

	tp.coordPALs[victim].Proc().Exit(137)

	// The first op routed at the dead shard rides through that shard's
	// election; the key must resolve to the same object afterwards (the
	// owner m2 re-registers it during reconcile).
	waitFor(t, 2*time.Second, "key to resolve through the new shard leader", func() bool {
		got, err := m1.Msgget(key, 0)
		return err == nil && got == id
	})
	if got := m1.routeShard(&Frame{Type: MsgKeyGet, A: NSSysVMsg, B: key}); got != routeBefore {
		t.Fatalf("election moved key %d from shard %d to %d", key, routeBefore, got)
	}
	if e := m1.ShardEpoch(victim); e < 1 {
		t.Fatalf("no election epoch advanced on the killed shard (epoch %d)", e)
	}
	if e := m1.ShardEpoch(0); e != epochOther {
		t.Fatalf("untouched shard 0's epoch moved %d → %d during shard %d's election",
			epochOther, e, victim)
	}
	if v := CheckInvariants(tp.all(tp.coords[victim])); len(v) != 0 {
		t.Fatalf("invariants violated after shard election: %v", v)
	}
}

// TestChaosKillOneShardLeavesOthersUndisturbed is the acceptance check for
// shard fault isolation: with a 4-shard plane and warm routing caches,
// killing one shard's coordinator must leave operations routed to the
// other three shards entirely unaffected — no election, no retry, no
// timeout, no epoch movement — until something actually touches the dead
// shard.
func TestChaosKillOneShardLeavesOthersUndisturbed(t *testing.T) {
	g := newTestGroup(t)
	tp := g.shardTopology(4, 2)
	m1, m2 := tp.mems[0], tp.mems[1]

	// Warm every member's conns and routing caches on all four shards.
	keys := make([]int64, 4)
	for s := 0; s < 4; s++ {
		keys[s] = keyOnShard(m1, NSSysVMsg, s)
		if _, err := m1.Msgget(keys[s], api.IPCCreat); err != nil {
			t.Fatalf("warmup msgget shard %d: %v", s, err)
		}
		if _, err := m2.Msgget(keys[s], 0); err != nil {
			t.Fatalf("warmup lookup shard %d: %v", s, err)
		}
	}

	const victim = 2
	epochs := make([]int64, 4)
	for s := range epochs {
		epochs[s] = m1.ShardEpoch(s)
	}
	before := ReadFailoverCounters()
	tp.coordPALs[victim].Proc().Exit(137)

	// Ops routed to the three surviving shards, from both members, with the
	// victim freshly dead: every one must complete on the fast path.
	for i := 0; i < 5; i++ {
		for s := 0; s < 4; s++ {
			if s == victim {
				continue
			}
			if _, err := m1.Msgget(keys[s], 0); err != nil {
				t.Fatalf("lookup on live shard %d after killing shard %d: %v", s, victim, err)
			}
			if _, err := m2.Msgget(keys[s], 0); err != nil {
				t.Fatalf("m2 lookup on live shard %d: %v", s, err)
			}
		}
	}
	after := ReadFailoverCounters()
	if d := after.Failovers - before.Failovers; d != 0 {
		t.Fatalf("%d election(s) ran for ops that never touched the dead shard", d)
	}
	if d := after.RPCTimeouts - before.RPCTimeouts; d != 0 {
		t.Fatalf("%d RPC timeout(s) on surviving shards — retries leaked across shards", d)
	}
	for s := 0; s < 4; s++ {
		if s == victim {
			continue
		}
		if e := m1.ShardEpoch(s); e != epochs[s] {
			t.Fatalf("surviving shard %d's epoch moved %d → %d", s, epochs[s], e)
		}
	}

	// Touching the dead shard now runs exactly that shard's election; the
	// other shards still never move. m2, which created none of the keys,
	// is the prober.
	waitFor(t, 2*time.Second, "dead shard's key to resolve post-election", func() bool {
		id, err := m2.Msgget(keys[victim], 0)
		return err == nil && id > 0
	})
	if d := ReadFailoverCounters().Failovers - before.Failovers; d < 1 {
		t.Fatal("touching the dead shard never triggered its election")
	}
	for s := 0; s < 4; s++ {
		if s == victim {
			continue
		}
		if e := m1.ShardEpoch(s); e != epochs[s] {
			t.Fatalf("shard %d's epoch moved during shard %d's election", s, victim)
		}
	}
	if v := CheckInvariants(tp.all(tp.coords[victim])); len(v) != 0 {
		t.Fatalf("invariants violated: %v", v)
	}
}

// TestChaosDyingShardLeaderReapsNoLivePeer kills one shard's coordinator
// after a member created a key on every shard. The coordinator's exit
// closes every stream it holds, and none of those deaths is a peer's: it
// must reap no live member, neither in its own tables nor, through a
// scattered MsgMemberDead, in the live shard leaders'. Every leader keeps
// mapping every key to its creator.
func TestChaosDyingShardLeaderReapsNoLivePeer(t *testing.T) {
	g := newTestGroup(t)
	tp := g.shardTopology(4, 2)
	m1 := tp.mems[0]
	keys := make([]int64, 4)
	for s := range keys {
		keys[s] = keyOnShard(m1, NSSysVMsg, s)
		if _, err := m1.Msgget(keys[s], api.IPCCreat); err != nil {
			t.Fatalf("create on shard %d: %v", s, err)
		}
	}
	const victim = 2
	vh := tp.coords[victim]
	tp.coordPALs[victim].Proc().Exit(137)
	// The victim's read loops see their streams close and drop each conn;
	// a reap would start right after. Give it time to land.
	waitFor(t, 2*time.Second, "the dead coordinator to drop its conns", func() bool {
		vh.mu.Lock()
		defer vh.mu.Unlock()
		return len(vh.incoming) == 0
	})
	time.Sleep(50 * time.Millisecond)
	for s, c := range tp.coords {
		l := c.groups[s].leader
		l.mu.Lock()
		e, ok := l.keys[NSSysVMsg][keys[s]]
		l.mu.Unlock()
		if !ok || e.owner != m1.Addr {
			t.Errorf("shard %d's leader maps key %d to %+v (mapped=%v) after shard %d's coordinator died; want owner %s",
				s, keys[s], e, ok, victim, m1.Addr)
		}
	}
}

// TestChaosPartitionShardSubset partitions one shard's coordinator away
// from everyone (alive, not killed — the asymmetric-failure case): ops on
// other shards stay undisturbed, the stranded shard fails over, and after
// the heal the old coordinator hears the higher epoch and steps down
// without splitting the namespace.
func TestChaosPartitionShardSubset(t *testing.T) {
	g := newTestGroup(t)
	tp := g.shardTopology(4, 2)
	m1, m2 := tp.mems[0], tp.mems[1]

	keys := make([]int64, 4)
	ids := make([]int64, 4)
	for s := 0; s < 4; s++ {
		keys[s] = keyOnShard(m1, NSSysVMsg, s)
		id, err := m2.Msgget(keys[s], api.IPCCreat)
		if err != nil {
			t.Fatal(err)
		}
		ids[s] = id
	}

	const victim = 1
	before := ReadFailoverCounters()
	g.k.Isolate(tp.coordPALs[victim].Proc().ID)

	// Other shards: full speed, no failover.
	for s := 0; s < 4; s++ {
		if s == victim {
			continue
		}
		if got, err := m1.Msgget(keys[s], 0); err != nil || got != ids[s] {
			t.Fatalf("live shard %d during shard %d partition: id %d err %v", s, victim, got, err)
		}
	}
	if d := ReadFailoverCounters().Failovers - before.Failovers; d != 0 {
		t.Fatalf("%d failover(s) on shards outside the partition", d)
	}

	// The stranded shard: the first op rides timeout → election → retry and
	// must complete within the partition budget. A transient ENOENT is
	// legal — the new leader may answer before the object owner's
	// reconcile re-registers the key — but it must never hang or EPIPE.
	start := time.Now()
	got, err := m1.Msgget(keys[victim], 0)
	elapsed := time.Since(start)
	if elapsed > chaosRPCBudget {
		t.Fatalf("op on partitioned shard took %v, budget %v", elapsed, chaosRPCBudget)
	}
	if err != nil && api.ToErrno(err) != api.ENOENT {
		t.Fatalf("op on partitioned shard: id %d err %v (after %v)", got, err, elapsed)
	}
	waitFor(t, 2*time.Second, "reconcile to restore the stranded shard's key", func() bool {
		got, err := m1.Msgget(keys[victim], 0)
		return err == nil && got == ids[victim]
	})
	newEpoch := m1.ShardEpoch(victim)
	if old := tp.coords[victim].ShardEpoch(victim); old >= newEpoch {
		t.Fatalf("partitioned coordinator's epoch %d not behind the new epoch %d", old, newEpoch)
	}

	// Heal: the stale coordinator must adopt the new leader (step down) on
	// the first heartbeat it hears, and the whole plane must satisfy the
	// per-shard and cross-shard invariants again.
	g.k.HealAll()
	waitFor(t, 2*time.Second, "healed coordinator to step down", func() bool {
		return !tp.coords[victim].leadsShard(victim) &&
			tp.coords[victim].ShardEpoch(victim) == newEpoch
	})
	waitFor(t, 2*time.Second, "invariants to settle after heal", func() bool {
		return len(CheckInvariants(tp.all())) == 0
	})
}

// TestChaosFlapDuringCrossShardReclaim crashes a member that owns keyed
// objects on every shard while the link between two coordinators flaps —
// the cross-shard death-reclamation scatter (MsgMemberDead) keeps getting
// torn mid-broadcast. Reclamation must still converge on every shard: all
// of the dead member's keys become creatable again with fresh IDs.
func TestChaosFlapDuringCrossShardReclaim(t *testing.T) {
	g := newTestGroup(t)
	tp := g.shardTopology(4, 2)
	m1, m2 := tp.mems[0], tp.mems[1]

	keys := make([]int64, 4)
	oldIDs := make([]int64, 4)
	for s := 0; s < 4; s++ {
		keys[s] = keyOnShard(m2, NSSysVMsg, s)
		id, err := m2.Msgget(keys[s], api.IPCCreat)
		if err != nil {
			t.Fatal(err)
		}
		oldIDs[s] = id
	}

	flapDone := make(chan struct{})
	go func() {
		defer close(flapDone)
		g.k.Flap(tp.coordPALs[0].Proc().ID, tp.coordPALs[3].Proc().ID,
			5*time.Millisecond, 5*time.Millisecond, 10)
	}()
	m2.pal.Proc().Exit(137) // crash mid-flap: no shutdown, nothing persisted
	<-flapDone
	g.k.HealAll()

	// Every shard independently reaps the dead owner (directly off its own
	// dead stream, or via the MsgMemberDead scatter) and tombstones its
	// objects; each key must become creatable again with a fresh ID.
	for s := 0; s < 4; s++ {
		s := s
		waitFor(t, 5*time.Second, "shard to reclaim the dead member's key", func() bool {
			id, err := m1.Msgget(keys[s], api.IPCCreat)
			return err == nil && id != oldIDs[s]
		})
	}
	waitFor(t, 2*time.Second, "invariants to settle after reclaim", func() bool {
		return len(CheckInvariants(tp.all(m2))) == 0
	})
}

// TestShardHandoffGraceful moves one shard between coordinators with no
// failure at all: the receiver serves at the pre-fenced epoch immediately
// and routing (which is key-arithmetic, not leader identity) is untouched.
func TestShardHandoffGraceful(t *testing.T) {
	g := newTestGroup(t)
	tp := g.shardTopology(2, 1)
	m1 := tp.mems[0]

	key := keyOnShard(m1, NSSysVMsg, 1)
	id, err := m1.Msgget(key, api.IPCCreat)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.coords[1].TransferShard(1, tp.coords[0].Addr); err != nil {
		t.Fatalf("handoff: %v", err)
	}
	if !tp.coords[0].leadsShard(1) {
		t.Fatal("receiver does not lead the handed-off shard")
	}
	if tp.coords[1].leadsShard(1) {
		t.Fatal("sender still leads the shard it handed off")
	}
	// The object stays resolvable: the owner (m1) re-registers with the new
	// shard leader on the announced leader change.
	waitFor(t, 2*time.Second, "key to resolve through the handoff target", func() bool {
		got, err := m1.Msgget(key, 0)
		return err == nil && got == id
	})
	waitFor(t, 2*time.Second, "invariants to settle after handoff", func() bool {
		return len(CheckInvariants(tp.all())) == 0
	})
}
