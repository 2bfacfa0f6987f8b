package ipc

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/monitor"
	"graphene/internal/pal"
)

func BenchmarkFrameEncode(b *testing.B) {
	b.ReportAllocs()
	f := Frame{Type: MsgQSend, Seq: 42, From: "ipc.7", A: 1, B: 2, S: "x", Blob: make([]byte, 64)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = EncodeFrame(&f)
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	b.ReportAllocs()
	f := Frame{Type: MsgQSend, Seq: 42, From: "ipc.7", A: 1, B: 2, S: "x", Blob: make([]byte, 64)}
	enc := EncodeFrame(&f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrame(bytes.NewReader(enc)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalQueueSendRecv(b *testing.B) {
	b.ReportAllocs()
	q := newMsgQueue(1, 1)
	payload := make([]byte, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if errno := q.send(1, payload); errno != 0 {
			b.Fatal(errno)
		}
		delivered := false
		q.recv(0, false, "", 0, func(sysvResult) { delivered = true })
		if !delivered {
			b.Fatal("recv missed")
		}
	}
}

func BenchmarkSemOpLocal(b *testing.B) {
	b.ReportAllocs()
	s := newSemSet(1, 1, 1)
	s.vals[0] = 1 << 30
	ops := []api.SemBuf{{Num: 0, Op: -1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok := false
		s.semop(ops, false, "", 0, func(r sysvResult) { ok = r.errno == 0 })
		if !ok {
			b.Fatal("semop failed")
		}
	}
}

func BenchmarkLeaderKeyGet(b *testing.B) {
	b.ReportAllocs()
	l := newLeaderState()
	if _, _, errno := l.keyResolve(NSSysVMsg, 7, api.IPCCreat, 100, "ipc.1"); errno != 0 {
		b.Fatal(errno)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, errno := l.keyResolve(NSSysVMsg, 7, 0, 0, "ipc.2"); errno != 0 {
			b.Fatal(errno)
		}
	}
}

// BenchmarkConnRoundTrip measures one full RPC over a Conn pair — frame
// encode, flush-combined stream write, buffered decode, handler dispatch,
// and response routing (the protocol cost under Figure 5's ping-pong).
func BenchmarkConnRoundTrip(b *testing.B) {
	b.ReportAllocs()
	sa, sb := host.NewStreamPair("pipe:bench", 1, 2)
	echo := func(f Frame, respond func(Frame)) { respond(f.Response(Frame{A: f.A})) }
	ca := NewConn(sa, "ipc.A", echo, nil)
	cb := NewConn(sb, "ipc.B", echo, nil)
	defer ca.Close()
	defer cb.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ca.Call(Frame{Type: MsgPing, A: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConnNotifyBurst measures the asynchronous send path, where the
// flush combiner batches frames from a tight loop into few stream writes.
func BenchmarkConnNotifyBurst(b *testing.B) {
	b.ReportAllocs()
	sa, sb := host.NewStreamPair("pipe:bench", 1, 2)
	drop := func(f Frame, respond func(Frame)) {}
	ca := NewConn(sa, "ipc.A", drop, nil)
	cb := NewConn(sb, "ipc.B", drop, nil)
	defer ca.Close()
	defer cb.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ca.Notify(Frame{Type: MsgSignal, A: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := ca.Flush(); err != nil {
		b.Fatal(err)
	}
}

// benchPair builds an owner (leader) and a remote client helper sharing
// one sandbox, for the kernel-bypass datapath benchmarks.
func benchPair(b *testing.B) (owner, client *Helper) {
	b.Helper()
	k := host.NewKernel()
	m := monitor.New(k)
	mf, err := monitor.ParseManifest("ipc-bench", "mount / /\nallow_read /\nallow_write /\n")
	if err != nil {
		b.Fatal(err)
	}
	proc, _, err := m.Launch(mf)
	if err != nil {
		b.Fatal(err)
	}
	p := pal.New(k, proc, m)
	lh, err := NewLeader(p, newFakeService(), 1)
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	var cp *pal.PAL
	if _, _, err := p.DkProcessCreate(func(c *pal.PAL, initial *host.Stream) {
		cp = c
		close(done)
		select {}
	}, false); err != nil {
		b.Fatal(err)
	}
	<-done
	mh, err := NewMember(cp, newFakeService(), 2, lh.Addr)
	if err != nil {
		b.Fatal(err)
	}
	return lh, mh
}

// benchAttachQ drives the client past the attach threshold and waits for
// the send-ring grant (migration must already be disabled by the caller).
func benchAttachQ(b *testing.B, client *Helper, id int64) {
	b.Helper()
	for i := 0; i < ringAttachThreshold; i++ {
		if err := client.Msgsnd(id, 1, []byte{byte(i)}, 0); err != nil {
			b.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		client.ringState.mu.Lock()
		attached := client.ringState.clients[id] != nil
		client.ringState.mu.Unlock()
		if attached {
			return
		}
		if time.Now().After(deadline) {
			b.Fatal("ring attach never completed")
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkRingMsgsndRemote measures the steady-state inter-process send
// with the kernel-bypass ring: client TryPush, owner drainer ingest. The
// owner consumes concurrently so the ring drains; occasional full-ring
// synchronous fallbacks are part of the measured steady state.
func BenchmarkRingMsgsndRemote(b *testing.B) {
	SetMigrationEnabled(false)
	defer SetMigrationEnabled(true)
	lh, mh := benchPair(b)
	id, err := lh.Msgget(61, api.IPCCreat)
	if err != nil {
		b.Fatal(err)
	}
	benchAttachQ(b, mh, id)
	payload := []byte("0123456789abcdef")
	// Batched pipeline, half the ring per batch: the client streams pushes
	// and the owner drains, so each iteration measures one remote send
	// plus one owner receive — the same work HelperMsgsndLocal does fully
	// in-process — without the ring ever filling.
	const batch = host.RingSlots / 2
	b.ReportAllocs()
	b.ResetTimer()
	pending := 0
	for i := 0; i < b.N; i++ {
		if err := mh.Msgsnd(id, 1, payload, 0); err != nil {
			b.Fatal(err)
		}
		if pending++; pending == batch {
			for j := 0; j < batch; j++ {
				if _, _, err := lh.Msgrcv(id, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
			pending = 0
		}
	}
	for j := 0; j < pending; j++ {
		if _, _, err := lh.Msgrcv(id, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCMsgsndRemote is the same remote send on the RPC plane: a
// message one byte over a ring slot misses the ring, so every send is one
// acknowledged RPC to the owner.
func BenchmarkRPCMsgsndRemote(b *testing.B) {
	SetMigrationEnabled(false)
	defer SetMigrationEnabled(true)
	lh, mh := benchPair(b)
	id, err := lh.Msgget(62, api.IPCCreat)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, host.RingSlotData+1)
	const batch = host.RingSlots / 2
	b.ReportAllocs()
	b.ResetTimer()
	pending := 0
	for i := 0; i < b.N; i++ {
		if err := mh.Msgsnd(id, 1, payload, 0); err != nil {
			b.Fatal(err)
		}
		if pending++; pending == batch {
			for j := 0; j < batch; j++ {
				if _, _, err := lh.Msgrcv(id, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
			pending = 0
		}
	}
	for j := 0; j < pending; j++ {
		if _, _, err := lh.Msgrcv(id, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCSemopRemote is remote semop on the RPC plane: a semop never
// rides a ring, and with migration off the set stays at its owner, so
// every op is a synchronous RPC round trip to the owner.
func BenchmarkRPCSemopRemote(b *testing.B) {
	SetMigrationEnabled(false)
	defer SetMigrationEnabled(true)
	lh, mh := benchPair(b)
	id, err := lh.Semget(64, 2, api.IPCCreat)
	if err != nil {
		b.Fatal(err)
	}
	up := []api.SemBuf{{Num: 0, Op: 1}}
	down := []api.SemBuf{{Num: 0, Op: -1}}
	if err := mh.Semop(id, up); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mh.Semop(id, up); err != nil {
			b.Fatal(err)
		}
		if err := mh.Semop(id, down); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHelperMsgsndLocal is the in-process baseline at the same API
// layer as the remote benchmarks: owner-local send + receive through the
// full Helper path (owner resolution, queue locking, waiter bookkeeping).
func BenchmarkHelperMsgsndLocal(b *testing.B) {
	lh, _ := benchPair(b)
	id, err := lh.Msgget(65, api.IPCCreat)
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte("0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lh.Msgsnd(id, 1, payload, 0); err != nil {
			b.Fatal(err)
		}
		if _, _, err := lh.Msgrcv(id, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHelperSemopLocal is the in-process semop baseline.
func BenchmarkHelperSemopLocal(b *testing.B) {
	lh, _ := benchPair(b)
	id, err := lh.Semget(66, 1, api.IPCCreat)
	if err != nil {
		b.Fatal(err)
	}
	up := []api.SemBuf{{Num: 0, Op: 1}}
	down := []api.SemBuf{{Num: 0, Op: -1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lh.Semop(id, up); err != nil {
			b.Fatal(err)
		}
		if err := lh.Semop(id, down); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCKeyLookupRemote is a member's msgget of a live key: one
// MsgKeyGet round trip to the leader, which answers from its key
// table.
func BenchmarkRPCKeyLookupRemote(b *testing.B) {
	lh, mh := benchPair(b)
	id, err := lh.Msgget(67, api.IPCCreat)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, err := mh.Msgget(67, 0); err != nil || got != id {
			b.Fatalf("lookup = %d, %v; want %d", got, err, id)
		}
	}
}

// BenchmarkRPCKeyChurnRemote is a member's create + rmid of a fresh key:
// a creating MsgKeyGet that makes the member the
// queue's owner, then the owner-local removal and its synchronous
// MsgKeyRemove at the leader.
func BenchmarkRPCKeyChurnRemote(b *testing.B) {
	_, mh := benchPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := mh.Msgget(int64(0x10000+i), api.IPCCreat|api.IPCExcl)
		if err != nil {
			b.Fatal(err)
		}
		if err := mh.MsgRmid(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeaderKeyChurn is BenchmarkRPCKeyChurnRemote at the leader:
// a fresh key created and removed inline, no RPC, so the leader's table
// writes (owner, key, index and holdings) are most of what it measures.
func BenchmarkLeaderKeyChurn(b *testing.B) {
	lh, _ := benchPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := lh.Msgget(int64(0x10000+i), api.IPCCreat|api.IPCExcl)
		if err != nil {
			b.Fatal(err)
		}
		if err := lh.MsgRmid(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailoverAfterLeaderKill times recovery from a leader crash. The
// leader's picoprocess exits; from that moment one member times its first
// successful lookup of a key a third member created before the crash
// (the lookup rides the election, and finds the key once its owner's
// recover report has reached the new leader), and another its first
// fresh create. Reported per failover as lookup_us and create_us.
func BenchmarkFailoverAfterLeaderKill(b *testing.B) {
	var lookup, create time.Duration
	for i := 0; i < b.N; i++ {
		g := newTestGroup(b)
		lh, lp := g.leader(newFakeService())
		g.member(lp, lh.Addr, 2, newFakeService()) // a bystander: it makes no call, so it never claims
		owner, _ := g.member(lp, lh.Addr, 3, newFakeService())
		looker, _ := g.member(lp, lh.Addr, 4, newFakeService())
		creator, _ := g.member(lp, lh.Addr, 5, newFakeService())
		const key = 0x7100
		id, err := owner.Msgget(key, api.IPCCreat)
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		var lookupErr, createErr error
		start := time.Now()
		lp.Proc().Exit(137)
		go func() {
			defer wg.Done()
			for {
				got, err := looker.Msgget(key, 0)
				if err == nil && got == id {
					lookup += time.Since(start)
					return
				}
				if err != nil && err != api.ENOENT {
					lookupErr = err
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
		}()
		go func() {
			defer wg.Done()
			if _, createErr = creator.Msgget(key+1, api.IPCCreat|api.IPCExcl); createErr == nil {
				create += time.Since(start)
			}
		}()
		wg.Wait()
		if lookupErr != nil || createErr != nil {
			b.Fatalf("after the leader's exit: lookup %v, create %v", lookupErr, createErr)
		}
		g.stop()
	}
	b.ReportMetric(float64(lookup.Microseconds())/float64(b.N), "lookup_us")
	b.ReportMetric(float64(create.Microseconds())/float64(b.N), "create_us")
}
