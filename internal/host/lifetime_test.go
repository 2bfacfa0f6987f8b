package host

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"graphene/internal/api"
	"graphene/internal/metrics"
)

// Lifetime rule under test: the last holder's close takes an object out of
// every table, and no buffer exists before its first write.

func ringBytesOf(s *Stream) (in, out int) { return s.in.ringBytes(), s.out.ringBytes() }

func TestStreamRingAllocatedOnFirstWrite(t *testing.T) {
	a, b := NewStreamPair("pipe:lazy", 1, 2)
	defer a.Close()
	defer b.Close()
	if in, out := ringBytesOf(a); in != 0 || out != 0 {
		t.Fatalf("a pair never written holds %d+%d ring bytes, want 0", in, out)
	}
	if !a.Writable() || a.Readable() {
		t.Fatal("an empty unallocated queue must be writable and not readable")
	}
	if _, err := a.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	in, out := ringBytesOf(a)
	if out == 0 || out > streamMinBuf {
		t.Fatalf("a 64 B write allocated %d ring bytes, want 1..%d", out, streamMinBuf)
	}
	if in != 0 {
		t.Fatalf("the direction never written holds %d ring bytes, want 0", in)
	}
}

func TestStreamRingGrowsOncePerWrite(t *testing.T) {
	a, b := NewStreamPair("pipe:grow", 1, 2)
	defer a.Close()
	defer b.Close()
	if _, err := a.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	// 64 B buffered in a 4 KiB ring; 16 KiB more must re-home the ring in
	// one step (one allocation), not by repeated doubling.
	payload := make([]byte, 16<<10)
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := a.Write(payload); err != nil {
			t.Fatal(err)
		}
	})
	// AllocsPerRun runs the function twice (one warm-up): 32 KiB + 64 B are
	// buffered now and the ring fits them in the next power of two.
	if allocs > 1 {
		t.Fatalf("a 16 KiB write made %v allocations, want at most 1", allocs)
	}
	if _, out := ringBytesOf(a); out != 64<<10 {
		t.Fatalf("ring holds %d bytes after 64 B + 2×16 KiB, want %d", out, 64<<10)
	}
}

// TestStreamRingGrowthKeepsOrder grows the ring while it holds wrapped
// data: every byte must come out once, in order.
func TestStreamRingGrowthKeepsOrder(t *testing.T) {
	a, b := NewStreamPair("pipe:groworder", 1, 2)
	defer a.Close()
	defer b.Close()
	seq := make([]byte, 40<<10)
	for i := range seq {
		seq[i] = byte(i * 7)
	}
	// Fill the minimal ring, drain most of it so the head sits near the
	// end, refill so the data wraps, then force two growth steps.
	must := func(_ int, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(a.Write(seq[:streamMinBuf]))
	got := make([]byte, 0, len(seq))
	buf := make([]byte, streamMinBuf-100)
	n, err := b.Read(buf)
	must(n, err)
	got = append(got, buf[:n]...)
	must(a.Write(seq[streamMinBuf : streamMinBuf+2000])) // wraps in the 4 KiB ring
	must(a.Write(seq[streamMinBuf+2000 : 20<<10]))       // grows with wrapped contents
	must(a.Write(seq[20<<10:]))                          // grows again
	a.Close()
	big := make([]byte, len(seq))
	for {
		n, err := b.Read(big)
		must(n, err)
		if n == 0 {
			break
		}
		got = append(got, big[:n]...)
	}
	if !bytes.Equal(got, seq) {
		t.Fatalf("ring growth reordered or lost data: got %d bytes, want %d", len(got), len(seq))
	}
}

func TestStreamRingAtCapacityNeverAllocates(t *testing.T) {
	a, b := NewStreamPair("pipe:steady", 1, 2)
	defer a.Close()
	defer b.Close()
	full := make([]byte, streamBufCap)
	if _, err := a.Write(full); err != nil {
		t.Fatal(err)
	}
	if a.Writable() {
		t.Fatal("back-pressure must begin at exactly streamBufCap bytes in flight")
	}
	if _, err := b.Read(full); err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 3000) // not a divisor of the ring: exercises the wrap
	if n := testing.AllocsPerRun(500, func() {
		if _, err := a.Write(chunk); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Read(full); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a ring at capacity allocated %v times per write+read, want 0", n)
	}
}

func TestStreamCloseReleasesRings(t *testing.T) {
	a, b := NewStreamPair("pipe:release", 1, 2)
	if _, err := a.Write([]byte("to b")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write([]byte("to a")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	// a's inbound bytes are unreadable now and go at once; what a wrote
	// stays until b has had its chance to read it.
	if in, out := ringBytesOf(a); in != 0 || out == 0 {
		t.Fatalf("after one close: %d inbound, %d outbound ring bytes; want 0 and > 0", in, out)
	}
	buf := make([]byte, 16)
	if n, err := b.Read(buf); err != nil || string(buf[:n]) != "to b" {
		t.Fatalf("data written before the peer's close: %q, %v", buf[:n], err)
	}
	b.Close()
	if in, out := ringBytesOf(a); in != 0 || out != 0 {
		t.Fatalf("both endpoints closed, %d+%d ring bytes remain", in, out)
	}
	if _, err := b.Write([]byte("x")); err != api.EBADF {
		t.Fatalf("write on a closed endpoint: %v, want EBADF", err)
	}
}

// TestStreamLastCloseLeavesEveryTable closes a co-held endpoint through
// every route — StreamClose, a bare Close, ForceClose, process exit — and
// checks that the real close, whoever makes it, empties every holder's
// table and lets go of the fault owner.
func TestStreamLastCloseLeavesEveryTable(t *testing.T) {
	listed := func(p *Picoprocess, s *Stream) bool { return slices.Contains(p.OpenStreams(), s) }
	for _, route := range []string{"StreamClose", "Close", "ForceClose", "Exit"} {
		t.Run(route, func(t *testing.T) {
			k := NewKernel()
			p1, _ := k.CreateProcess(nil, false)
			p2, _ := k.CreateProcess(nil, false)
			p3, _ := k.CreateProcess(nil, false)
			a, b := k.StreamPair(p1, p2)
			// p3 inherits p1's endpoint, as a forked child does.
			a.Ref()
			k.AdoptStream(p3, a)
			if !listed(p1, a) || !listed(p3, a) || !listed(p2, b) {
				t.Fatal("endpoints not registered with their holders")
			}
			// p3 gives its hold up first: it leaves p3's table only.
			k.StreamClose(p3, a)
			if listed(p3, a) || !listed(p1, a) || a.Closed() {
				t.Fatal("a co-holder's close must drop its own listing and nothing else")
			}
			if a.faultOwner.Load() != p1 {
				t.Fatal("the fault owner must move to a remaining holder")
			}
			switch route {
			case "StreamClose":
				k.StreamClose(p1, a)
			case "Close":
				a.Close()
			case "ForceClose":
				a.Ref() // even with holders left
				a.ForceClose()
			case "Exit":
				p1.Exit(0)
			}
			if !a.Closed() || listed(p1, a) || a.faultOwner.Load() != nil {
				t.Fatalf("%s: closed=%v listed=%v faultOwner=%v", route, a.Closed(), listed(p1, a), a.faultOwner.Load())
			}
			c := k.Census()
			if c.StreamsClosed != 0 || c.StreamsPeerClosed != 1 || c.StreamsOpen != 0 {
				t.Fatalf("census after %s: %+v", route, c)
			}
			// Registering a closed endpoint lists it nowhere.
			k.AdoptStream(p2, a)
			if listed(p2, a) {
				t.Fatal("a closed endpoint was registered")
			}
		})
	}
}

// TestStreamCloseAfterExitReleasesNothing: a close that passed the gate just
// before its picoprocess exited, and lands after Exit has released the
// picoprocess's endpoints, must not release the same reference again — the
// endpoint would close under the holder that is still alive. A forked
// child closing an inherited pipe end while a SIGKILL tears it down is
// this interleaving.
func TestStreamCloseAfterExitReleasesNothing(t *testing.T) {
	k := NewKernel()
	parent, _ := k.CreateProcess(nil, false)
	peer, _ := k.CreateProcess(nil, false)
	child, _ := k.CreateProcess(nil, false)
	w, r := k.StreamPair(parent, peer)
	w.Ref()
	k.AdoptStream(child, w)

	child.Exit(137)
	if w.Closed() {
		t.Fatal("the child's exit closed an endpoint its parent still holds")
	}
	k.StreamClose(child, w) // the late close
	if w.Closed() {
		t.Fatal("a close landing after the child's exit released the parent's reference")
	}
	if _, err := w.Write([]byte("x")); err != nil {
		t.Fatalf("parent's write after the child's late close: %v", err)
	}
	k.StreamClose(parent, w)
	if !w.Closed() || !r.PeerClosed() {
		t.Fatal("the parent's close, the last reference, did not close the endpoint")
	}
}

func TestIPCStoreCloseLeavesRegistry(t *testing.T) {
	k := NewKernel()
	p, _ := k.CreateProcess(nil, false)
	child, _ := k.CreateProcess(p, false)
	if _, err := p.AS.Alloc(0x10000, 3*PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := p.AS.Write(0x10000, bytes.Repeat([]byte{1}, 3*PageSize)); err != nil {
		t.Fatal(err)
	}
	st, err := k.CreateIPCStore(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := st.Commit(p.AS, 0x10000, 0x10000+3*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := child.AS.Alloc(0x10000, 3*PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	backing := st.batches[:4]
	for i := 0; i < 4; i++ {
		if n, err := st.Map(child.AS, 0x10000); err != nil || n != 3 {
			t.Fatalf("map %d: %d pages, %v", i, n, err)
		}
		if backing[i].leaves != nil {
			t.Fatalf("batch %d mapped, yet the queue's backing array still holds its leaves", i)
		}
	}
	if got := k.Census().Stores; got != 1 {
		t.Fatalf("census lists %d stores before close, want 1", got)
	}
	st.Close()
	st.Close() // both sides close; the second is a no-op
	if got := k.Census().Stores; got != 0 {
		t.Fatalf("census lists %d stores after close, want 0", got)
	}
	if _, err := st.Map(child.AS, 0x10000); err != api.EBADF {
		t.Fatalf("map on a closed store: %v, want EBADF", err)
	}
}

func TestFlightRecorderAllocatesOnFirstEvent(t *testing.T) {
	k := NewKernel()
	p, _ := k.CreateProcess(nil, false)
	r := p.TraceRecorder()
	if r.Cap() != DefaultTraceRing {
		t.Fatalf("cap = %d before the first event, want %d", r.Cap(), DefaultTraceRing)
	}
	if r.ringBytes() != 0 || len(r.Events()) != 0 || r.Dropped() != 0 {
		t.Fatalf("a recorder with no event holds %d ring bytes", r.ringBytes())
	}
	if got := k.Census().RecorderBytes; got != 0 {
		t.Fatalf("census counts %d recorder bytes with nothing recorded", got)
	}
	ev := TraceEvent{Kind: EvSyscall, Code: uint32(SysGetpid)}
	p.TraceRecord(ev)
	want := traceRingFirst * int(unsafe.Sizeof(TraceEvent{}))
	if r.ringBytes() != want || k.Census().RecorderBytes != want {
		t.Fatalf("after one event: %d ring bytes, census %d, want %d", r.ringBytes(), k.Census().RecorderBytes, want)
	}
	for i := 1; i < DefaultTraceRing; i++ {
		p.TraceRecord(ev)
	}
	want = DefaultTraceRing * int(unsafe.Sizeof(TraceEvent{}))
	if r.ringBytes() != want {
		t.Fatalf("after %d events: %d ring bytes, want %d", DefaultTraceRing, r.ringBytes(), want)
	}
	if n := testing.AllocsPerRun(1000, func() { p.TraceRecord(ev) }); n != 0 {
		t.Fatalf("Record into a full-size ring allocated %v times, want 0", n)
	}
	if evs := r.Events(); len(evs) != DefaultTraceRing || evs[0].Seq != 1002 {
		t.Fatalf("recorded %d events starting at seq %d", len(evs), evs[0].Seq)
	}
}

func TestCensusGauges(t *testing.T) {
	k := NewKernel()
	p1, _ := k.CreateProcess(nil, false)
	p2, _ := k.CreateProcess(p1, false)
	a, _ := k.StreamPair(p1, p2)
	if _, err := a.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.StreamListen(p1, "census.srv"); err != nil {
		t.Fatal(err)
	}
	want := Census{Procs: 2, StreamsOpen: 2, Listeners: 1, QueueBytes: streamMinBuf}
	if got := k.Census(); got != want {
		t.Fatalf("census %+v, want %+v", got, want)
	}
	undo := k.RegisterGauges()
	found := map[string]int64{}
	for _, g := range metrics.Default.Snapshot().Gauges {
		found[g.Name] = g.Value
	}
	if found["host.census.procs"] != 2 || found["host.census.queue_bytes"] != streamMinBuf {
		t.Fatalf("gauges do not read the census: %v", found)
	}
	undo()
	for _, g := range metrics.Default.Snapshot().Gauges {
		if g.Name == "host.census.procs" {
			t.Fatal("gauge survived its unregister")
		}
	}
	p2.Exit(0)
	p1.Exit(0)
	if got := k.Census(); got != (Census{}) {
		t.Fatalf("census after both exits %+v, want all zero", got)
	}
}

// TestRecycledRingLeaksNothing gives a stream in one sandbox a ring that a
// stream in another filled with marker bytes: its reader gets back exactly
// what its own writer wrote, also when the data wraps over the stale bytes.
func TestRecycledRingLeaksNothing(t *testing.T) {
	k := NewKernel()
	sandbox := func() (*Picoprocess, *Picoprocess) {
		p, _ := k.CreateProcess(nil, false)
		p.SandboxID = k.NewSandboxID()
		c, _ := k.CreateProcess(p, false)
		return p, c
	}
	a1, a2 := sandbox()
	b1, b2 := sandbox()
	if a1.SandboxID == b1.SandboxID || a2.SandboxID != a1.SandboxID {
		t.Fatal("want two pairs in two sandboxes")
	}
	must := func(_ int, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	marker := bytes.Repeat([]byte{0xA5}, streamMinBuf)
	want := append(bytes.Repeat([]byte{'x'}, 2000), bytes.Repeat([]byte{'y'}, 2000)...)
	buf := make([]byte, streamBufCap)
	recycled := 0
	for i := 0; i < 200 && recycled < 10; i++ {
		w, r := k.StreamPair(a1, a2)
		must(w.Write(marker))
		k.StreamClose(a2, r) // the reading endpoint's close gives the ring back
		k.StreamClose(a1, w)

		w, r = k.StreamPair(b1, b2)
		must(w.Write(bytes.Repeat([]byte{'x'}, 3000)))
		if bytes.IndexByte(r.in.buf, 0xA5) >= 0 {
			recycled++
		}
		got := make([]byte, 1000)
		must(r.Read(got)) // head at 1000 ...
		got = got[:0]
		must(w.Write(want[2000:])) // ... so these 2000 bytes wrap
		k.StreamClose(b1, w)
		for {
			n, err := r.Read(buf)
			must(n, err)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		k.StreamClose(b2, r)
		if !bytes.Equal(got, want) {
			t.Fatalf("cycle %d: the reader got %d bytes (%d marker bytes), want the %d its writer sent",
				i, len(got), bytes.Count(got, []byte{0xA5}), len(want))
		}
	}
	if recycled == 0 {
		t.Fatal("no stream took a recycled ring, so nothing was checked")
	}
}

// connectCycle is one served connection at the host ABI: a client
// connects, the server accepts, reads a 64 B request and answers 200 B, and
// both close.
func connectCycle(tb testing.TB, k *Kernel, cli, srv *Picoprocess, l *Listener, buf []byte) {
	c, err := k.StreamConnect(cli, l.Name)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := k.StreamAccept(srv, l)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := c.Write(buf[:64]); err != nil {
		tb.Fatal(err)
	}
	if n, err := s.Read(buf[:64]); n != 64 || err != nil {
		tb.Fatalf("request: %d bytes, %v", n, err)
	}
	if _, err := s.Write(buf[:200]); err != nil {
		tb.Fatal(err)
	}
	if n, err := c.Read(buf); n != 200 || err != nil {
		tb.Fatalf("reply: %d bytes, %v", n, err)
	}
	k.StreamClose(srv, s)
	k.StreamClose(cli, c)
}

func newConnectCycle(tb testing.TB) (k *Kernel, cli, srv *Picoprocess, l *Listener) {
	k = NewKernel()
	srv, _ = k.CreateProcess(nil, false)
	cli, _ = k.CreateProcess(srv, false)
	l, err := k.StreamListen(srv, "pipe.srv:cycle")
	if err != nil {
		tb.Fatal(err)
	}
	return k, cli, srv, l
}

// connectCycleAllocs is the allocation ceiling of one connectCycle: the two
// endpoints and their queues, their close channels and holder lists. The
// rings come from minRings.
const connectCycleAllocs = 8

func TestStreamConnectCycleAllocatesNoRing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops pooled rings at random")
	}
	k, cli, srv, l := newConnectCycle(t)
	buf := make([]byte, 256)
	if n := testing.AllocsPerRun(200, func() { connectCycle(t, k, cli, srv, l, buf) }); n > connectCycleAllocs {
		t.Errorf("one connect cycle made %v allocations, want at most %d", n, connectCycleAllocs)
	}
	const cycles = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range cycles {
		connectCycle(t, k, cli, srv, l, buf)
	}
	runtime.ReadMemStats(&after)
	// Two fresh rings would be 2 × streamMinBuf a cycle; a collection
	// emptying the pool mid-run costs two rings once.
	if per := (after.TotalAlloc - before.TotalAlloc) / cycles; per >= streamMinBuf/4 {
		t.Errorf("one connect cycle allocated %d bytes, want < %d: a ring is allocated, not recycled", per, streamMinBuf/4)
	}
	if got := k.Census(); got.StreamsOpen != 0 || got.QueueBytes != 0 {
		t.Errorf("after the cycles: %+v, want no open stream and no ring", got)
	}
}
