package host

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"graphene/internal/api"
)

// streamBufCap is the per-direction byte stream buffer, matching a Linux
// pipe's default 64 KiB capacity so backpressure behaves similarly.
const streamBufCap = 64 * 1024

// streamMinBuf is the ring a queue's first write allocates: most streams
// carry a few small frames (an RPC connection, a status pipe) and never
// need more.
const streamMinBuf = 4 * 1024

// byteQueue is one direction of a byte stream: a bounded FIFO of bytes with
// blocking reads and writes and half-close semantics. The buffer is a ring
// (head index + fill count) that costs what the stream carries: nothing
// until the first write, then a power-of-two size that grows to fit the
// bytes in flight up to streamBufCap, where back-pressure begins. Bytes are
// copied in and out in place, so a ring that has reached its working size
// performs no allocation. The reading endpoint's close releases the ring.
//
// Wakeups are edge-triggered on buffer-state transitions (empty→nonempty
// wakes readers and readability pollers, full→not-full wakes writers and
// writability pollers). Pollers are level-checked via TryAcquire before
// blocking, so transition-only pokes cannot lose events.
type byteQueue struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	buf      []byte // ring storage: nil, or streamMinBuf..streamBufCap bytes
	head     int    // index of the first unread byte
	n        int    // bytes currently buffered
	closed   bool
	waiters  map[chan struct{}]struct{} // allocated by the first poller
}

func newByteQueue() *byteQueue {
	q := &byteQueue{}
	q.notEmpty = sync.NewCond(&q.mu)
	q.notFull = sync.NewCond(&q.mu)
	return q
}

// grow re-homes the buffered bytes in a ring of at least need bytes (need
// <= streamBufCap): double the current size, or the power of two that fits
// need when doubling falls short, so one large write grows the ring once.
func (q *byteQueue) grow(need int) {
	size := max(2*len(q.buf), streamMinBuf)
	for size < need {
		size *= 2
	}
	nb := make([]byte, size)
	if q.n > 0 {
		c := copy(nb[:q.n], q.buf[q.head:])
		copy(nb[c:q.n], q.buf)
	}
	q.buf, q.head = nb, 0
}

// ringBytes is the memory the ring holds right now.
func (q *byteQueue) ringBytes() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

func (q *byteQueue) addWaiter(ch chan struct{}) {
	q.mu.Lock()
	if q.waiters == nil {
		q.waiters = make(map[chan struct{}]struct{})
	}
	q.waiters[ch] = struct{}{}
	q.mu.Unlock()
}

func (q *byteQueue) removeWaiter(ch chan struct{}) {
	q.mu.Lock()
	delete(q.waiters, ch)
	q.mu.Unlock()
}

func (q *byteQueue) pokeWaitersLocked() {
	for ch := range q.waiters {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

func (q *byteQueue) write(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	total := 0
	for len(p) > 0 {
		for q.n == streamBufCap && !q.closed {
			q.notFull.Wait()
		}
		if q.closed {
			if total > 0 {
				return total, nil
			}
			return 0, api.EPIPE
		}
		n := min(streamBufCap-q.n, len(p))
		if q.n+n > len(q.buf) {
			q.grow(q.n + n)
		}
		wasEmpty := q.n == 0
		tail := q.head + q.n
		if tail >= len(q.buf) {
			tail -= len(q.buf)
		}
		c := copy(q.buf[tail:], p[:n])
		if c < n {
			copy(q.buf, p[c:n]) // wrapped: second segment at the front
		}
		q.n += n
		p = p[n:]
		total += n
		if wasEmpty {
			q.notEmpty.Broadcast()
			q.pokeWaitersLocked()
		}
	}
	return total, nil
}

// errReadGated aborts a ring read whose endpoints are partitioned: the
// reader was already parked inside the data wait when the partition
// installed, and consuming freshly arrived bytes would slip delivery
// through the partition. The caller re-parks on the partition table.
var errReadGated = errors.New("host: stream read gated by partition")

func (q *byteQueue) read(p []byte, pt *partitionTable, from, to int) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	// Re-check the partition gate now that data (or EOF) is here: the
	// entry-time check in Stream.Read cannot cover a reader that was
	// already parked when the partition was installed. A closed queue is
	// exempt — the endpoint died, not the link, and the reader must
	// observe it.
	if !q.closed && pt.any() && pt.Blocked(from, to) {
		return 0, errReadGated
	}
	if q.n == 0 {
		return 0, nil // EOF
	}
	n := q.n
	if n > len(p) {
		n = len(p)
	}
	wasFull := q.n == streamBufCap
	end := q.head + n
	if end <= len(q.buf) {
		copy(p, q.buf[q.head:end])
		q.head = end
	} else {
		c := copy(p, q.buf[q.head:])
		copy(p[c:n], q.buf[:end-len(q.buf)])
		q.head = end - len(q.buf)
	}
	q.n -= n
	if q.n == 0 {
		q.head = 0 // empty: reset for maximally contiguous copies
	}
	if wasFull {
		q.notFull.Broadcast()
		// Wake writability pollers too: a full queue just gained space
		// (this poke was missing before — a WaitAny waiter blocked on
		// writability slept through the drain).
		q.pokeWaitersLocked()
	}
	return n, nil
}

// readClosed reports whether the queue was closed (EOF side); partition
// stalls abort on it so a reader is never stranded behind a dead peer.
func (q *byteQueue) readClosed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// readable reports whether a read would not block (data buffered or EOF).
func (q *byteQueue) readable() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n > 0 || q.closed
}

// writable reports whether a write would not block (free space, or closed
// so the write would fail immediately with EPIPE rather than block).
func (q *byteQueue) writable() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n < streamBufCap || q.closed
}

// close ends the queue: blocked readers see EOF after the buffered bytes,
// writers EPIPE. discard is set by the reading endpoint's own close — no
// one can read the buffered bytes any more, so the ring goes with them.
func (q *byteQueue) close(discard bool) {
	q.mu.Lock()
	q.closed = true
	if discard {
		q.buf, q.head, q.n = nil, 0, 0
	}
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
	q.pokeWaitersLocked()
	q.mu.Unlock()
}

// Stream is one endpoint of a bidirectional byte stream — the host ABI's
// pipe-like primitive over which libOS instances exchange RPCs. Handles to
// other picoprocesses' streams can be passed out-of-band (SendHandle).
type Stream struct {
	// Name is the stream's URI (e.g. "pipe:42") for GetName.
	Name string
	// localPID and remotePID identify the endpoint owners for the
	// reference monitor's sandbox checks and the partition gate; 0 means
	// unowned (pre-accept server handle). With fork-style descriptor
	// inheritance an endpoint can be co-held by several picoprocesses and
	// a checkpoint restore blanket-adopts endpoints the parent keeps, so
	// creation-time labels go stale; ClaimOwner refreshes them on the I/O
	// path — ownership follows the process actually driving the endpoint.
	// Atomic because claims race with the peer's gating reads.
	localPID  atomic.Int64
	remotePID atomic.Int64

	in, out *byteQueue
	peer    *Stream

	// closed mirrors the close decision for the lock-free hot-path check
	// in Read/Write; transitions still happen under mu.
	closed atomic.Bool

	// faultOwner is the picoprocess whose fault plan governs this
	// endpoint: the latest holder to register it that still holds it (nil
	// for unowned and for closed endpoints).
	faultOwner atomic.Pointer[Picoprocess]

	// part is the kernel's partition graph (nil for standalone pairs built
	// outside a kernel). Reads from a partitioned peer stall against it —
	// delivery resumes on heal; nothing tears.
	part *partitionTable

	mu sync.Mutex
	// refs counts holders of this endpoint: inheriting a pipe across fork
	// shares the open description, and the endpoint only really closes
	// when the last holder closes it (POSIX file description semantics,
	// implemented in the libOS layer but refcounted here).
	refs int
	// holders are the picoprocesses whose stream tables list this endpoint.
	// The endpoint's real close takes it out of every one of them, whoever
	// makes that close and through whichever call, so a closed endpoint is
	// reachable only from the variables still naming it.
	holders []*Picoprocess
	// oob carries passed handles (SendHandle/ReceiveHandle ABI).
	oob chan *Handle
	// closedCh is closed exactly once when the endpoint closes. Receivers
	// blocked in ReceiveHandle select on the PEER's closedCh: when every
	// sender is gone no handle can ever arrive, and the blocked receiver
	// must see EPIPE rather than park forever (recvmsg(2) returns 0 when
	// the peer of a connection-mode socket has shut down).
	closedCh chan struct{}
}

// NewStreamPair creates the two connected endpoints of a byte stream.
func NewStreamPair(name string, pidA, pidB int) (*Stream, *Stream) {
	ab := newByteQueue()
	ba := newByteQueue()
	a := &Stream{Name: name, in: ba, out: ab, refs: 1, oob: make(chan *Handle, 64), closedCh: make(chan struct{})}
	b := &Stream{Name: name, in: ab, out: ba, refs: 1, oob: make(chan *Handle, 64), closedCh: make(chan struct{})}
	a.localPID.Store(int64(pidA))
	a.remotePID.Store(int64(pidB))
	b.localPID.Store(int64(pidB))
	b.remotePID.Store(int64(pidA))
	a.peer, b.peer = b, a
	return a, b
}

// LocalPID returns the endpoint's current owner label.
func (s *Stream) LocalPID() int { return int(s.localPID.Load()) }

// RemotePID returns the current owner label of the peer endpoint.
func (s *Stream) RemotePID() int { return int(s.remotePID.Load()) }

// ClaimOwner relabels this endpoint as owned by pid, updating the peer's
// view of its remote. Called from the host ABI's I/O entry points: the
// process performing reads and writes on an endpoint is its owner for
// partition gating and sandbox severing, whatever stale label descriptor
// inheritance left behind.
func (s *Stream) ClaimOwner(pid int) {
	if s == nil || pid <= 0 {
		return
	}
	s.localPID.Store(int64(pid))
	if s.peer != nil {
		s.peer.remotePID.Store(int64(pid))
	}
}

// Ref adds a holder to this endpoint (handle inheritance across fork).
func (s *Stream) Ref() {
	s.mu.Lock()
	s.refs++
	s.mu.Unlock()
}

// Read reads up to len(p) bytes, blocking until data or EOF.
//
// A partition between the endpoint owners stalls the read exactly as if
// the peer had gone silent: bytes already buffered stay buffered, nothing
// tears, and delivery resumes when the partition heals. Writes are not
// gated here — a writer into a partitioned link keeps succeeding until
// the 64 KiB in-flight ring fills, then blocks on backpressure, the same
// profile as a TCP sender whose peer stops draining.
func (s *Stream) Read(p []byte) (int, error) {
	for {
		if s.closed.Load() {
			return 0, api.EBADF
		}
		from, to := s.RemotePID(), s.LocalPID()
		if s.part.any() {
			// Partition gate. When the read actually stalls, record how long
			// (partitions only exist under chaos, so the extra Blocked probe
			// never runs on healthy-path reads).
			stallStart := int64(0)
			if TraceEnabled() && s.part.Blocked(from, to) {
				stallStart = TraceNow()
			}
			s.part.waitUnblocked(from, to, func() bool {
				return s.closed.Load() || s.in.readClosed()
			})
			if stallStart != 0 {
				if owner := s.faultOwner.Load(); owner != nil {
					owner.TraceRecord(TraceEvent{
						TS: stallStart, Kind: EvPartitionStall,
						Arg: uint64(from), Dur: TraceNow() - stallStart,
					})
				}
			}
		}
		n, err := s.in.read(p, s.part, from, to)
		if err != errReadGated {
			if n > 0 && TraceVerboseEnabled() {
				if owner := s.faultOwner.Load(); owner != nil {
					owner.TraceRecord(TraceEvent{TS: TraceNow(), Kind: EvStreamRead, Arg: uint64(n)})
				}
			}
			return n, err
		}
		// A partition was installed while this reader was parked waiting
		// for data: loop back and stall on the partition table until the
		// heal (or the endpoint's death) instead of consuming the bytes.
	}
}

// Write writes all of p, blocking on backpressure. Writing to a stream
// whose peer has closed returns EPIPE.
func (s *Stream) Write(p []byte) (int, error) {
	if s.closed.Load() {
		return 0, api.EBADF
	}
	if owner := s.faultOwner.Load(); owner != nil && owner.HasFaultPlan() {
		switch owner.Fault("stream.write") {
		case FaultReset:
			s.ForceClose()
			return 0, api.ECONNRESET
		case FaultDrop:
			// Swallowed: the writer believes the frame went out.
			return len(p), nil
		case FaultKill:
			// The owner just exited; this endpoint is closing underneath us.
			return 0, api.EPIPE
		}
	}
	if TraceVerboseEnabled() {
		if owner := s.faultOwner.Load(); owner != nil {
			owner.TraceRecord(TraceEvent{TS: TraceNow(), Kind: EvStreamWrite, Arg: uint64(len(p))})
		}
	}
	return s.out.write(p)
}

// Readable reports whether a Read would not block.
func (s *Stream) Readable() bool { return s.in.readable() }

// Writable reports whether a Write would not block.
func (s *Stream) Writable() bool { return s.out.writable() }

// TryAcquire implements Waitable: a stream is "signaled" when a read would
// not block (data buffered or EOF). Acquiring does not consume data.
func (s *Stream) TryAcquire() bool { return s.in.readable() }

// Register implements Waitable.
func (s *Stream) Register(ch chan struct{}) { s.in.addWaiter(ch) }

// Unregister implements Waitable.
func (s *Stream) Unregister(ch chan struct{}) { s.in.removeWaiter(ch) }

// WriteWaitable returns a Waitable signaled when a Write on this stream
// would not block — the POLLOUT side of the poll ABI. It is level-checked
// (TryAcquire does not reserve space) and is woken both when the peer
// drains a full queue and when the stream closes.
func (s *Stream) WriteWaitable() Waitable { return writeReady{s.out} }

// writeReady adapts the outbound queue's writability to Waitable.
type writeReady struct{ q *byteQueue }

// TryAcquire implements Waitable.
func (w writeReady) TryAcquire() bool { return w.q.writable() }

// Register implements Waitable.
func (w writeReady) Register(ch chan struct{}) { w.q.addWaiter(ch) }

// Unregister implements Waitable.
func (w writeReady) Unregister(ch chan struct{}) { w.q.removeWaiter(ch) }

// Close drops one holder's reference; the endpoint really closes (peer
// observes EOF on read, EPIPE on write) when the last holder closes.
// Close after the real close is a no-op.
func (s *Stream) Close() { s.closeRef(false) }

// ForceClose closes the endpoint regardless of reference count — the
// reference monitor's sandbox-split sever path, which must cut streams
// even when multiple picoprocesses hold them.
func (s *Stream) ForceClose() { s.closeRef(true) }

func (s *Stream) closeRef(force bool) {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return
	}
	s.refs--
	if s.refs > 0 && !force {
		s.mu.Unlock()
		return
	}
	s.refs = 0
	s.closed.Store(true)
	holders := s.holders
	s.holders = nil
	s.faultOwner.Store(nil)
	close(s.oob)
	close(s.closedCh)
	s.mu.Unlock()
	for _, p := range holders {
		p.forgetStream(s)
	}
	s.drainOOB()
	s.out.close(false)
	s.in.close(true)
	// Wake readers stalled behind a partition so they observe the close.
	s.part.poke()
}

// addHolder lists the endpoint in p's stream table and makes p its fault
// owner. A closed endpoint is listed nowhere. The table insert happens
// under s.mu so that it is ordered against the real close's sweep.
func (s *Stream) addHolder(p *Picoprocess) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return
	}
	if !slices.Contains(s.holders, p) {
		s.holders = append(s.holders, p)
	}
	s.faultOwner.Store(p)
	p.mu.Lock()
	p.streams[s] = struct{}{}
	p.mu.Unlock()
}

// dropHolder undoes addHolder for one picoprocess that gives the endpoint
// up while others keep it; the fault owner moves to a remaining holder.
func (s *Stream) dropHolder(p *Picoprocess) {
	p.forgetStream(s)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := slices.Index(s.holders, p); i >= 0 {
		s.holders = slices.Delete(s.holders, i, i+1)
	}
	if s.faultOwner.Load() == p {
		var next *Picoprocess
		if n := len(s.holders); n > 0 {
			next = s.holders[n-1]
		}
		s.faultOwner.Store(next)
	}
}

// drainOOB disposes of handles that were passed to this endpoint but never
// received. Each passed stream handle carries a transferred reference
// (SendHandle), so dropping the queue without closing them would leave the
// underlying connections half-open forever — the client behind a passed
// connection would block on read instead of seeing EOF. Linux has the same
// rule for SCM_RIGHTS: descriptors still in flight when the receiving
// socket is closed are themselves closed (unix(7)). Racing receivers are
// fine: channel receive is atomic, so a handle is either drained here or
// delivered there, never both.
func (s *Stream) drainOOB() {
	for h := range s.oob {
		if h != nil && h.Kind == HandleStream && h.Stream != nil {
			h.Stream.Close()
		}
	}
}

// Closed reports whether this endpoint has been closed locally.
func (s *Stream) Closed() bool { return s.closed.Load() }

// PeerClosed reports whether the peer endpoint is gone. An endpoint whose
// peer is closed no longer bridges two processes: whatever sits in its
// queue was written before the peer went away, like pipe data surviving a
// dead writer. The sandbox-split sever path leaves such endpoints alone.
func (s *Stream) PeerClosed() bool { return s.peer == nil || s.peer.closed.Load() }

// SendHandle passes a host handle out-of-band to the peer endpoint,
// implementing the PAL's handle-inheritance ABI. A passed stream handle
// carries its own reference: the receiver owns it even if the sender
// closes its descriptor immediately after sending.
func (s *Stream) SendHandle(h *Handle) error {
	if s.closed.Load() {
		return api.EBADF
	}
	// "stream.sendhandle" is the dispatch-path fault point: chaos plans
	// target the Nth handle pass to kill or sever a prefork master's
	// dispatch mid-flight (the conn-pass analogue of "stream.write").
	if owner := s.faultOwner.Load(); owner != nil && owner.HasFaultPlan() {
		switch owner.Fault("stream.sendhandle") {
		case FaultReset:
			s.ForceClose()
			return api.ECONNRESET
		case FaultDrop:
			// Swallowed in flight: the sender believes the pass went out.
			// The handle's transferred reference was never taken, so the
			// connection itself stays with the sender.
			return nil
		case FaultKill:
			// The owner just exited; this endpoint is closing underneath us.
			return api.EPIPE
		}
	}
	peer := s.peer
	peer.mu.Lock()
	defer peer.mu.Unlock()
	if peer.closed.Load() {
		return api.EPIPE
	}
	if h != nil && h.Kind == HandleStream && h.Stream != nil {
		h.Stream.Ref()
	}
	select {
	case peer.oob <- h:
		return nil
	default:
		if h != nil && h.Kind == HandleStream && h.Stream != nil {
			h.Stream.Close() // drop the transferred reference
		}
		return api.EAGAIN
	}
}

// ReceiveHandle receives a handle passed by the peer, blocking until one
// arrives, this endpoint closes, or the peer endpoint closes. The last
// case is the preforked-worker idle path: when every holder of the send
// side is gone, no handle can ever arrive, and blocking forever would
// wedge the worker — EPIPE instead, matching recvmsg(2)'s end-of-stream
// report for a connection-mode peer that shut down.
func (s *Stream) ReceiveHandle() (*Handle, error) {
	var peerClosed <-chan struct{}
	if s.peer != nil {
		peerClosed = s.peer.closedCh
	}
	select {
	case h, ok := <-s.oob:
		if !ok || h == nil {
			return nil, api.EPIPE
		}
		return h, nil
	case <-peerClosed:
		// Handles queued before the sender died are still deliverable —
		// EOF comes after buffered data, as with pipes (pipe(7)).
		select {
		case h, ok := <-s.oob:
			if ok && h != nil {
				return h, nil
			}
		default:
		}
		return nil, api.EPIPE
	}
}

// TryReceiveHandle is the non-blocking variant.
func (s *Stream) TryReceiveHandle() (*Handle, bool) {
	select {
	case h := <-s.oob:
		return h, h != nil
	default:
		return nil, false
	}
}

// HandleKind discriminates what a host handle refers to.
type HandleKind int

// Handle kinds.
const (
	HandleStream HandleKind = iota
	HandleListener
	HandleFile
	HandleEvent
	HandleMutex
	HandleSemaphore
	HandleBroadcast
	HandleIPCStore
)

// Handle is an opaque host handle as returned by the PAL to the libOS.
type Handle struct {
	Kind HandleKind
	// Exactly one of the following is set, per Kind.
	Stream    *Stream
	Listener  *Listener
	File      *OpenFile
	Event     *Event
	Mutex     *Mutex
	Semaphore *Semaphore
	Broadcast *BroadcastSub
	Store     *IPCStore
}

// Listener is a named stream server ("pipe.srv:name"): picoprocesses
// connect by URI and the owner accepts connections.
//
// A listener may be co-held by several picoprocesses at once: handle
// passing (SCM_RIGHTS-style) hands a second process a descriptor to the
// same listening socket, exactly as a passed listen fd behaves on Linux
// (unix(7): the descriptor refers to the same open file description).
// The listener is torn down only when the last holder releases it, which
// is what lets a hot-standby master adopt a primary's listen socket and
// keep accepting after the primary dies.
type Listener struct {
	Name     string
	OwnerPID int // primary holder; guarded by mu, read via Owner()

	mu      sync.Mutex
	holders map[int]struct{}
	backlog chan *Stream
	closed  bool
}

func newListener(name string, owner int) *Listener {
	return &Listener{
		Name:     name,
		OwnerPID: owner,
		holders:  map[int]struct{}{owner: {}},
		backlog:  make(chan *Stream, 128),
	}
}

// NewListener constructs a standalone listener outside the kernel's stream
// registry. The baseline personalities keep their own address maps but
// reuse this type so listener handle passing has one semantics everywhere.
func NewListener(name string, owner int) *Listener {
	return newListener(name, owner)
}

// Owner returns the current primary holder's PID.
func (l *Listener) Owner() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.OwnerPID
}

// addHolder records pid as a co-holder of the listening socket.
func (l *Listener) addHolder(pid int) {
	l.mu.Lock()
	if l.holders == nil {
		l.holders = make(map[int]struct{})
	}
	l.holders[pid] = struct{}{}
	l.mu.Unlock()
}

// dropHolder releases pid's hold. If pid was the primary and other holders
// remain, the lowest surviving PID is promoted so connect-time policy
// checks and stream owner labels track a live process. Returns true when
// no holders remain and the listener should be torn down.
func (l *Listener) dropHolder(pid int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.holders, pid)
	if len(l.holders) == 0 {
		return true
	}
	if l.OwnerPID == pid {
		next := -1
		for h := range l.holders {
			if next < 0 || h < next {
				next = h
			}
		}
		l.OwnerPID = next
	}
	return false
}

// Holders returns the number of picoprocesses currently holding the
// listening socket (diagnostics and tests).
func (l *Listener) Holders() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.holders)
}

// Accept blocks for the next incoming connection.
func (l *Listener) Accept() (*Stream, error) {
	s, ok := <-l.backlog
	if !ok {
		return nil, api.EBADF
	}
	return s, nil
}

// Close shuts the listener; pending Accepts fail, and connections already
// delivered to the backlog but never accepted are closed so their dialers
// observe EOF rather than waiting forever on a half-open stream.
func (l *Listener) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	close(l.backlog)
	l.mu.Unlock()
	for s := range l.backlog {
		s.ForceClose()
	}
}

// Deliver queues an incoming connection on the backlog (exported for the
// baseline personalities' connect paths, which resolve addresses in their
// own kernel maps before handing the server endpoint to the listener).
func (l *Listener) Deliver(s *Stream) error { return l.deliver(s) }

func (l *Listener) deliver(s *Stream) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return api.ECONNREFUSED
	}
	select {
	case l.backlog <- s:
		return nil
	default:
		return api.EAGAIN
	}
}

// streamRegistry resolves stream URIs to listeners.
type streamRegistry struct {
	mu        sync.Mutex
	listeners map[string]*Listener
	nextAnon  int
	// part is the owning kernel's partition graph, attached to every
	// stream pair minted through connect so partitions gate named streams.
	part *partitionTable
}

func newStreamRegistry() *streamRegistry {
	return &streamRegistry{listeners: make(map[string]*Listener)}
}

func (r *streamRegistry) listen(name string, owner int) (*Listener, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.listeners[name]; ok {
		return nil, api.EADDRINUSE
	}
	l := newListener(name, owner)
	r.listeners[name] = l
	return l, nil
}

func (r *streamRegistry) connect(name string, clientPID int) (*Stream, error) {
	r.mu.Lock()
	l, ok := r.listeners[name]
	r.mu.Unlock()
	if !ok {
		return nil, api.ECONNREFUSED
	}
	client, server := NewStreamPair(name, clientPID, l.Owner())
	client.part, server.part = r.part, r.part
	if err := l.deliver(server); err != nil {
		client.Close()
		server.Close()
		return nil, err
	}
	return client, nil
}

func (r *streamRegistry) remove(name string) {
	r.mu.Lock()
	delete(r.listeners, name)
	r.mu.Unlock()
}
