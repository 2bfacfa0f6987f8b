package ipc

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
)

var errClosed = api.EPIPE

// readBufCap matches the host stream's 64 KiB queue so one fill can drain
// everything the peer has written.
const readBufCap = 64 * 1024

// readBufPool recycles frameReader fill buffers across connections.
var readBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, readBufCap)
		return &b
	},
}

// frameReader drains a host stream into a pooled buffer and decodes frames
// in place. One Stream.Read — a single queue-lock acquisition — can fetch
// a whole burst of pipelined frames, where the old io.ReadFull decoder
// paid two locked reads and a body allocation per frame.
type frameReader struct {
	s   *host.Stream
	buf []byte
	r   int // next undecoded byte
	w   int // end of valid data
	// from memoizes the sender address, which repeats frame after frame,
	// so decoding it does not allocate in steady state.
	from interner
}

func newFrameReader(s *host.Stream) *frameReader {
	return &frameReader{s: s, buf: *(readBufPool.Get().(*[]byte))}
}

// release returns the fill buffer to the pool. The reader must not be used
// afterwards.
func (fr *frameReader) release() {
	if cap(fr.buf) == readBufCap {
		buf := fr.buf[:readBufCap]
		readBufPool.Put(&buf)
	}
	fr.buf = nil
}

// next decodes the next frame, filling from the stream as needed.
func (fr *frameReader) next() (Frame, error) {
	for {
		if fr.w-fr.r >= 4 {
			n := int(binary.LittleEndian.Uint32(fr.buf[fr.r:]))
			if n < minFrameBody || n > maxFrameSize {
				return Frame{}, fmt.Errorf("ipc: bad frame length %d", n)
			}
			if fr.w-fr.r >= 4+n {
				body := fr.buf[fr.r+4 : fr.r+4+n]
				fr.r += 4 + n
				if fr.r == fr.w {
					fr.r, fr.w = 0, 0
				}
				return decodeFrameBody(body, &fr.from)
			}
			fr.reserve(4 + n)
		}
		if err := fr.fill(); err != nil {
			return Frame{}, err
		}
	}
}

// reserve makes room for a frame of total wire size need starting at fr.r,
// compacting (and, for frames larger than the pooled buffer, growing).
func (fr *frameReader) reserve(need int) {
	if len(fr.buf)-fr.r >= need {
		return
	}
	if need <= len(fr.buf) {
		copy(fr.buf, fr.buf[fr.r:fr.w])
	} else {
		nb := make([]byte, need)
		copy(nb, fr.buf[fr.r:fr.w])
		fr.buf = nb
	}
	fr.w -= fr.r
	fr.r = 0
}

// fill appends whatever the stream has buffered (blocking if nothing is).
func (fr *frameReader) fill() error {
	if fr.w == len(fr.buf) {
		fr.reserve(len(fr.buf) - fr.r + 1)
	}
	n, err := fr.s.Read(fr.buf[fr.w:])
	if err != nil {
		return err
	}
	if n == 0 {
		return errClosed
	}
	fr.w += n
	return nil
}

// Handler services an incoming request frame. respond may be called
// immediately or deferred to another goroutine (e.g. a blocking semaphore
// acquire completes when a release arrives), but must be called exactly
// once. Handlers must service requests from local state only and must not
// issue recursive RPCs (§4.1's deadlock-avoidance rule).
type Handler func(f Frame, respond func(Frame))

// Conn is one point-to-point coordination stream between two IPC helpers,
// multiplexing concurrent requests by sequence number.
//
// Writes are flush-combined: the first sender in a window flushes
// immediately (a lone RPC round-trip is never delayed), while frames
// queued by other goroutines during an in-flight stream write ride out
// together in the next single write. A frame accepted into the combine
// queue reports success optimistically; a later write failure is sticky
// and tears the connection down, failing pending calls with EPIPE.
type Conn struct {
	// RemoteAddr is the peer helper's address, learned from its frames.
	// Guarded by mu after construction (the read loop updates it while
	// teardown paths read it); use remote()/setRemote.
	RemoteAddr string

	stream    *host.Stream
	localAddr string
	handler   Handler

	seq atomic.Uint64

	wmu     sync.Mutex
	wflush  *sync.Cond
	wbuf    []byte // frames queued for the next stream write
	wspare  []byte // double buffer recycled between flushes
	writing bool   // a goroutine is flushing wbuf
	werr    error  // sticky write error

	mu      sync.Mutex
	pending map[uint64]chan Frame
	closed  bool
	onClose func(*Conn)
}

// NewConn wraps stream and starts its reader. handler services incoming
// requests; onClose (may be nil) runs when the stream dies.
func NewConn(stream *host.Stream, localAddr string, handler Handler, onClose func(*Conn)) *Conn {
	c := &Conn{
		stream:    stream,
		localAddr: localAddr,
		handler:   handler,
		pending:   make(map[uint64]chan Frame),
		onClose:   onClose,
	}
	c.wflush = sync.NewCond(&c.wmu)
	go c.readLoop()
	return c
}

func (c *Conn) readLoop() {
	rd := newFrameReader(c.stream)
	defer rd.release()
	// lastFrom mirrors RemoteAddr so the steady state skips the lock.
	var lastFrom string
	for {
		f, err := rd.next()
		if err != nil {
			c.teardown()
			return
		}
		if f.From != "" && f.From != lastFrom {
			lastFrom = f.From
			c.setRemote(f.From)
		}
		if f.IsResponse() {
			c.mu.Lock()
			ch := c.pending[f.Seq]
			delete(c.pending, f.Seq)
			c.mu.Unlock()
			if ch != nil {
				ch <- f
			}
			continue
		}
		r := responderPool.Get().(*responder)
		r.c, r.typ, r.seq = c, f.Type, f.Seq
		c.handler(f, r.fn)
	}
}

// responder is a reusable respond callback for request frames. Building the
// closure once per pooled object instead of once per frame keeps the request
// dispatch path allocation-free; the Handler contract (respond called exactly
// once) makes recycling after the call safe.
type responder struct {
	c   *Conn
	typ MsgType
	seq uint64
	fn  func(Frame)
}

var responderPool sync.Pool

func init() {
	responderPool.New = func() any {
		r := &responder{}
		r.fn = func(resp Frame) {
			c, typ, seq := r.c, r.typ, r.seq
			r.c = nil
			responderPool.Put(r)
			resp.Type = typ
			resp.Seq = seq
			resp.isResponse = true
			_ = c.send(&resp)
		}
		return r
	}
}

// teardown ends the connection, from Close or from the read loop when the
// peer hangs up: a dead conn keeps no open stream (the stream's close is
// what takes it out of the picoprocess's table), fails pending calls with
// EPIPE, and tells the owner.
func (c *Conn) teardown() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	pend := c.pending
	c.pending = make(map[uint64]chan Frame)
	c.mu.Unlock()
	c.stream.Close()
	for _, ch := range pend {
		ch <- Frame{Err: api.EPIPE, isResponse: true}
	}
	if c.onClose != nil {
		c.onClose(c)
	}
}

// send queues f and flushes unless a flush is already in flight, in which
// case the active flusher picks f up in its next combined write.
func (c *Conn) send(f *Frame) error {
	if f.From == "" {
		f.From = c.localAddr
	}
	c.wmu.Lock()
	if c.werr != nil {
		err := c.werr
		c.wmu.Unlock()
		return err
	}
	c.wbuf = AppendFrame(c.wbuf, f)
	if c.writing {
		c.wmu.Unlock()
		return nil
	}
	c.writing = true
	return c.flushLocked()
}

// flushLocked writes queued frames until the queue drains, dropping the
// lock around each stream write so concurrent senders can queue behind it.
// Called with wmu held and c.writing set; returns with wmu released.
func (c *Conn) flushLocked() error {
	for c.werr == nil && len(c.wbuf) > 0 {
		buf := c.wbuf
		if c.wspare != nil {
			c.wbuf = c.wspare[:0]
			c.wspare = nil
		} else {
			c.wbuf = nil
		}
		c.wmu.Unlock()
		_, err := c.stream.Write(buf)
		c.wmu.Lock()
		c.wspare = buf[:0]
		if err == api.EBADF {
			// teardown closed the stream under this flush — the peer hung
			// up, or Close was called: to a sender the connection is gone
			// either way, and EPIPE is what its retry paths key on.
			err = errClosed
		}
		if err != nil {
			c.werr = err
		}
	}
	c.writing = false
	err := c.werr
	c.wflush.Broadcast()
	c.wmu.Unlock()
	return err
}

// Flush blocks until every frame queued before the call has been handed to
// the stream, returning the sticky write error if the connection failed.
// Sends flush themselves eagerly, so Flush is only needed when the caller
// must order a coalesced notification against an external effect.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for c.writing {
		c.wflush.Wait()
	}
	return c.werr
}

// respChPool recycles Call response channels. A channel is returned to
// the pool only once its single response has been consumed, so a pooled
// channel is always empty.
var respChPool = sync.Pool{New: func() any { return make(chan Frame, 1) }}

// Call sends a request and blocks for its response.
func (c *Conn) Call(f Frame) (Frame, error) {
	f.Seq = c.seq.Add(1)
	ch := respChPool.Get().(chan Frame)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		respChPool.Put(ch)
		return Frame{}, api.EPIPE
	}
	c.pending[f.Seq] = ch
	c.mu.Unlock()
	if err := c.send(&f); err != nil {
		c.mu.Lock()
		_, stillPending := c.pending[f.Seq]
		delete(c.pending, f.Seq)
		c.mu.Unlock()
		// If the entry was already claimed by the reader or teardown, a
		// response send is in flight: the channel cannot be reused (do not
		// pool it — dropping it is safe, the send has buffer space).
		if stillPending {
			respChPool.Put(ch)
		}
		return Frame{}, err
	}
	resp := <-ch
	respChPool.Put(ch)
	if resp.Err != 0 {
		return resp, resp.Err
	}
	return resp, nil
}

// CallTimeout is Call with an absolute deadline: if no response arrives
// within d, the pending entry is abandoned and ETIMEDOUT returned. The
// send itself is not gated — a partitioned peer stalls the *receive* side
// (host partition semantics), so the inline send completes and the timer
// covers the full round trip. A response that races the timeout is
// discarded by the reader (the pending entry is gone by then).
func (c *Conn) CallTimeout(f Frame, d time.Duration) (Frame, error) {
	if d <= 0 {
		return c.Call(f)
	}
	f.Seq = c.seq.Add(1)
	ch := respChPool.Get().(chan Frame)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		respChPool.Put(ch)
		return Frame{}, api.EPIPE
	}
	c.pending[f.Seq] = ch
	c.mu.Unlock()
	if err := c.send(&f); err != nil {
		c.mu.Lock()
		_, stillPending := c.pending[f.Seq]
		delete(c.pending, f.Seq)
		c.mu.Unlock()
		if stillPending {
			respChPool.Put(ch)
		}
		return Frame{}, err
	}
	t := time.NewTimer(d)
	select {
	case resp := <-ch:
		t.Stop()
		respChPool.Put(ch)
		if resp.Err != 0 {
			return resp, resp.Err
		}
		return resp, nil
	case <-t.C:
	}
	// Timed out. Reclaim the pending entry; if the reader or teardown
	// already claimed it, a response send is in flight — consume it so the
	// channel is empty before pooling (send has buffer space, so the racing
	// sender never blocks either way).
	c.mu.Lock()
	_, stillPending := c.pending[f.Seq]
	delete(c.pending, f.Seq)
	c.mu.Unlock()
	if !stillPending {
		<-ch
	}
	respChPool.Put(ch)
	return Frame{}, api.ETIMEDOUT
}

// Notify sends a request without expecting a response — the asynchronous
// send optimization of §4.3.
func (c *Conn) Notify(f Frame) error {
	f.Seq = c.seq.Add(1)
	return c.send(&f)
}

// Close shuts the connection down.
func (c *Conn) Close() { c.teardown() }

// Alive reports whether the connection is usable.
func (c *Conn) Alive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.closed
}

// remote returns the peer address learned so far ("" if the peer has not
// identified itself yet).
func (c *Conn) remote() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.RemoteAddr
}

func (c *Conn) setRemote(addr string) {
	c.mu.Lock()
	c.RemoteAddr = addr
	c.mu.Unlock()
}
