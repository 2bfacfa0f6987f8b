package host

import (
	"sync"

	"graphene/internal/api"
)

// BroadcastChannel is the per-sandbox message-granularity stream used for
// global coordination (leader discovery, namespace queries). Unlike byte
// streams it delivers whole messages, so concurrent writers need no framing
// (§4.1 of the paper).
//
// It is one append-only log in send order, read by every subscriber
// through its own cursor. An entry stays until the last subscriber it was
// sent to has read it, so the log holds unread messages only and a
// subscriber costs its cursor, not a queue.
type BroadcastChannel struct {
	mu   sync.Mutex
	more sync.Cond             // on mu; wakes readers on a send or a detach
	subs map[int]*BroadcastSub // keyed by subscriber PID
	log  []broadcastEntry
	base int // sequence number of log[0]
}

// broadcastEntry is one sent message and how many of the subscribers it
// was sent to have not read it yet.
type broadcastEntry struct {
	msg    BroadcastMsg
	self   bool // SendAll: the sender reads it back
	unread int
}

// NewBroadcastChannel creates an empty broadcast channel.
func NewBroadcastChannel() *BroadcastChannel {
	b := &BroadcastChannel{subs: make(map[int]*BroadcastSub)}
	b.more.L = &b.mu
	return b
}

// BroadcastSub is one picoprocess's subscription endpoint: a cursor into
// the channel's log, guarded by the channel's mu.
type BroadcastSub struct {
	PID  int
	bc   *BroadcastChannel
	next int // sequence number of the next entry to read
}

// BroadcastMsg is one message on the broadcast channel.
type BroadcastMsg struct {
	FromPID int
	Data    []byte
}

// Subscribe attaches pid to the channel and returns its endpoint, which
// reads what is sent from now on.
func (b *BroadcastChannel) Subscribe(pid int) (*BroadcastSub, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[pid]; ok {
		return nil, api.EEXIST
	}
	s := &BroadcastSub{PID: pid, bc: b, next: b.base + len(b.log)}
	b.subs[pid] = s
	return s, nil
}

// Send delivers data to every subscriber except the sender. Delivery is
// reliable and in one order: every subscriber gets the messages it gets in
// the order Send took b.mu, and a subscriber that falls behind finds them
// still in the log rather than losing one — the coordination protocol has
// no retry to make a lost election or announcement good.
func (b *BroadcastChannel) Send(fromPID int, data []byte) error {
	b.send(fromPID, data, false)
	return nil
}

// SendAll delivers data like Send and to the sender too, which reads its
// own message back at its place in the order every subscriber sees: what
// it read before that is exactly what came first.
func (b *BroadcastChannel) SendAll(fromPID int, data []byte) error {
	b.send(fromPID, data, true)
	return nil
}

func (b *BroadcastChannel) send(fromPID int, data []byte, self bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	unread := len(b.subs)
	if _, ok := b.subs[fromPID]; ok && !self {
		unread--
	}
	if unread == 0 && len(b.log) == 0 {
		return // nobody to read it: the entry would be dropped at once
	}
	msg := BroadcastMsg{FromPID: fromPID, Data: append([]byte(nil), data...)}
	b.log = append(b.log, broadcastEntry{msg: msg, self: self, unread: unread})
	b.more.Broadcast()
}

// Members returns the subscribed PIDs.
func (b *BroadcastChannel) Members() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]int, 0, len(b.subs))
	for pid := range b.subs {
		out = append(out, pid)
	}
	return out
}

// Unsubscribe detaches pid (process exit or sandbox split). What it had
// not read yet counts as read, and its Recv returns ok=false.
func (b *BroadcastChannel) Unsubscribe(pid int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.subs[pid]
	if s == nil {
		return
	}
	delete(b.subs, pid)
	for e := s.nextLocked(); e != nil; e = s.nextLocked() {
		e.unread--
	}
	b.trimLocked()
	b.more.Broadcast()
}

// trimLocked drops the log's leading entries that every subscriber they
// were sent to has read.
func (b *BroadcastChannel) trimLocked() {
	n := 0
	for n < len(b.log) && b.log[n].unread == 0 {
		n++
	}
	clear(b.log[:n])
	b.log = b.log[n:]
	b.base += n
	if len(b.log) == 0 {
		b.log = nil
	}
}

// nextLocked moves s's cursor past the next entry sent to s and returns
// it, or nil at the log's end. Everything at or past the cursor was sent to
// s except its own Sends, which it skips; a cursor behind the log's start
// passed only those, since an entry sent to s stays until s reads it.
func (s *BroadcastSub) nextLocked() *broadcastEntry {
	b := s.bc
	for s.next = max(s.next, b.base); s.next < b.base+len(b.log); {
		e := &b.log[s.next-b.base]
		s.next++
		if e.self || e.msg.FromPID != s.PID {
			return e
		}
	}
	return nil
}

// Recv blocks for the next broadcast message; ok is false after detach.
func (s *BroadcastSub) Recv() (BroadcastMsg, bool) {
	b := s.bc
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.subs[s.PID] == s {
		if e := s.nextLocked(); e != nil {
			m := e.msg
			e.unread--
			b.trimLocked()
			return m, true
		}
		b.more.Wait()
	}
	return BroadcastMsg{}, false
}
