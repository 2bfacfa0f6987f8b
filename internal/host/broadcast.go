package host

import (
	"sync"

	"graphene/internal/api"
)

// BroadcastChannel is the per-sandbox message-granularity stream used for
// global coordination (leader discovery, namespace queries). Unlike byte
// streams it delivers whole messages, so concurrent writers need no framing
// (§4.1 of the paper).
type BroadcastChannel struct {
	mu     sync.Mutex
	subs   map[int]*BroadcastSub // keyed by subscriber PID
	closed bool
}

// NewBroadcastChannel creates an empty broadcast channel.
func NewBroadcastChannel() *BroadcastChannel {
	return &BroadcastChannel{subs: make(map[int]*BroadcastSub)}
}

// BroadcastSub is one picoprocess's subscription endpoint.
type BroadcastSub struct {
	PID  int
	ch   chan BroadcastMsg
	bc   *BroadcastChannel
	mu   sync.Mutex
	dead bool
	// backlog holds, in order, what arrived while ch was full, and pumping
	// says a goroutine is moving it into ch; gone closes on Unsubscribe to
	// stop that goroutine, which then closes ch itself.
	backlog []BroadcastMsg
	pumping bool
	gone    chan struct{}
}

// BroadcastMsg is one message on the broadcast channel.
type BroadcastMsg struct {
	FromPID int
	Data    []byte
}

// Subscribe attaches pid to the channel and returns its endpoint.
func (b *BroadcastChannel) Subscribe(pid int) (*BroadcastSub, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, api.EBADF
	}
	if _, ok := b.subs[pid]; ok {
		return nil, api.EEXIST
	}
	s := &BroadcastSub{PID: pid, ch: make(chan BroadcastMsg, 256), bc: b}
	b.subs[pid] = s
	return s, nil
}

// Send delivers data to every subscriber except the sender. Delivery is
// reliable and in one order: every subscriber gets the messages it gets in
// the order Send took b.mu, and a subscriber that falls behind queues them
// rather than losing one — the coordination protocol has no retry to make
// a lost election or announcement good.
func (b *BroadcastChannel) Send(fromPID int, data []byte) error {
	return b.send(fromPID, data, false)
}

// SendAll delivers data like Send and to the sender too, which reads its
// own message back at its place in the order every subscriber sees: what
// it read before that is exactly what came first.
func (b *BroadcastChannel) SendAll(fromPID int, data []byte) error {
	return b.send(fromPID, data, true)
}

func (b *BroadcastChannel) send(fromPID int, data []byte, self bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return api.EPIPE
	}
	msg := BroadcastMsg{FromPID: fromPID, Data: append([]byte(nil), data...)}
	for pid, s := range b.subs {
		if pid == fromPID && !self {
			continue
		}
		s.deliver(msg)
	}
	return nil
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

// Unsubscribe detaches pid (process exit or sandbox split).
func (b *BroadcastChannel) Unsubscribe(pid int) {
	b.mu.Lock()
	s := b.subs[pid]
	delete(b.subs, pid)
	b.mu.Unlock()
	if s != nil {
		s.mu.Lock()
		if !s.dead {
			s.dead = true
			if s.pumping {
				close(s.gone) // the pump closes ch on its way out
			} else {
				close(s.ch)
			}
		}
		s.mu.Unlock()
	}
}

// deliver queues m for the subscriber: straight into ch when it has room
// and nothing is waiting ahead of m, else onto the backlog, which a pump
// goroutine, started on the first overflow, moves into ch in order.
func (s *BroadcastSub) deliver(m BroadcastMsg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return
	}
	if !s.pumping {
		select {
		case s.ch <- m:
			return
		default:
		}
		s.pumping = true
		s.gone = make(chan struct{})
		go s.pump()
	}
	s.backlog = append(s.backlog, m)
}

// pump feeds the backlog into ch until it is empty or the subscription
// ends. Only the pump sends on ch while pumping is set, so the close after
// Unsubscribe cannot race a send.
func (s *BroadcastSub) pump() {
	for {
		s.mu.Lock()
		if s.dead || len(s.backlog) == 0 {
			s.pumping = false
			s.backlog = nil
			if s.dead {
				close(s.ch)
			}
			s.mu.Unlock()
			return
		}
		m := s.backlog[0]
		s.mu.Unlock()
		select {
		case s.ch <- m:
			s.mu.Lock()
			s.backlog[0] = BroadcastMsg{}
			s.backlog = s.backlog[1:]
			s.mu.Unlock()
		case <-s.gone:
		}
	}
}

// Recv blocks for the next broadcast message; ok is false after detach.
func (s *BroadcastSub) Recv() (BroadcastMsg, bool) {
	m, ok := <-s.ch
	return m, ok
}

// Chan exposes the receive channel for select-based helpers.
func (s *BroadcastSub) Chan() <-chan BroadcastMsg { return s.ch }
