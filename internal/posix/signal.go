package posix

import (
	"sync"

	"graphene/internal/api"
)

// Action is what delivering a signal does to a process (signal(7)).
type Action int

const (
	// Pend queues the signal for its handler and interrupts sleepers.
	Pend Action = iota
	// Ignore drops it: its disposition is SIG_IGN, or the process is
	// already exiting.
	Ignore
	// DefaultIgnore drops it: its default action is to ignore (SIGCHLD,
	// SIGCONT; SIGSTOP too, as stopping is not modelled).
	DefaultIgnore
	// Fatal terminates the process and interrupts sleepers. The caller
	// carries out the exit.
	Fatal
)

// handled is the disposition of a signal with a handler installed.
const handled = "handler"

// Signals is one process's signal state: dispositions, handlers, the queue
// of caught signals not yet run, and the interrupt channel. The zero value
// has every signal at its default.
type Signals struct {
	mu       sync.Mutex
	disp     [api.NumSignals]string
	handlers [api.NumSignals]api.SigHandler
	pending  []api.Signal
	// killed latches the first fatal delivery; exited is set once the
	// process has exited. Either way later signals are ignored.
	killed, exited bool
	// intr is closed by the next caught or fatal delivery; nil until a
	// sleeper asks for it.
	intr chan struct{}
}

// Valid reports whether sig is a signal number.
func Valid(sig api.Signal) bool { return sig > 0 && sig < api.NumSignals }

// Sigaction installs handler, or the disposition SigIgn or SigDfl, for sig
// (sigaction(2)): EINVAL for an invalid signal, for SIGKILL and SIGSTOP,
// which cannot be caught or ignored, and for an unknown disposition.
func (s *Signals) Sigaction(sig api.Signal, handler api.SigHandler, disposition string) error {
	if !Valid(sig) || sig == api.SIGKILL || sig == api.SIGSTOP {
		return api.EINVAL
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case disposition == api.SigIgn:
		s.disp[sig], s.handlers[sig] = api.SigIgn, nil
	case disposition != api.SigDfl && disposition != "":
		return api.EINVAL
	case handler != nil:
		s.disp[sig], s.handlers[sig] = handled, handler
	default:
		s.disp[sig], s.handlers[sig] = "", nil
	}
	return nil
}

// Deliver decides what sig does to the process and records it. A caught
// signal is queued for Drain; a caught or fatal one closes the interrupt
// channel. Fatal is returned at most once, and the caller then terminates
// the process.
func (s *Signals) Deliver(sig api.Signal) Action {
	if !Valid(sig) {
		return Ignore
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed || s.exited {
		return Ignore
	}
	if sig != api.SIGKILL {
		switch s.disp[sig] {
		case handled:
			s.pending = append(s.pending, sig)
			s.interruptLocked()
			return Pend
		case api.SigIgn:
			return Ignore
		}
		if sig == api.SIGCHLD || sig == api.SIGCONT || sig == api.SIGSTOP {
			return DefaultIgnore
		}
	}
	s.killed = true
	s.interruptLocked()
	return Fatal
}

func (s *Signals) interruptLocked() {
	if s.intr != nil {
		close(s.intr)
		s.intr = nil
	}
}

// Interrupt returns the channel the next caught or fatal signal closes. A
// blocking call takes it before it sleeps, so a delivery after that wakes it
// with EINTR (signal(7)); one taken after a drained signal is never already
// closed.
func (s *Signals) Interrupt() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.intr == nil {
		s.intr = make(chan struct{})
	}
	return s.intr
}

// Drain runs the handlers of queued signals in order, as Linux does on
// return from a system call. It reports true, running nothing, when a signal
// killed the process and the process has exited: the calling thread must
// unwind.
func (s *Signals) Drain() (unwind bool) {
	for {
		s.mu.Lock()
		if s.killed && s.exited {
			s.mu.Unlock()
			return true
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return false
		}
		sig := s.pending[0]
		s.pending = s.pending[1:]
		h := s.handlers[sig]
		s.mu.Unlock()
		if h != nil {
			h(sig)
		}
	}
}

// Exited records that the process has exited: signals are ignored from now
// on, and the threads of a process a signal killed unwind.
func (s *Signals) Exited() {
	s.mu.Lock()
	s.exited = true
	s.mu.Unlock()
}

// Killed reports whether a signal killed the process and it has exited.
func (s *Signals) Killed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.killed && s.exited
}

// ResetForExec restores every default disposition and drops queued signals
// (execve(2)).
func (s *Signals) ResetForExec() {
	s.mu.Lock()
	s.disp, s.handlers, s.pending = [api.NumSignals]string{}, [api.NumSignals]api.SigHandler{}, nil
	s.mu.Unlock()
}

// Dispositions snapshots every signal not at its default, for a checkpoint.
func (s *Signals) Dispositions() map[api.Signal]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[api.Signal]string)
	for sig, d := range s.disp {
		if d != "" {
			out[api.Signal(sig)] = d
		}
	}
	return out
}

// RestoreDispositions applies a checkpoint's dispositions. Only ignore is
// restored: handlers are code, which travels with the forked child's entry.
func (s *Signals) RestoreDispositions(d map[api.Signal]string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for sig, disp := range d {
		if Valid(sig) && disp == api.SigIgn {
			s.disp[sig] = api.SigIgn
		}
	}
}
