package host

import (
	"sync"
	"sync/atomic"

	"graphene/internal/api"
)

// Picoprocess is the host's unit of isolation: an address space, a handle
// table, a syscall filter, and a sandbox membership. Guest threads are
// goroutines attached to the picoprocess.
type Picoprocess struct {
	ID        int
	ParentID  int
	SandboxID int

	AS *AddressSpace

	kernel *Kernel

	// filter is the seccomp-style syscall filter installed at launch. It is
	// immutable once set and inherited by children, as in the paper.
	filter SyscallFilter

	mu        sync.Mutex
	streams   map[*Stream]struct{}
	listeners map[*Listener]struct{}
	exited    *Event
	exitCode  int
	threads   sync.WaitGroup
	nextTID   int

	// dead is checked lock-free on the syscall gate's hot path; mu still
	// serializes the transition in Exit.
	dead atomic.Bool

	// faults is the installed fault-injection plan (nil almost always).
	faults atomic.Pointer[FaultPlan]

	// rec is the flight recorder (nil when the sandbox disabled tracing and
	// after exit, when the kernel's retired list owns it); traceRing
	// remembers the configured capacity so children inherit it.
	rec       atomic.Pointer[FlightRecorder]
	traceRing atomic.Int64
}

// SyscallAction is a filter verdict.
type SyscallAction int

// Filter verdicts, mirroring seccomp-BPF return values.
const (
	ActionAllow SyscallAction = iota
	// ActionTrap delivers SIGSYS, which the PAL redirects to libLinux.
	ActionTrap
	// ActionDeny fails the call with EPERM.
	ActionDeny
)

// SyscallFilter is the host's view of a seccomp filter program.
type SyscallFilter interface {
	Evaluate(nr int, fromPAL bool) SyscallAction
}

// SetFilter installs the syscall filter. A second call fails: seccomp
// filters are immutable once installed.
func (p *Picoprocess) SetFilter(f SyscallFilter) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.filter != nil {
		return api.EPERM
	}
	p.filter = f
	return nil
}

// Filter returns the installed filter (possibly nil for unconfined
// baseline processes).
func (p *Picoprocess) Filter() SyscallFilter {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.filter
}

// registerStream tracks an open stream endpoint for sandbox-split severing
// and exit-time close. The endpoint also inherits the picoprocess as its
// fault-plan owner so stream-level fault points fire for writes through it.
// There is no unregister to forget: the endpoint's real close removes it
// (Stream.closeRef), and a holder giving up a co-held endpoint goes through
// Kernel.StreamClose.
func (p *Picoprocess) registerStream(s *Stream) { s.addHolder(p) }

// forgetStream drops s from the table; only Stream's holder bookkeeping
// calls it.
func (p *Picoprocess) forgetStream(s *Stream) {
	p.mu.Lock()
	delete(p.streams, s)
	p.mu.Unlock()
}

// OpenStreams snapshots the endpoints currently owned by this picoprocess.
func (p *Picoprocess) OpenStreams() []*Stream {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Stream, 0, len(p.streams))
	for s := range p.streams {
		out = append(out, s)
	}
	return out
}

// registerListener tracks a named listener so a crashing picoprocess tears
// it down in Exit (subsequent dials fail ECONNREFUSED instead of queueing
// connections nobody will accept).
func (p *Picoprocess) registerListener(l *Listener) {
	p.mu.Lock()
	if p.listeners == nil {
		p.listeners = make(map[*Listener]struct{})
	}
	p.listeners[l] = struct{}{}
	p.mu.Unlock()
}

// unregisterListener untracks a listener this picoprocess released
// explicitly (descriptor close), so Exit doesn't release it twice.
func (p *Picoprocess) unregisterListener(l *Listener) {
	p.mu.Lock()
	delete(p.listeners, l)
	p.mu.Unlock()
}

// NewThread runs fn as a guest thread of this picoprocess.
func (p *Picoprocess) NewThread(fn func(tid int)) int {
	p.mu.Lock()
	p.nextTID++
	tid := p.nextTID
	p.mu.Unlock()
	p.threads.Add(1)
	go func() {
		defer p.threads.Done()
		fn(tid)
	}()
	return tid
}

// Exit marks the picoprocess dead, releases its address space, closes its
// listeners and streams, and signals waiters. Idempotent.
func (p *Picoprocess) Exit(code int) {
	p.mu.Lock()
	if p.dead.Load() {
		p.mu.Unlock()
		return
	}
	p.dead.Store(true)
	p.exitCode = code
	streams := make([]*Stream, 0, len(p.streams))
	for s := range p.streams {
		streams = append(streams, s)
	}
	listeners := make([]*Listener, 0, len(p.listeners))
	for l := range p.listeners {
		listeners = append(listeners, l)
	}
	p.listeners = nil
	p.mu.Unlock()

	// Listeners first, so no new connection lands between stream teardown
	// and the name disappearing from the registry. Release rather than
	// remove: a listen socket co-held by a standby (listener handle
	// passing) must survive the primary's death and keep accepting.
	for _, l := range listeners {
		if l.dropHolder(p.ID) {
			p.kernel.RemoveListener(l)
		}
	}
	for _, s := range streams {
		p.kernel.StreamClose(p, s)
	}
	p.AS.Release()
	p.exited.Set()
	p.kernel.onProcessExit(p)
}

// Dead reports whether the picoprocess has exited.
func (p *Picoprocess) Dead() bool { return p.dead.Load() }

// ExitCode returns the exit status (valid once Dead).
func (p *Picoprocess) ExitCode() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exitCode
}

// ExitEvent is signaled when the picoprocess exits (waitable).
func (p *Picoprocess) ExitEvent() *Event { return p.exited }

// Kernel returns the owning kernel.
func (p *Picoprocess) Kernel() *Kernel { return p.kernel }
