package host

import (
	"sync"
	"time"
)

// Deterministic fault injection. A FaultPlan is attached to a picoprocess
// (and inherited by its registered streams) and fires at named points —
// syscall gates ("sys.<nr>"), stream writes ("stream.write"), or
// layer-defined points such as the IPC dispatcher's "rpc.<type>.enter" —
// addressed by hit count, so a crash interleaving is reproducible from the
// plan alone rather than from scheduler timing.

// FaultAction is what happens when a fault rule fires.
type FaultAction int

// Fault actions. The zero value means "no fault".
const (
	faultNone FaultAction = iota
	// FaultReset force-closes the stream at the fault point (the peer
	// observes EOF/EPIPE, as if the connection was torn down mid-frame).
	FaultReset
	// FaultDrop swallows the write (or response) at the fault point: the
	// caller believes it succeeded, the peer never sees it.
	FaultDrop
	// FaultDelay sleeps for the rule's Delay before proceeding normally.
	FaultDelay
	// FaultKill exits the picoprocess at the fault point, mid-operation:
	// streams and listeners close, the broadcast subscription dies, and
	// every later syscall gate fails with ESRCH.
	FaultKill
	// FaultPartition partitions the picoprocess at the fault point without
	// tearing anything: its streams stall and broadcasts stop flowing until
	// the rule's Heal duration elapses (or a test heals explicitly). The
	// rule's PeerPID selects one peer; 0 isolates from the whole sandbox.
	// The faulted operation itself proceeds — the partition bites on the
	// *next* exchange, which is exactly the partitioned-yet-alive shape.
	FaultPartition
)

// FaultRule arms one action at one point. N addresses the Nth hit of the
// point (1-based); N == 0 fires on every hit. A rule fires at most once
// unless N == 0.
type FaultRule struct {
	Point  string
	N      int
	Action FaultAction
	Delay  time.Duration
	// PeerPID scopes a FaultPartition rule: the host PID to partition from,
	// or 0 to isolate the faulting picoprocess from its whole sandbox.
	PeerPID int
	// Heal, when > 0, auto-heals a FaultPartition that long after it fires.
	// 0 leaves the partition up until the test heals it explicitly.
	Heal time.Duration
}

// FaultPlan is a deterministic schedule of injected faults. Plans are
// built with the chainable Rule/DelayRule constructors, installed with
// Picoprocess.SetFaultPlan, and evaluated at named points; per-point hit
// counters make the Nth-frame addressing reproducible.
type FaultPlan struct {
	mu    sync.Mutex
	rules []FaultRule
	hits  map[string]int
	fired []string
}

// NewFaultPlan returns an empty plan.
func NewFaultPlan() *FaultPlan {
	return &FaultPlan{hits: make(map[string]int)}
}

// Rule arms action at the nth hit of point (n == 0: every hit).
func (fp *FaultPlan) Rule(point string, n int, action FaultAction) *FaultPlan {
	fp.mu.Lock()
	fp.rules = append(fp.rules, FaultRule{Point: point, N: n, Action: action})
	fp.mu.Unlock()
	return fp
}

// DelayRule arms a delay of d at the nth hit of point.
func (fp *FaultPlan) DelayRule(point string, n int, d time.Duration) *FaultPlan {
	fp.mu.Lock()
	fp.rules = append(fp.rules, FaultRule{Point: point, N: n, Action: FaultDelay, Delay: d})
	fp.mu.Unlock()
	return fp
}

// PartitionRule arms a partition at the nth hit of point: the faulting
// picoprocess is cut off from peer (0 = everyone in its sandbox) and the
// link auto-heals after healAfter (0 = until explicitly healed).
func (fp *FaultPlan) PartitionRule(point string, n int, peer int, healAfter time.Duration) *FaultPlan {
	fp.mu.Lock()
	fp.rules = append(fp.rules, FaultRule{Point: point, N: n, Action: FaultPartition, PeerPID: peer, Heal: healAfter})
	fp.mu.Unlock()
	return fp
}

// eval counts a hit of point and returns the first armed rule that fires
// (a faultNone rule if none does).
func (fp *FaultPlan) eval(point string) FaultRule {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.hits[point]++
	n := fp.hits[point]
	for i := range fp.rules {
		r := &fp.rules[i]
		if r.Point != point {
			continue
		}
		if r.N == 0 || r.N == n {
			fp.fired = append(fp.fired, point)
			return *r
		}
	}
	return FaultRule{Action: faultNone}
}

// Eval counts a hit of point and returns the armed action (the zero
// FaultAction when nothing fires). Process-less consumers — the fleet
// supervisor's deterministic simulation harness — evaluate plans directly
// with the same Nth-hit addressing and Fired() bookkeeping as
// Picoprocess.Fault, but apply the action themselves: there is no host
// picoprocess to kill or partition in a simulated world.
func (fp *FaultPlan) Eval(point string) FaultAction {
	return fp.eval(point).Action
}

// Hits returns how many times point has been evaluated.
func (fp *FaultPlan) Hits(point string) int {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.hits[point]
}

// Fired returns the points at which rules actually fired, in order —
// tests assert on this to guarantee the planned fault really happened.
func (fp *FaultPlan) Fired() []string {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return append([]string(nil), fp.fired...)
}

// Fault evaluates the installed fault plan at a named point. FaultDelay is
// absorbed here (the operation proceeds after the sleep); FaultKill exits
// the picoprocess before returning; FaultPartition installs the partition
// (with its auto-heal timer, if armed) and lets the operation proceed.
// FaultReset and FaultDrop are returned for the calling layer to apply to
// its own transport.
func (p *Picoprocess) Fault(point string) FaultAction {
	fp := p.faults.Load()
	if fp == nil {
		return faultNone
	}
	r := fp.eval(point)
	if r.Action != faultNone {
		// Record the fire before applying the action: a FaultKill's recorder
		// is retired by Exit, so the event must land first.
		p.TraceFault(point)
	}
	switch r.Action {
	case FaultDelay:
		time.Sleep(r.Delay)
		return faultNone
	case FaultKill:
		p.Exit(137)
	case FaultPartition:
		k, pid, peer, heal := p.kernel, p.ID, r.PeerPID, r.Heal
		if peer == 0 {
			k.Isolate(pid)
			if heal > 0 {
				time.AfterFunc(heal, func() { k.HealIsolate(pid) })
			}
		} else {
			k.Partition(pid, peer)
			if heal > 0 {
				time.AfterFunc(heal, func() { k.Heal(pid, peer) })
			}
		}
		return faultNone
	}
	return r.Action
}

// HasFaultPlan reports whether a plan is installed — the hot paths check
// this before building fault-point names.
func (p *Picoprocess) HasFaultPlan() bool { return p.faults.Load() != nil }

// SetFaultPlan installs (or, with nil, removes) the fault plan. Streams
// already registered to the picoprocess pick the plan up immediately.
func (p *Picoprocess) SetFaultPlan(fp *FaultPlan) {
	p.faults.Store(fp)
	for _, s := range p.OpenStreams() {
		p.registerStream(s) // re-registering makes p the fault owner again
	}
}
