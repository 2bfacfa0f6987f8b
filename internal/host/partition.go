package host

import (
	"sync"
	"sync/atomic"
)

// Link stalls for tests: a partition stalls traffic between two
// picoprocesses without tearing their streams down. Unlike
// FaultReset/FaultKill, neither side observes EPIPE — reads from the
// partitioned peer simply make no progress until the partition heals.
// Nothing on one host cuts two live picoprocesses apart, so no runtime
// path installs one; the fleet's quarantine test uses it to hold a worker
// unreachable from its master while both stay alive.
//
// Mechanically a partition gates the *receive* side: a stream read from a
// partitioned peer blocks as if no data had arrived (bytes written before
// and during the partition stay buffered in the ring and deliver on heal),
// and writes stall naturally once the 64 KiB in-flight buffer fills —
// the same backpressure a real TCP connection exhibits when the other end
// stops ACKing. Broadcast delivery between partitioned picoprocesses is
// dropped — the one loss the otherwise reliable channel has — while the
// subscription itself stays alive.

// pidPair is one directed (from, to) edge of the partition graph.
type pidPair struct {
	from, to int
}

// partitionTable is the kernel-wide partition state shared by every
// stream endpoint and broadcast channel the kernel hands out. The active
// counter keeps the fast path (no partitions anywhere, the only state
// outside chaos tests) to one atomic load.
type partitionTable struct {
	mu      sync.Mutex
	blocked map[pidPair]int // directed edge -> install count
	active  atomic.Int64    // len(blocked), maintained under mu
	wake    chan struct{}   // closed+replaced on every heal or close poke
}

func newPartitionTable() *partitionTable {
	return &partitionTable{
		blocked: make(map[pidPair]int),
		wake:    make(chan struct{}),
	}
}

// any reports whether any partition is installed (lock-free fast path).
func (pt *partitionTable) any() bool {
	return pt != nil && pt.active.Load() != 0
}

// blockedLocked reports whether the directed edge from->to is severed.
// Caller holds pt.mu.
func (pt *partitionTable) blockedLocked(from, to int) bool {
	return pt.blocked[pidPair{from, to}] > 0
}

// Blocked reports whether traffic from->to is currently stalled.
func (pt *partitionTable) Blocked(from, to int) bool {
	if !pt.any() {
		return false
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.blockedLocked(from, to)
}

// block installs one directed edge (counted, so overlapping partitions
// compose: healing one does not heal a concurrent partition of the same
// pair).
func (pt *partitionTable) block(from, to int) {
	pt.mu.Lock()
	pt.blocked[pidPair{from, to}]++
	pt.active.Store(int64(len(pt.blocked)))
	pt.mu.Unlock()
}

// unblock removes one directed edge and wakes stalled readers.
func (pt *partitionTable) unblock(from, to int) {
	pt.mu.Lock()
	k := pidPair{from, to}
	if pt.blocked[k] > 0 {
		pt.blocked[k]--
		if pt.blocked[k] == 0 {
			delete(pt.blocked, k)
		}
	}
	pt.active.Store(int64(len(pt.blocked)))
	pt.pokeLocked()
	pt.mu.Unlock()
}

// healAll drops every edge.
func (pt *partitionTable) healAll() {
	pt.mu.Lock()
	pt.blocked = make(map[pidPair]int)
	pt.active.Store(0)
	pt.pokeLocked()
	pt.mu.Unlock()
}

// pokeLocked wakes every goroutine stalled in waitUnblocked so it
// re-checks the partition graph (or its stream's closed flag).
func (pt *partitionTable) pokeLocked() {
	close(pt.wake)
	pt.wake = make(chan struct{})
}

// poke is pokeLocked for callers outside the lock — stream close paths
// use it so a reader stalled behind a partition observes the close.
func (pt *partitionTable) poke() {
	if pt == nil {
		return
	}
	pt.mu.Lock()
	pt.pokeLocked()
	pt.mu.Unlock()
}

// waitUnblocked stalls while the from->to edge is severed and closed()
// is false. It returns once traffic may flow again (healed) or the
// caller's endpoint died (closed, force-closed, or its owner exited) —
// the caller then proceeds and observes its transport's own state.
func (pt *partitionTable) waitUnblocked(from, to int, closed func() bool) {
	for {
		pt.mu.Lock()
		if !pt.blockedLocked(from, to) {
			pt.mu.Unlock()
			return
		}
		wake := pt.wake
		pt.mu.Unlock()
		if closed() {
			return
		}
		<-wake
	}
}

// --- Kernel partition API ---

// Partition stalls all traffic between picoprocesses a and b, in both
// directions, without tearing their streams: reads from the other side
// block, writes back up, broadcasts stop arriving. Heal(a, b) restores
// the link and delivers everything buffered meanwhile.
func (k *Kernel) Partition(a, b int) {
	k.partitions.block(a, b)
	k.partitions.block(b, a)
}

// Heal removes one Partition(a, b). Buffered bytes deliver immediately.
func (k *Kernel) Heal(a, b int) {
	k.partitions.unblock(a, b)
	k.partitions.unblock(b, a)
}

// HealAll removes every partition in the kernel.
func (k *Kernel) HealAll() {
	k.partitions.healAll()
}

// Partitioned reports whether traffic from -> to is currently stalled.
func (k *Kernel) Partitioned(from, to int) bool {
	return k.partitions.Blocked(from, to)
}
