package host

import (
	"sync"
	"sync/atomic"
)

// Kernel-bypass SysV datapath (DESIGN.md "Kernel-bypass rings"): once a
// helper owns a message queue, the monitor can grant a remote sender a
// shared-memory send ring, so steady-state msgsnd from that picoprocess
// never crosses the RPC plane. The ring is strictly an optimization layer
// over the owner's authoritative queue — either side can revoke it at any
// time and the sender falls back to RPC. Reading a remote object is
// ownership migration's job, not the ring's.
//
// A RingSegment is a single-producer single-consumer descriptor ring in
// the style of a paravirtual queue: every slot carries a sequence word
// validated on both sides, so a producer that dies mid-write simply never
// publishes the slot — the consumer cannot observe a torn message, it
// just stops seeing new ones until the kernel revokes the mapping.
//
// Data lives in an arena of host Pages (the same refcounted pages the
// bulk-IPC gipc store shares COW), pre-touched at creation so the
// steady-state path never allocates.

const (
	// RingSlots is the descriptor count per ring; must be a power of two.
	RingSlots = 64
	// RingSlotData is the payload capacity of one slot. Messages larger
	// than this fall back to the RPC path (SysV queue traffic is tiny in
	// the paper's workloads; oversize is the rare case).
	RingSlotData = 1024

	ringPages = RingSlots * RingSlotData / PageSize
)

// ringSlot is one descriptor. seq implements the classic bounded-queue
// protocol: seq == pos means the slot is free for the producer at cursor
// pos; seq == pos+1 means it holds the message published at pos and is
// ready for the consumer; the consumer releases it for the next lap by
// storing pos+RingSlots.
type ringSlot struct {
	seq   atomic.Uint64
	mtype int64
	n     int32
}

// RingSegment is a queue's kernel-bypass send ring: the granted client
// produces, the owner consumes.
type RingSegment struct {
	// ID is the kernel-assigned segment ID (shared with the peer over the
	// attach RPC, like a gipc store ID travels over a byte stream).
	ID int
	// CreatorPID / ClientPID are the host PIDs of the granting owner and
	// the mapped peer; the monitor revokes the segment when the pair stops
	// sharing a sandbox or either side exits.
	CreatorPID int
	ClientPID  int

	slots [RingSlots]ringSlot
	arena [ringPages]*Page
	head  atomic.Uint64 // consumer cursor
	tail  atomic.Uint64 // producer cursor

	// Doorbell wakes the consumer after a publish (and on revocation, so
	// a parked drainer observes the revoke). Auto-reset.
	Doorbell *Event

	revoked atomic.Bool

	// prodMu / consMu serialize same-process threads on each endpoint;
	// cross-process the sequence protocol is the synchronization. prodMu
	// doubles as the revocation fence: Seal acquires it once after Revoke,
	// which guarantees no push is in flight (the simulated analogue of the
	// TLB shootdown a real mapping revocation performs).
	prodMu sync.Mutex
	consMu sync.Mutex
}

func newRingSegment(id, creator, client int) *RingSegment {
	r := &RingSegment{ID: id, CreatorPID: creator, ClientPID: client, Doorbell: NewEvent(false)}
	for i := range r.arena {
		pg := NewPage()
		// Pre-touch: materialize the backing now so the datapath never
		// takes Page.write's first-touch allocation.
		pg.write(0, []byte{0})
		r.arena[i] = pg
	}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// slotData returns the arena page and intra-page offset of slot i's
// payload. RingSlotData divides PageSize, so a slot never straddles pages.
func (r *RingSegment) slotData(i uint64) (*Page, int) {
	off := int(i) * RingSlotData
	return r.arena[off/PageSize], off % PageSize
}

// TryPush publishes one message; false means the ring is full, revoked, or
// the payload exceeds a slot (all of which route the caller to RPC). The
// revocation check runs under the producer lock so Seal can fence it.
// Allocation-free.
func (r *RingSegment) TryPush(mtype int64, data []byte) bool {
	if len(data) > RingSlotData {
		return false
	}
	r.prodMu.Lock()
	if r.revoked.Load() {
		r.prodMu.Unlock()
		return false
	}
	pos := r.tail.Load()
	slot := &r.slots[pos%RingSlots]
	if slot.seq.Load() != pos {
		r.prodMu.Unlock()
		return false // consumer has not freed this slot yet: ring full
	}
	pg, off := r.slotData(pos % RingSlots)
	pg.write(off, data)
	slot.mtype = mtype
	slot.n = int32(len(data))
	slot.seq.Store(pos + 1)
	r.tail.Store(pos + 1)
	// Event suppression (the virtio notify dance): kick only if the
	// consumer had caught up — it may be parked on the doorbell. If it is
	// still behind, it cannot park before draining through this slot (the
	// seq word is already published), so the kick would be wasted.
	idle := r.head.Load() == pos
	r.prodMu.Unlock()
	if idle {
		r.Doorbell.Set()
	}
	return true
}

// TryPop consumes one message into buf (which must hold RingSlotData
// bytes); ok=false means the ring is empty. No revocation check: this is
// the owner-side drain, which must keep working after Revoke+Seal to
// reclaim what the producer published. Allocation-free.
func (r *RingSegment) TryPop(buf []byte) (mtype int64, n int, ok bool) {
	r.consMu.Lock()
	pos := r.head.Load()
	slot := &r.slots[pos%RingSlots]
	if slot.seq.Load() != pos+1 {
		r.consMu.Unlock()
		return 0, 0, false
	}
	n = int(slot.n)
	pg, off := r.slotData(pos % RingSlots)
	pg.read(off, buf[:n])
	mtype = slot.mtype
	slot.seq.Store(pos + RingSlots)
	r.head.Store(pos + 1)
	r.consMu.Unlock()
	return mtype, n, true
}

// Pending reports the published-but-unconsumed message count.
func (r *RingSegment) Pending() int {
	return int(r.tail.Load() - r.head.Load())
}

// Revoke marks the segment dead and rings the doorbell so both sides
// observe it: the producer fails TryPush and falls back to RPC; the
// owner's parked drainer wakes and reclaims. Idempotent.
func (r *RingSegment) Revoke() {
	if r.revoked.Swap(true) {
		return
	}
	r.Doorbell.Set()
}

// Revoked reports whether the segment has been revoked.
func (r *RingSegment) Revoked() bool { return r.revoked.Load() }

// Seal fences the producer side after Revoke: once the producer lock has
// been cycled, any in-flight TryPush has completed (and is recoverable by
// draining) and every later one observes the revocation and fails. The
// owner calls this before reclaiming a send ring.
func (r *RingSegment) Seal() {
	r.prodMu.Lock()
	//lint:ignore SA2001 empty critical section is the fence
	r.prodMu.Unlock()
}

// RingInfo is a registry snapshot row for invariant checking and tests.
type RingInfo struct {
	ID         int
	CreatorPID int
	ClientPID  int
	Revoked    bool
}
