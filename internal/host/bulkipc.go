package host

import (
	"sync"
	"time"

	"graphene/internal/api"
)

// IPCStore implements the paper's bulk IPC kernel module (gipc, §5): an
// out-of-band queue of copy-on-write page batches. The sender commits a
// series of (not necessarily contiguous) pages; the receiver maps them into
// its own address space at addresses of its choosing. Pages are shared COW
// in both sender and receiver. Control information (how many pages, where
// they belong) travels separately on a byte stream, as in the paper.
type IPCStore struct {
	ID int
	// CreatorPID is the host PID that created the store; the reference
	// monitor only permits mapping within the creator's sandbox.
	CreatorPID int

	// kernel is the registry the store leaves on Close (nil for a store
	// built outside a kernel).
	kernel *Kernel

	mu      sync.Mutex
	batches []pageBatch
	avail   *Event
	closed  bool
}

type pageBatch struct {
	// idxs are the sender-side page indices (sender VA >> PageShift); the
	// receiver remaps them relative to its own target address.
	idxs  []uint64
	pages []*Page
	base  uint64 // sender-side region start, for offset-preserving mapping
}

func newIPCStore(id int) *IPCStore {
	return &IPCStore{ID: id, avail: NewEvent(true)}
}

// Commit captures the resident pages of as within [start, end) into the
// store as one batch, marking them shared (COW). Returns the page count.
func (st *IPCStore) Commit(as *AddressSpace, start, end uint64) (int, error) {
	idxs, pages := as.TouchedPages(start, end)
	for _, pg := range pages {
		pg.Ref() // store's reference; dropped on Map
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		for _, pg := range pages {
			pg.Unref()
		}
		return 0, api.EBADF
	}
	st.batches = append(st.batches, pageBatch{idxs: idxs, pages: pages, base: pageAlignDown(start)})
	st.avail.Set()
	return len(pages), nil
}

// Map pops the oldest batch and installs its pages into as at target (the
// receiver's chosen base address). The target region must already be
// mapped (the receiver allocates it first, as with DkVirtualMemoryAlloc).
// Returns the number of pages installed.
func (st *IPCStore) Map(as *AddressSpace, target uint64) (int, error) {
	st.mu.Lock()
	if len(st.batches) == 0 {
		closed := st.closed
		st.mu.Unlock()
		if closed {
			return 0, api.EBADF
		}
		return 0, api.EAGAIN
	}
	b := st.batches[0]
	st.batches[0] = pageBatch{} // the backing array must not keep the pages
	st.batches = st.batches[1:]
	if len(st.batches) == 0 && !st.closed {
		st.avail.Reset()
	}
	st.mu.Unlock()

	// Install the whole batch under one address-space lock acquisition,
	// each sender index moved by the distance from the sender's region base
	// to the receiver's target base.
	installed := as.installPages(b.idxs, b.pages, pageAlignDown(target)>>PageShift-b.base>>PageShift)
	for _, pg := range b.pages {
		pg.Unref() // drop the store's reference (InstallPages took its own)
	}
	return installed, nil
}

// MapNext blocks until a batch is available (or the store is closed), then
// maps it like Map. The pipelined fork restore uses this to consume batches
// as the parent commits them, instead of requiring all commits up front.
// timeout bounds the whole call (<= 0 waits forever): it is an absolute
// deadline, not a per-wakeup budget, so spurious wakeups — the avail event
// staying signaled while other mappers drain the batches — cannot extend
// the wait past what callers treat as the bound for declaring a fork dead.
func (st *IPCStore) MapNext(as *AddressSpace, target uint64, timeout time.Duration) (int, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		n, err := st.Map(as, target)
		if err != api.EAGAIN {
			return n, err
		}
		wait := timeout
		if timeout > 0 {
			wait = time.Until(deadline)
			if wait <= 0 {
				return 0, api.ETIMEDOUT
			}
		}
		if werr := st.avail.Wait(wait); werr != nil {
			return 0, werr
		}
	}
}

// Pending returns the number of queued batches.
func (st *IPCStore) Pending() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.batches)
}

// AvailEvent is signaled while batches are queued.
func (st *IPCStore) AvailEvent() *Event { return st.avail }

// Close discards queued batches, fails future commits and maps, and takes
// the store out of its kernel's registry. Sender and receiver share the
// store, and whichever is done with it first — the receiver after mapping
// the last batch, either side on failure — closes it for both.
func (st *IPCStore) Close() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	for _, b := range st.batches {
		for _, pg := range b.pages {
			pg.Unref()
		}
	}
	st.batches = nil
	// Wake any MapNext waiter so it observes the closed store.
	st.avail.Set()
	st.mu.Unlock()
	if k := st.kernel; k != nil {
		k.mu.Lock()
		delete(k.stores, st.ID)
		k.mu.Unlock()
	}
}
