// Package host implements the simulated host kernel underneath the PAL:
// virtual memory, byte streams, a file system, threads and synchronization,
// picoprocess lifecycle, and the bulk-IPC page store. It exposes only the
// generic abstractions the paper's host ABI requires, so everything above
// it (PAL, libLinux, reference monitor) is structured as in Graphene.
package host

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"graphene/internal/api"
)

// PageSize is the simulated hardware page size.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Page is one refcounted physical page. Pages are shared copy-on-write
// between address spaces (fork, bulk IPC); Data is allocated lazily on
// first write so untouched mappings cost no memory.
type Page struct {
	// refs is atomic so that sharing a page (fork, bulk-IPC commit and map,
	// exit) takes no lock; mu guards only the contents.
	refs atomic.Int32
	mu   sync.Mutex
	data []byte
	// zeroFill marks a page that is resident but has no private backing
	// yet: reads see zeros and the first write allocates. Loading a large
	// fixed image materializes pages this way, so making a range resident
	// costs page-table work, not a memclr of the whole range (the host
	// kernel's equivalent is mapping the zero page or page cache).
	zeroFill bool
}

// NewPage returns a private page with a single reference.
func NewPage() *Page {
	p := new(Page)
	p.refs.Store(1)
	return p
}

// Ref increments the reference count (sharing the page COW).
func (p *Page) Ref() { p.refs.Add(1) }

// Unref drops one reference. The page memory is reclaimed by GC when the
// last reference and all mappings are gone.
func (p *Page) Unref() { p.refs.Add(-1) }

// Shared reports whether more than one address space references the page.
func (p *Page) Shared() bool { return p.refs.Load() > 1 }

// Resident reports whether the page has been touched (has backing
// storage, or was materialized as a zero-fill page).
func (p *Page) Resident() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.data != nil || p.zeroFill
}

// copyForWrite returns a private copy of the page for a COW break.
func (p *Page) copyForWrite() *Page {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := NewPage()
	if p.data != nil {
		n.data = make([]byte, PageSize)
		copy(n.data, p.data)
	}
	n.zeroFill = p.zeroFill
	p.refs.Add(-1)
	return n
}

func (p *Page) read(off int, buf []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.data == nil {
		for i := range buf {
			buf[i] = 0
		}
		return
	}
	copy(buf, p.data[off:])
}

func (p *Page) write(off int, data []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.data == nil {
		p.data = make([]byte, PageSize)
	}
	copy(p.data[off:], data)
}

// Page-table geometry. A leaf maps leafPages consecutive page indices
// (2 MiB of address space) and is aligned to absolute addresses, not to its
// VMA's start, so splitting a VMA never moves a page to a different slot.
const (
	leafShift = 9
	leafPages = 1 << leafShift
	// maxPageIdx bounds a page index whose address still fits in 64 bits.
	maxPageIdx = 1 << (64 - PageShift)
)

// ptLeaf is one page-table leaf: the backing pages of a 2 MiB window, the
// bitmap of slots written since the last ResetDirty, and the number of
// occupied slots. A dirty bit is only ever set on an occupied slot.
type ptLeaf struct {
	pages [leafPages]*Page
	dirty [leafPages / 64]uint64
	live  int
}

func (l *ptLeaf) markDirty(slot int) { l.dirty[slot>>6] |= 1 << (slot & 63) }

func (l *ptLeaf) dirtyCount() int {
	n := 0
	for _, w := range l.dirty {
		n += bits.OnesCount64(w)
	}
	return n
}

// unrefSlots drops the page table's reference on every page in slots
// [from, to) of l (a leaves / walkLocked visitor).
func unrefSlots(l *ptLeaf, _ uint64, from, to int) {
	for _, pg := range l.pages[from:to] {
		if pg != nil {
			pg.Unref()
		}
	}
}

// VMA is one virtual memory area: a contiguous, page-aligned mapping.
type VMA struct {
	Start uint64
	End   uint64 // exclusive
	Prot  int
	// top is the VMA's page table: top[i] is the leaf for absolute leaf
	// index topLo+i (page index >> leafShift), nil until a page in it is
	// touched. The window itself grows on first touch to span only the
	// touched leaves, so an untouched mapping of any size costs nothing and
	// one touched page costs one leaf.
	top   []*ptLeaf
	topLo uint64
}

// Len returns the VMA length in bytes.
func (v *VMA) Len() uint64 { return v.End - v.Start }

// page returns the page backing index idx, or nil if none is installed.
func (v *VMA) page(idx uint64) *Page {
	li := idx>>leafShift - v.topLo // wraps below the window, failing the bound
	if li >= uint64(len(v.top)) || v.top[li] == nil {
		return nil
	}
	return v.top[li].pages[idx&(leafPages-1)]
}

// leafRef returns the window entry of absolute leaf index li (which must
// overlap the VMA), growing the window to reach it.
func (v *VMA) leafRef(li uint64) **ptLeaf {
	switch n := uint64(len(v.top)); {
	case n == 0:
		v.top, v.topLo = make([]*ptLeaf, 1), li
	case li < v.topLo:
		grown := make([]*ptLeaf, v.topLo-li+n)
		copy(grown[v.topLo-li:], v.top)
		v.top, v.topLo = grown, li
	case li-v.topLo >= n:
		v.top = append(v.top, make([]*ptLeaf, li-v.topLo+1-n)...)
	}
	return &v.top[li-v.topLo]
}

// leafFor returns the leaf and slot of page index idx (which must lie inside
// the VMA), allocating the leaf on first touch.
func (v *VMA) leafFor(idx uint64) (*ptLeaf, int) {
	ref := v.leafRef(idx >> leafShift)
	if *ref == nil {
		*ref = new(ptLeaf)
	}
	return *ref, int(idx & (leafPages - 1))
}

// leaves calls fn, in ascending address order, for every allocated leaf
// that overlaps page indices [lo, hi): base is the leaf's first page index
// and [from, to) the slots of it inside the range.
func (v *VMA) leaves(lo, hi uint64, fn func(l *ptLeaf, base uint64, from, to int)) {
	first := uint64(0)
	if lo>>leafShift > v.topLo {
		first = lo>>leafShift - v.topLo
	}
	for i := first; i < uint64(len(v.top)); i++ {
		base := (v.topLo + i) << leafShift
		if base >= hi {
			return
		}
		l := v.top[i]
		if l == nil {
			continue
		}
		from, to := 0, leafPages
		if lo > base {
			from = int(lo - base)
		}
		if hi < base+leafPages {
			to = int(hi - base)
		}
		fn(l, base, from, to)
	}
}

// piece carves [start, end) out of v as a new VMA with protection prot,
// taking over the pages and dirty bits of that range. v is being replaced by
// disjoint pieces, so a leaf that lies wholly inside one piece moves there;
// a leaf the cut goes through is copied slot by slot to the side it is on.
func (v *VMA) piece(start, end uint64, prot int) *VMA {
	nv := &VMA{Start: start, End: end, Prot: prot}
	v.leaves(start>>PageShift, end>>PageShift, func(l *ptLeaf, base uint64, from, to int) {
		inside := 0
		for _, pg := range l.pages[from:to] {
			if pg != nil {
				inside++
			}
		}
		if inside == 0 {
			return
		}
		ref := nv.leafRef(base >> leafShift)
		if inside == l.live {
			*ref = l
			return
		}
		dst := &ptLeaf{live: inside}
		for s := from; s < to; s++ {
			dst.pages[s] = l.pages[s]
			dst.dirty[s>>6] |= l.dirty[s>>6] & (1 << (s & 63))
		}
		*ref = dst
	})
	return nv
}

// AddressSpace is one picoprocess's virtual address space.
//
// Dirty tracking: every store (including COW breaks) and every installed or
// slab-touched page sets its slot's bit in the leaf's dirty bitmap.
// Incremental checkpoints ship exactly the set bits instead of every
// resident page, so checkpoint cost scales with the write working set.
// Freeing a page drops its bit; ResetDirty clears them all.
type AddressSpace struct {
	mu   sync.Mutex
	vmas []*VMA // sorted by Start, non-overlapping

	// next is the next address used for kernel-chosen placements.
	next uint64

	// committed counts bytes of mapped (reserved) memory; resident counts
	// bytes of touched pages, the basis of the Figure 4 footprint numbers.
	committed uint64
}

// Address space layout constants for kernel-chosen placements.
const (
	mmapBase = 0x7f00_0000_0000
	mmapTop  = 0x7fff_ffff_f000
)

// maxVMABytes bounds one mapping, at the size of the whole kernel-placement
// window. A VMA's leaf window spans its lowest to its highest touched leaf
// at 8 bytes per 2 MiB, so this also bounds the window — 4 MiB — however
// sparsely a mapping is touched.
const maxVMABytes = 1 << 40

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{next: mmapBase}
}

func pageAlignUp(v uint64) uint64 {
	return (v + PageSize - 1) &^ (PageSize - 1)
}

func pageAlignDown(v uint64) uint64 {
	return v &^ (PageSize - 1)
}

// walkLocked visits, in ascending address order, every allocated leaf that
// overlaps page indices [lo, hi) in any VMA (see VMA.leaves).
func (as *AddressSpace) walkLocked(lo, hi uint64, fn func(l *ptLeaf, base uint64, from, to int)) {
	for _, v := range as.vmas {
		vlo, vhi := max(lo, v.Start>>PageShift), min(hi, v.End>>PageShift)
		if vlo < vhi {
			v.leaves(vlo, vhi, fn)
		}
	}
}

// Alloc maps length bytes at addr (or a kernel-chosen address if addr == 0)
// with the given protection, returning the start address.
func (as *AddressSpace) Alloc(addr uint64, length uint64, prot int) (uint64, error) {
	if length == 0 {
		return 0, api.EINVAL
	}
	if length > maxVMABytes || addr+length < addr {
		return 0, api.ENOMEM
	}
	length = pageAlignUp(length)
	as.mu.Lock()
	defer as.mu.Unlock()
	if addr == 0 {
		addr = as.findFreeLocked(length)
		if addr == 0 {
			return 0, api.ENOMEM
		}
	} else {
		addr = pageAlignDown(addr)
		if as.overlapsLocked(addr, addr+length) {
			return 0, api.ENOMEM
		}
	}
	as.insertLocked(&VMA{Start: addr, End: addr + length, Prot: prot})
	as.committed += length
	return addr, nil
}

// Free unmaps [addr, addr+length), splitting VMAs as needed.
func (as *AddressSpace) Free(addr uint64, length uint64) error {
	if length == 0 {
		return api.EINVAL
	}
	start := pageAlignDown(addr)
	end := pageAlignUp(addr + length)
	as.mu.Lock()
	defer as.mu.Unlock()
	// A VMA cut in the middle becomes two, so the list grows by at most one.
	kept := make([]*VMA, 0, len(as.vmas)+1)
	for _, v := range as.vmas {
		if v.End <= start || v.Start >= end {
			kept = append(kept, v)
			continue
		}
		// Overlap: release the pages in the freed range, keep the
		// non-overlapping head and tail.
		lo, hi := max(v.Start, start), min(v.End, end)
		v.leaves(lo>>PageShift, hi>>PageShift, unrefSlots)
		if v.Start < start {
			kept = append(kept, v.piece(v.Start, start, v.Prot))
		}
		if v.End > end {
			kept = append(kept, v.piece(end, v.End, v.Prot))
		}
		as.committed -= hi - lo
	}
	as.vmas = kept
	return nil
}

// Protect changes protection on [addr, addr+length). The range must be
// fully mapped.
func (as *AddressSpace) Protect(addr uint64, length uint64, prot int) error {
	start := pageAlignDown(addr)
	end := pageAlignUp(addr + length)
	as.mu.Lock()
	defer as.mu.Unlock()
	// Verify coverage first.
	cover := start
	for _, v := range as.vmas {
		if v.End <= cover || v.Start > cover {
			continue
		}
		cover = v.End
		if cover >= end {
			break
		}
	}
	if cover < end {
		return api.ENOMEM
	}
	// Only the first and last VMA of the range can be cut, each once.
	out := make([]*VMA, 0, len(as.vmas)+2)
	for _, v := range as.vmas {
		switch {
		case v.End <= start || v.Start >= end:
			out = append(out, v)
		case v.Start >= start && v.End <= end:
			v.Prot = prot
			out = append(out, v)
		default:
			lo, hi := max(v.Start, start), min(v.End, end)
			if v.Start < lo {
				out = append(out, v.piece(v.Start, lo, v.Prot))
			}
			out = append(out, v.piece(lo, hi, prot))
			if hi < v.End {
				out = append(out, v.piece(hi, v.End, v.Prot))
			}
		}
	}
	as.vmas = out
	return nil
}

// Write stores data at addr, breaking COW sharing as needed. Fails with
// EFAULT if the range is unmapped and EACCES if not writable.
func (as *AddressSpace) Write(addr uint64, data []byte) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	var v *VMA
	for len(data) > 0 {
		if v == nil || addr >= v.End {
			if v = as.findLocked(addr); v == nil {
				return api.EFAULT
			}
			if v.Prot&api.ProtWrite == 0 {
				return api.EACCES
			}
		}
		off := int(addr & (PageSize - 1))
		n := PageSize - off
		if n > len(data) {
			n = len(data)
		}
		l, slot := v.leafFor(addr >> PageShift)
		pg := l.pages[slot]
		if pg == nil {
			pg = NewPage()
			l.pages[slot] = pg
			l.live++
		} else if pg.Shared() {
			pg = pg.copyForWrite()
			l.pages[slot] = pg
		}
		pg.write(off, data[:n])
		l.markDirty(slot)
		data = data[n:]
		addr += uint64(n)
	}
	return nil
}

// Read loads len(buf) bytes from addr. Unmapped ranges fault with EFAULT;
// untouched pages read as zero.
func (as *AddressSpace) Read(addr uint64, buf []byte) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	var v *VMA
	for len(buf) > 0 {
		if v == nil || addr >= v.End {
			if v = as.findLocked(addr); v == nil {
				return api.EFAULT
			}
			if v.Prot&api.ProtRead == 0 {
				return api.EACCES
			}
		}
		off := int(addr & (PageSize - 1))
		n := PageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		if pg := v.page(addr >> PageShift); pg != nil {
			pg.read(off, buf[:n])
		} else {
			for i := 0; i < n; i++ {
				buf[i] = 0
			}
		}
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// Mapped reports whether addr is inside a mapping.
func (as *AddressSpace) Mapped(addr uint64) bool {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.findLocked(addr) != nil
}

// CommittedBytes returns the total mapped size.
func (as *AddressSpace) CommittedBytes() uint64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.committed
}

// ResidentBytes returns the resident set size: bytes of touched pages.
// Pages shared COW between address spaces are charged fractionally the
// same way the kernel's RSS counts them fully but KSM-style sharing is
// what Figure 4 measures — we charge a shared page to every mapper divided
// by its reference count, matching "incremental cost of a child" in §6.2.
func (as *AddressSpace) ResidentBytes() uint64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	var total float64
	as.walkLocked(0, maxPageIdx, func(l *ptLeaf, _ uint64, from, to int) {
		for _, pg := range l.pages[from:to] {
			if pg == nil || !pg.Resident() {
				continue
			}
			refs := pg.refs.Load()
			if refs < 1 {
				refs = 1
			}
			total += float64(PageSize) / float64(refs)
		}
	})
	return uint64(total)
}

// SnapshotRegions returns a copy of the VMA list (for checkpointing).
func (as *AddressSpace) SnapshotRegions() []VMA {
	as.mu.Lock()
	defer as.mu.Unlock()
	out := make([]VMA, 0, len(as.vmas))
	for _, v := range as.vmas {
		out = append(out, VMA{Start: v.Start, End: v.End, Prot: v.Prot})
	}
	return out
}

// collect gathers, in ascending address order, the resident pages with
// index in [lo, hi) — all of them, or only those with their dirty bit set.
func (as *AddressSpace) collect(lo, hi uint64, dirtyOnly bool) (idxs []uint64, pages []*Page) {
	as.mu.Lock()
	defer as.mu.Unlock()
	// Size both slices once: occupied (or dirty) slots bound the result.
	n := 0
	as.walkLocked(lo, hi, func(l *ptLeaf, _ uint64, from, to int) {
		c := l.live
		if dirtyOnly {
			c = l.dirtyCount()
		}
		n += min(c, to-from)
	})
	if n == 0 {
		return nil, nil
	}
	idxs, pages = make([]uint64, 0, n), make([]*Page, 0, n)
	as.walkLocked(lo, hi, func(l *ptLeaf, base uint64, from, to int) {
		for s := from; s < to; s++ {
			if dirtyOnly {
				// Jump to the next set bit of this word, or to the next word.
				w := l.dirty[s>>6] >> (s & 63)
				if w == 0 {
					s |= 63
					continue
				}
				if s += bits.TrailingZeros64(w); s >= to {
					return
				}
			}
			if pg := l.pages[s]; pg != nil && pg.Resident() {
				idxs = append(idxs, base+uint64(s))
				pages = append(pages, pg)
			}
		}
	})
	return idxs, pages
}

// TouchedPages returns the indices of resident pages within [start, end),
// along with their backing pages, for bulk IPC. Indices ascend: a bulk-IPC
// batch and a migration image list their pages in address order, the same
// order on every run.
func (as *AddressSpace) TouchedPages(start, end uint64) (idxs []uint64, pages []*Page) {
	return as.collect(pageAlignUp(start)>>PageShift, pageAlignUp(end)>>PageShift, false)
}

// DirtyPages returns the indices (and backing pages) of resident pages
// within [start, end) written since the last ResetDirty, in ascending
// address order. This is what an incremental checkpoint ships: the write
// working set, not the full resident set.
func (as *AddressSpace) DirtyPages(start, end uint64) (idxs []uint64, pages []*Page) {
	return as.collect(start>>PageShift, pageAlignUp(end)>>PageShift, true)
}

// ResetDirty clears the dirty set — called after a checkpoint snapshot so
// the next one ships only pages touched since.
func (as *AddressSpace) ResetDirty() {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.walkLocked(0, maxPageIdx, func(l *ptLeaf, _ uint64, _, _ int) { l.dirty = [leafPages / 64]uint64{} })
}

// DirtyPageCount returns the number of pages in the dirty set.
func (as *AddressSpace) DirtyPageCount() int {
	as.mu.Lock()
	defer as.mu.Unlock()
	n := 0
	as.walkLocked(0, maxPageIdx, func(l *ptLeaf, _ uint64, _, _ int) { n += l.dirtyCount() })
	return n
}

// InstallPage maps pg (shared, COW) at page index idx. The target range
// must already be mapped. Used by bulk IPC on the receive side.
func (as *AddressSpace) InstallPage(idx uint64, pg *Page) error {
	if as.installPages([]uint64{idx}, []*Page{pg}, 0) == 0 {
		return api.EFAULT
	}
	return nil
}

// InstallPages maps pages[i] at page index idxs[i] under a single lock
// acquisition — the batched receive side of bulk IPC, one lock per batch
// instead of one per page. Pages whose target index is unmapped are
// skipped. Returns the number installed.
func (as *AddressSpace) InstallPages(idxs []uint64, pages []*Page) int {
	return as.installPages(idxs, pages, 0)
}

// installPages installs pages[i] at index idxs[i]+rebase (modulo 2^64, so a
// receiver may sit below the sender). Ascending batches stay in one VMA and
// one leaf for long runs, so the VMA is looked up only when an index leaves
// the current one.
func (as *AddressSpace) installPages(idxs []uint64, pages []*Page, rebase uint64) int {
	as.mu.Lock()
	defer as.mu.Unlock()
	installed := 0
	var v *VMA
	for i, idx := range idxs {
		idx += rebase
		if v == nil || idx < v.Start>>PageShift || idx >= v.End>>PageShift {
			if idx >= maxPageIdx {
				continue
			}
			if v = as.findLocked(idx << PageShift); v == nil {
				continue
			}
		}
		l, slot := v.leafFor(idx)
		if old := l.pages[slot]; old != nil {
			old.Unref()
		} else {
			l.live++
		}
		pages[i].Ref()
		l.pages[slot] = pages[i]
		l.markDirty(slot)
		installed++
	}
	return installed
}

// TouchRange makes every page of [addr, addr+length) resident in one pass:
// one lock acquisition and one backing-slab allocation for the whole range
// instead of a page-at-a-time write loop. Pages already resident are left
// alone. The slab stays alive while any of its pages does (COW breaks copy
// out of it); callers load large fixed images (the libOS image) where all
// pages are fresh, so the over-retention case does not arise in practice.
func (as *AddressSpace) TouchRange(addr, length uint64) error {
	if length == 0 {
		return nil
	}
	start := pageAlignDown(addr)
	end := pageAlignUp(addr + length)
	as.mu.Lock()
	defer as.mu.Unlock()
	// Fresh pages materialize as zero-fill out of one Page slab: no
	// backing memclr (the dominant cost of the old per-page loop — 1.4 MB
	// zeroed per fork for the libOS image), and one allocation for the
	// whole range's bookkeeping.
	slab := make([]Page, (end-start)>>PageShift)
	var v *VMA
	for a := start; a < end; a += PageSize {
		if v == nil || a >= v.End {
			if v = as.findLocked(a); v == nil {
				return api.EFAULT
			}
			if v.Prot&api.ProtWrite == 0 {
				return api.EACCES
			}
		}
		l, slot := v.leafFor(a >> PageShift)
		switch pg := l.pages[slot]; {
		case pg == nil:
			fresh := &slab[(a-start)>>PageShift]
			fresh.refs.Store(1)
			fresh.zeroFill = true
			l.pages[slot] = fresh
			l.live++
		case pg.Shared():
			l.pages[slot] = pg.copyForWrite()
		}
		l.markDirty(slot)
	}
	return nil
}

// ForkCOW clones the address space with every resident page shared
// copy-on-write — the in-kernel fast path a native fork takes, as opposed
// to Graphene's checkpoint+bulk-IPC fork which serializes libOS state.
func (as *AddressSpace) ForkCOW() *AddressSpace {
	as.mu.Lock()
	defer as.mu.Unlock()
	child := NewAddressSpace()
	child.next = as.next
	child.committed = as.committed
	child.vmas = make([]*VMA, 0, len(as.vmas))
	for _, v := range as.vmas {
		nv := &VMA{Start: v.Start, End: v.End, Prot: v.Prot, topLo: v.topLo}
		if len(v.top) > 0 {
			nv.top = make([]*ptLeaf, len(v.top))
		}
		for i, l := range v.top {
			if l == nil {
				continue
			}
			// The child starts with a clean dirty bitmap.
			nl := &ptLeaf{pages: l.pages, live: l.live}
			for _, pg := range nl.pages {
				if pg != nil {
					pg.Ref()
				}
			}
			nv.top[i] = nl
		}
		child.vmas = append(child.vmas, nv)
	}
	return child
}

// Release drops all mappings (process exit).
func (as *AddressSpace) Release() {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.walkLocked(0, maxPageIdx, unrefSlots)
	as.vmas = nil
	as.committed = 0
}

func (as *AddressSpace) insertLocked(v *VMA) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].Start >= v.Start })
	as.vmas = append(as.vmas, nil)
	copy(as.vmas[i+1:], as.vmas[i:])
	as.vmas[i] = v
}

func (as *AddressSpace) findLocked(addr uint64) *VMA {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > addr })
	if i < len(as.vmas) && as.vmas[i].Start <= addr {
		return as.vmas[i]
	}
	return nil
}

func (as *AddressSpace) overlapsLocked(start, end uint64) bool {
	for _, v := range as.vmas {
		if v.Start < end && start < v.End {
			return true
		}
	}
	return false
}

func (as *AddressSpace) findFreeLocked(length uint64) uint64 {
	addr := as.next
	for addr+length <= mmapTop {
		if !as.overlapsLocked(addr, addr+length) {
			as.next = addr + length
			return addr
		}
		// Skip past the blocking VMA.
		for _, v := range as.vmas {
			if v.Start < addr+length && addr < v.End {
				addr = v.End
				break
			}
		}
	}
	return 0
}

func (as *AddressSpace) String() string {
	as.mu.Lock()
	defer as.mu.Unlock()
	return fmt.Sprintf("AddressSpace{%d vmas, %d committed}", len(as.vmas), as.committed)
}
