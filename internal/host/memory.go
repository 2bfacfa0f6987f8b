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
	// image marks a page of a kernel image (image.go). It is set before the
	// image is first mapped and never changes; a copy made for a write is
	// an ordinary page.
	image bool
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

// slotMask is a bitmap over the slots of one leaf.
type slotMask [leafPages / 64]uint64

func (m *slotMask) set(slot int) { m[slot>>6] |= 1 << (slot & 63) }

func (m *slotMask) or(o slotMask) {
	for w := range m {
		m[w] |= o[w]
	}
}

func (m *slotMask) count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// within returns the bits of m in slots [from, to).
func (m *slotMask) within(from, to int) slotMask {
	var r slotMask
	for w := from >> 6; w<<6 < to; w++ {
		lo, word := w<<6, m[w]
		if from > lo {
			word &^= 1<<(from-lo) - 1
		}
		if to < lo+64 {
			word &= 1<<(to-lo) - 1
		}
		r[w] = word
	}
	return r
}

// span returns the smallest slot range [from, to) holding every set bit
// of a non-empty m.
func (m *slotMask) span() (from, to int) {
	first, last := -1, 0
	for w, word := range m {
		if word == 0 {
			continue
		}
		if first < 0 {
			first = w<<6 | bits.TrailingZeros64(word)
		}
		last = w<<6 | (63 - bits.LeadingZeros64(word))
	}
	return first, last + 1
}

// leafSlots is the 512 page slots of one leaf, the unit of copy-on-write
// sharing. A fork or a bulk-IPC commit shares a whole leaf by taking one
// reference on its slots, not one per page; a page holds one reference per
// block of slots it sits in, however many page tables share that block.
// While a block has more than one reference (page tables, queued bulk-IPC
// batches) it is immutable: the first write, install, Free or Protect cut
// into it gives the page table its own copy of the slot pointers. Which
// slots are occupied is not kept here but by each holder, which knows it
// anyway (ptLeaf.occ, batchLeaf.occ).
type leafSlots struct {
	refs  atomic.Int32
	pages [leafPages]*Page
}

func newSlots() *leafSlots {
	s := new(leafSlots)
	s.refs.Store(1)
	return s
}

// unref drops one reference, made by a holder whose occupied slots are
// occ; the last drops the block's page references.
func (s *leafSlots) unref(occ slotMask) {
	if s.refs.Add(-1) != 0 {
		return
	}
	for w, word := range occ {
		for ; word != 0; word &= word - 1 {
			s.pages[w<<6|bits.TrailingZeros64(word)].Unref()
		}
	}
}

// share copies the page pointers at the slots of src set in from into s,
// moved by shift slots, taking a reference on each page and dropping the
// one on any page it replaces. It returns the slots of s it filled. It is
// the table's one copy routine: the copy a write makes of a shared leaf, a
// cut through a leaf, a partial-leaf commit and a misaligned or merging
// map all go through it.
func (s *leafSlots) share(src *leafSlots, from slotMask, shift int) (filled slotMask) {
	for w, word := range from {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			pg := src.pages[i]
			pg.Ref()
			if old := s.pages[i+shift]; old != nil {
				old.Unref()
			}
			s.pages[i+shift] = pg
			filled.set(i + shift)
		}
	}
	return filled
}

// ptLeaf is one address space's view of a leaf: its slots, which it may
// share, and what stays per address space — the occupied slots and those
// written since the last ResetDirty. A dirty slot is always occupied.
type ptLeaf struct {
	s          *leafSlots
	occ, dirty slotMask
	// mappers is set while the leaf holds a kernel image's own block: it
	// counts the page tables sharing this one mapping of the image (the
	// mapper and the children forked from it), which split its charge the
	// way fork sharers split a page. nil for every other leaf.
	mappers *atomic.Int32
}

// newLeaf returns an empty leaf with private slots, in one allocation.
func newLeaf() *ptLeaf {
	b := new(struct {
		l ptLeaf
		s leafSlots
	})
	b.s.refs.Store(1)
	b.l.s = &b.s
	return &b.l
}

// newImageLeaf returns a leaf that adopts a reference on a kernel image's
// block as one new mapping of it, in one allocation.
func newImageLeaf(s *leafSlots, occ slotMask) *ptLeaf {
	b := new(struct {
		l ptLeaf
		n atomic.Int32
	})
	b.n.Store(1)
	b.l = ptLeaf{s: s, occ: occ, dirty: occ, mappers: &b.n}
	return &b.l
}

// own returns l's slots for modification, first replacing them with a
// private copy if they are shared. A kernel image's block always is (the
// kernel keeps its own reference), so no write ever reaches it.
func (l *ptLeaf) own() *leafSlots {
	if l.s.refs.Load() > 1 {
		s := newSlots()
		s.share(l.s, l.occ, 0)
		l.release()
		l.s = s
	}
	return l.s
}

// release drops l's reference on its slots, and its mapper count if it
// holds a kernel image's block.
func (l *ptLeaf) release() {
	l.s.unref(l.occ)
	if l.mappers != nil {
		l.mappers.Add(-1)
		l.mappers = nil
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
	return v.top[li].s.pages[idx&(leafPages-1)]
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
		*ref = newLeaf()
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

// piece carves [start, end) out of v as a new VMA with protection prot.
// v is being replaced by disjoint pieces: a leaf whose pages all lie inside
// the piece moves there and leaves v; a leaf the cut goes through gives the
// piece a copy of its slots and dirty bits in range. The caller releases
// what stays in v.
func (v *VMA) piece(start, end uint64, prot int) *VMA {
	nv := &VMA{Start: start, End: end, Prot: prot}
	v.leaves(start>>PageShift, end>>PageShift, func(l *ptLeaf, base uint64, from, to int) {
		in := l.occ.within(from, to)
		if in == (slotMask{}) {
			return
		}
		ref := nv.leafRef(base >> leafShift)
		if in == l.occ {
			*ref = l
			v.top[base>>leafShift-v.topLo] = nil
			return
		}
		dst := &ptLeaf{s: newSlots(), occ: in, dirty: l.dirty.within(from, to)}
		dst.s.share(l.s, in, 0)
		*ref = dst
	})
	return nv
}

// release drops v's references on the slots of the leaves it still holds.
func (v *VMA) release() {
	for _, l := range v.top {
		if l != nil {
			l.release()
		}
	}
	v.top = nil
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
		// Overlap: keep the non-overlapping head and tail, release the
		// rest.
		if v.Start < start {
			kept = append(kept, v.piece(v.Start, start, v.Prot))
		}
		if v.End > end {
			kept = append(kept, v.piece(end, v.End, v.Prot))
		}
		v.release()
		as.committed -= min(v.End, end) - max(v.Start, start)
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
			v.release()
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
		s := l.own()
		pg := s.pages[slot]
		if pg == nil {
			pg = NewPage()
			s.pages[slot] = pg
			l.occ.set(slot)
		} else if pg.Shared() {
			pg = pg.copyForWrite()
			s.pages[slot] = pg
		}
		pg.write(off, data[:n])
		l.dirty.set(slot)
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

// ResidentBytes returns the resident set size: bytes of touched pages,
// with a shared page charged in part. A page is charged
// PageSize / (page refs × leaf refs): its references count the blocks of
// slots it sits in, and each block's references count the page tables
// sharing it. For a page shared only by fork that is PageSize / sharers,
// and over every sharer the charges sum to one page — the "incremental
// cost of a child" Figure 4 measures (§6.2).
//
// A kernel image page is charged in full to each mapping of the image,
// split only among the page tables a fork made of that mapping: the image
// stands for each picoprocess's private libOS state, of which only the
// content is not modelled, so sharing its block must not shrink the
// footprint. Its page references (the kernel's block, the copies writes
// made) and the kernel's block reference are not sharers.
func (as *AddressSpace) ResidentBytes() uint64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	var total float64
	as.walkLocked(0, maxPageIdx, func(l *ptLeaf, _ uint64, _, _ int) {
		leafRefs := float64(max(l.s.refs.Load(), 1))
		mappers := leafRefs
		if l.mappers != nil {
			mappers = float64(max(l.mappers.Load(), 1))
		}
		for w, word := range l.occ {
			for ; word != 0; word &= word - 1 {
				switch pg := l.s.pages[w<<6|bits.TrailingZeros64(word)]; {
				case pg.image:
					total += float64(PageSize) / mappers
				case pg.Resident():
					total += float64(PageSize) / (float64(max(pg.refs.Load(), 1)) * leafRefs)
				}
			}
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
	set := func(l *ptLeaf, from, to int) slotMask {
		if dirtyOnly {
			return l.dirty.within(from, to)
		}
		return l.occ.within(from, to)
	}
	// Size both slices once: occupied (or dirty) slots bound the result.
	n := 0
	as.walkLocked(lo, hi, func(l *ptLeaf, _ uint64, from, to int) {
		m := set(l, from, to)
		n += m.count()
	})
	if n == 0 {
		return nil, nil
	}
	idxs, pages = make([]uint64, 0, n), make([]*Page, 0, n)
	as.walkLocked(lo, hi, func(l *ptLeaf, base uint64, from, to int) {
		for w, word := range set(l, from, to) {
			for ; word != 0; word &= word - 1 {
				s := w<<6 | bits.TrailingZeros64(word)
				if pg := l.s.pages[s]; pg.Resident() {
					idxs = append(idxs, base+uint64(s))
					pages = append(pages, pg)
				}
			}
		}
	})
	return idxs, pages
}

// TouchedPages returns the indices of resident pages within [start, end),
// along with their backing pages. Indices ascend: a migration image lists
// its pages in address order, the same order on every run. Like every
// range helper here, the range covers each page it touches: the one
// holding start included.
func (as *AddressSpace) TouchedPages(start, end uint64) (idxs []uint64, pages []*Page) {
	return as.collect(start>>PageShift, pageAlignUp(end)>>PageShift, false)
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
	as.walkLocked(0, maxPageIdx, func(l *ptLeaf, _ uint64, _, _ int) { l.dirty = slotMask{} })
}

// DirtyPageCount returns the number of pages in the dirty set.
func (as *AddressSpace) DirtyPageCount() int {
	as.mu.Lock()
	defer as.mu.Unlock()
	n := 0
	as.walkLocked(0, maxPageIdx, func(l *ptLeaf, _ uint64, _, _ int) { n += l.dirty.count() })
	return n
}

// batchLeaf is one leaf of a bulk-IPC batch or of a kernel image: a
// reference on a block of slots, whose occupied slots are occ, slot 0 at
// sender page index idx. image marks a kernel image's own block: a page
// table that adopts it is one more mapping of the image.
type batchLeaf struct {
	s     *leafSlots
	idx   uint64
	occ   slotMask
	image bool
}

// shareLeaves returns one reference per leaf holding pages of page indices
// [lo, hi), in ascending address order, and the number of pages they
// carry. A leaf whose pages all lie in the range is shared as it is; a
// leaf the range cuts gives a copy of its slots in range.
func (as *AddressSpace) shareLeaves(lo, hi uint64) ([]batchLeaf, int) {
	as.mu.Lock()
	defer as.mu.Unlock()
	n := 0
	as.walkLocked(lo, hi, func(*ptLeaf, uint64, int, int) { n++ })
	if n == 0 {
		return nil, 0
	}
	refs, pages := make([]batchLeaf, 0, n), 0
	as.walkLocked(lo, hi, func(l *ptLeaf, base uint64, from, to int) {
		in := l.occ.within(from, to)
		if in == (slotMask{}) {
			return
		}
		s, image := l.s, l.mappers != nil
		if in == l.occ {
			s.refs.Add(1)
		} else {
			s, image = newSlots(), false
			s.share(l.s, in, 0)
		}
		refs = append(refs, batchLeaf{s: s, idx: base, occ: in, image: image})
		pages += in.count()
	})
	return refs, pages
}

// releaseLeaves drops the references of leaves never mapped.
func releaseLeaves(refs []batchLeaf) {
	for _, r := range refs {
		r.s.unref(r.occ)
	}
}

// mapLeaves installs the pages of refs into as, each moved by rebase page
// indices (modulo 2^64, so a receiver may sit below the sender), and
// consumes the references. A leaf that lands at the same slots inside one
// VMA, on a leaf holding no page, is adopted as it is: one pointer (a
// kernel image's block adopted so is one new mapping of the image). Any
// other — a misaligned rebase, a leaf the receiver's mappings cut, pages
// already there — is copied into the receiver's own slots. Pages whose
// target is unmapped are skipped; every installed slot is dirty. Returns
// the number of pages installed.
func (as *AddressSpace) mapLeaves(refs []batchLeaf, rebase uint64) int {
	as.mu.Lock()
	defer as.mu.Unlock()
	installed := 0
	for _, r := range refs {
		from, to := r.occ.span()
		adopted := false
		for s := from; s < to; {
			t := r.idx + uint64(s) + rebase
			if t >= maxPageIdx {
				// Beyond 64-bit addresses until the index wraps.
				s += int(min(uint64(to-s), -t))
				continue
			}
			i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > t<<PageShift })
			if i == len(as.vmas) {
				break
			}
			v := as.vmas[i]
			if first := v.Start >> PageShift; first > t {
				s += int(min(uint64(to-s), first-t))
				continue
			}
			slot := int(t & (leafPages - 1))
			n := min(to-s, leafPages-slot)
			if rest := v.End>>PageShift - t; rest < uint64(n) {
				n = int(rest)
			}
			ref := v.leafRef(t >> leafShift)
			if l := *ref; slot == s && s == from && n == to-from && (l == nil || l.occ == slotMask{}) {
				if l != nil {
					l.release()
				}
				if r.image {
					*ref = newImageLeaf(r.s, r.occ)
				} else {
					*ref = &ptLeaf{s: r.s, occ: r.occ, dirty: r.occ}
				}
				installed += r.occ.count()
				adopted = true
				break
			}
			if run := r.occ.within(s, s+n); run != (slotMask{}) {
				if *ref == nil {
					*ref = newLeaf()
				}
				l := *ref
				filled := l.own().share(r.s, run, slot-s)
				l.occ.or(filled)
				l.dirty.or(filled)
				installed += filled.count()
			}
			s += n
		}
		if !adopted {
			r.s.unref(r.occ)
		}
	}
	return installed
}

// TouchRange makes every page of [addr, addr+length) resident in one pass:
// one lock acquisition and one backing-slab allocation for the whole range
// instead of a page-at-a-time write loop. Pages already resident are left
// alone. The slab stays alive while any of its pages does (COW breaks copy
// out of it). It builds each kernel image once (image.go), where all pages
// are fresh, so the over-retention case does not arise; a picoprocess maps
// the image with Kernel.MapImage instead of building its own.
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
	var l *ptLeaf
	var s *leafSlots
	for a := start; a < end; a += PageSize {
		if v == nil || a >= v.End {
			if v = as.findLocked(a); v == nil {
				return api.EFAULT
			}
			if v.Prot&api.ProtWrite == 0 {
				return api.EACCES
			}
		}
		next, slot := v.leafFor(a >> PageShift)
		if next != l {
			l, s = next, next.own()
		}
		switch pg := s.pages[slot]; {
		case pg == nil:
			fresh := &slab[(a-start)>>PageShift]
			fresh.refs.Store(1)
			fresh.zeroFill = true
			s.pages[slot] = fresh
			l.occ.set(slot)
		case pg.Shared():
			s.pages[slot] = pg.copyForWrite()
		}
		l.dirty.set(slot)
	}
	return nil
}

// ForkCOW clones the address space with every leaf shared copy-on-write
// — the in-kernel fast path a native fork takes, as opposed to Graphene's
// checkpoint+bulk-IPC fork which serializes libOS state.
func (as *AddressSpace) ForkCOW() *AddressSpace {
	child := NewAddressSpace()
	as.ForkCOWInto(child)
	return child
}

// ForkCOWInto makes child, an empty address space (a just-created
// picoprocess's), a copy-on-write clone of as. Filling the child in place
// rather than swapping Picoprocess.AS keeps the field immutable for
// concurrent footprint readers.
func (as *AddressSpace) ForkCOWInto(child *AddressSpace) {
	as.mu.Lock()
	defer as.mu.Unlock()
	child.mu.Lock()
	defer child.mu.Unlock()
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
			// One reference per leaf; the child starts with a clean
			// dirty bitmap, and shares its parent's mapping of an image.
			l.s.refs.Add(1)
			if l.mappers != nil {
				l.mappers.Add(1)
			}
			nv.top[i] = &ptLeaf{s: l.s, occ: l.occ, mappers: l.mappers}
		}
		child.vmas = append(child.vmas, nv)
	}
}

// Release drops all mappings (process exit).
func (as *AddressSpace) Release() {
	as.mu.Lock()
	defer as.mu.Unlock()
	for _, v := range as.vmas {
		v.release()
	}
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
