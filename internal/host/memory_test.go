package host

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"graphene/internal/api"
)

func TestAllocAndReadWrite(t *testing.T) {
	as := NewAddressSpace()
	addr, err := as.Alloc(0, 3*PageSize, api.ProtRead|api.ProtWrite)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	data := []byte("hello, picoprocess")
	if err := as.Write(addr+100, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, len(data))
	if err := as.Read(addr+100, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("round trip: got %q want %q", buf, data)
	}
}

func TestAllocFixedAddress(t *testing.T) {
	as := NewAddressSpace()
	const want = uint64(0x1000_0000)
	got, err := as.Alloc(want, PageSize, api.ProtRead)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if got != want {
		t.Fatalf("Alloc addr = %#x, want %#x", got, want)
	}
	if _, err := as.Alloc(want, PageSize, api.ProtRead); err != api.ENOMEM {
		t.Fatalf("overlapping Alloc err = %v, want ENOMEM", err)
	}
}

func TestAllocZeroLength(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Alloc(0, 0, api.ProtRead); err != api.EINVAL {
		t.Fatalf("err = %v, want EINVAL", err)
	}
}

func TestReadUnmappedFaults(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Read(0xdead000, make([]byte, 8)); err != api.EFAULT {
		t.Fatalf("err = %v, want EFAULT", err)
	}
	if err := as.Write(0xdead000, []byte{1}); err != api.EFAULT {
		t.Fatalf("err = %v, want EFAULT", err)
	}
}

func TestUntouchedPagesReadZero(t *testing.T) {
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, PageSize, api.ProtRead|api.ProtWrite)
	buf := []byte{0xff, 0xff, 0xff}
	if err := as.Read(addr, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestWriteSpansPages(t *testing.T) {
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, 4*PageSize, api.ProtRead|api.ProtWrite)
	data := make([]byte, 2*PageSize+17)
	for i := range data {
		data[i] = byte(i)
	}
	start := addr + PageSize - 9 // straddle boundaries
	if err := as.Write(start, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, len(data))
	if err := as.Read(start, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("multi-page round trip mismatch")
	}
}

func TestProtectEnforced(t *testing.T) {
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, 2*PageSize, api.ProtRead|api.ProtWrite)
	if err := as.Protect(addr, PageSize, api.ProtRead); err != nil {
		t.Fatalf("Protect: %v", err)
	}
	if err := as.Write(addr, []byte{1}); err != api.EACCES {
		t.Fatalf("write to RO page err = %v, want EACCES", err)
	}
	// Second page stayed writable.
	if err := as.Write(addr+PageSize, []byte{1}); err != nil {
		t.Fatalf("write to RW page: %v", err)
	}
	// Unmapped hole cannot be protected.
	if err := as.Protect(addr+8*PageSize, PageSize, api.ProtRead); err != api.ENOMEM {
		t.Fatalf("Protect hole err = %v, want ENOMEM", err)
	}
}

func TestProtectPreservesContents(t *testing.T) {
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, 2*PageSize, api.ProtRead|api.ProtWrite)
	if err := as.Write(addr, []byte("persist")); err != nil {
		t.Fatal(err)
	}
	if err := as.Protect(addr, PageSize, api.ProtRead); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if err := as.Read(addr, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "persist" {
		t.Fatalf("contents lost across Protect: %q", buf)
	}
}

func TestFreeSplitsVMA(t *testing.T) {
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, 4*PageSize, api.ProtRead|api.ProtWrite)
	if err := as.Write(addr, []byte("head")); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(addr+3*PageSize, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := as.Free(addr+PageSize, 2*PageSize); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if as.Mapped(addr + PageSize) {
		t.Fatal("freed page still mapped")
	}
	buf := make([]byte, 4)
	if err := as.Read(addr, buf); err != nil || string(buf) != "head" {
		t.Fatalf("head lost: %q, %v", buf, err)
	}
	if err := as.Read(addr+3*PageSize, buf); err != nil || string(buf) != "tail" {
		t.Fatalf("tail lost: %q, %v", buf, err)
	}
}

func TestCommittedAccounting(t *testing.T) {
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, 10*PageSize, api.ProtRead|api.ProtWrite)
	if got := as.CommittedBytes(); got != 10*PageSize {
		t.Fatalf("committed = %d, want %d", got, 10*PageSize)
	}
	if err := as.Free(addr, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if got := as.CommittedBytes(); got != 6*PageSize {
		t.Fatalf("committed after free = %d, want %d", got, 6*PageSize)
	}
}

func TestResidentOnlyCountsTouched(t *testing.T) {
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, 100*PageSize, api.ProtRead|api.ProtWrite)
	if got := as.ResidentBytes(); got != 0 {
		t.Fatalf("resident before touch = %d, want 0", got)
	}
	if err := as.Write(addr+5*PageSize, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if got := as.ResidentBytes(); got != PageSize {
		t.Fatalf("resident after one touch = %d, want %d", got, PageSize)
	}
}

// shareRange moves the pages of [addr, addr+n) from one address space to
// the same addresses of another through a bulk-IPC batch, and returns the
// number of pages the map installed.
func shareRange(t *testing.T, from, to *AddressSpace, addr, n uint64) int {
	t.Helper()
	st := newIPCStore(1)
	defer st.Close()
	if _, err := st.Commit(from, addr, addr+n); err != nil {
		t.Fatalf("commit: %v", err)
	}
	got, err := st.Map(to, addr)
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	return got
}

func TestCOWSharingViaBulkIPC(t *testing.T) {
	parent := NewAddressSpace()
	addr, _ := parent.Alloc(0, PageSize, api.ProtRead|api.ProtWrite)
	if err := parent.Write(addr, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	child := NewAddressSpace()
	if _, err := child.Alloc(addr, PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	if n := shareRange(t, parent, child, addr, PageSize); n != 1 {
		t.Fatalf("shared %d pages, want 1", n)
	}

	buf := make([]byte, 6)
	if err := child.Read(addr, buf); err != nil || string(buf) != "shared" {
		t.Fatalf("child read: %q, %v", buf, err)
	}

	// Child write must not be visible to the parent (COW break).
	if err := child.Write(addr, []byte("CHANGE")); err != nil {
		t.Fatal(err)
	}
	if err := parent.Read(addr, buf); err != nil || string(buf) != "shared" {
		t.Fatalf("parent saw child's write: %q, %v", buf, err)
	}
	if err := child.Read(addr, buf); err != nil || string(buf) != "CHANGE" {
		t.Fatalf("child lost its write: %q, %v", buf, err)
	}
}

func TestParentWriteAfterShareBreaksCOW(t *testing.T) {
	parent := NewAddressSpace()
	addr, _ := parent.Alloc(0, PageSize, api.ProtRead|api.ProtWrite)
	if err := parent.Write(addr, []byte("before")); err != nil {
		t.Fatal(err)
	}
	child := NewAddressSpace()
	if _, err := child.Alloc(addr, PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	shareRange(t, parent, child, addr, PageSize)
	if err := parent.Write(addr, []byte("parent")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if err := child.Read(addr, buf); err != nil || string(buf) != "before" {
		t.Fatalf("child saw parent's post-share write: %q, %v", buf, err)
	}
}

func TestSharedPageResidentChargedFractionally(t *testing.T) {
	parent := NewAddressSpace()
	addr, _ := parent.Alloc(0, PageSize, api.ProtRead|api.ProtWrite)
	if err := parent.Write(addr, []byte{1}); err != nil {
		t.Fatal(err)
	}
	child := NewAddressSpace()
	if _, err := child.Alloc(addr, PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	shareRange(t, parent, child, addr, PageSize)
	// The leaf now has two references: each space is charged half.
	if got := parent.ResidentBytes() + child.ResidentBytes(); got != PageSize {
		t.Fatalf("combined resident = %d, want %d", got, PageSize)
	}
	// A third sharer by fork: a third each, still one page in all.
	grand := child.ForkCOW()
	if got := parent.ResidentBytes() + child.ResidentBytes() + grand.ResidentBytes(); got < PageSize-2 || got > PageSize {
		t.Fatalf("combined resident of three sharers = %d, want %d", got, PageSize)
	}
}

func TestReleaseDropsEverything(t *testing.T) {
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, 4*PageSize, api.ProtRead|api.ProtWrite)
	if err := as.Write(addr, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	as.Release()
	if as.CommittedBytes() != 0 || as.ResidentBytes() != 0 {
		t.Fatal("Release left accounting nonzero")
	}
	if as.Mapped(addr) {
		t.Fatal("Release left mapping")
	}
}

// Property: for any sequence of in-bounds writes, reading back each write's
// range returns the last bytes written there.
func TestPropertyWriteReadRoundTrip(t *testing.T) {
	f := func(offsets []uint16, payload []byte) bool {
		if len(payload) == 0 {
			payload = []byte{42}
		}
		as := NewAddressSpace()
		base, err := as.Alloc(0, 64*PageSize, api.ProtRead|api.ProtWrite)
		if err != nil {
			return false
		}
		type write struct {
			addr uint64
			data []byte
		}
		var last []write
		for i, off := range offsets {
			addr := base + uint64(off)
			data := payload[:1+i%len(payload)]
			if err := as.Write(addr, data); err != nil {
				return false
			}
			last = append(last, write{addr, append([]byte(nil), data...)})
		}
		// Verify the final write (earlier ones may be overwritten).
		if len(last) > 0 {
			w := last[len(last)-1]
			buf := make([]byte, len(w.data))
			if err := as.Read(w.addr, buf); err != nil {
				return false
			}
			if !bytes.Equal(buf, w.data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: committed accounting is invariant under alloc/free pairs.
func TestPropertyAllocFreeAccounting(t *testing.T) {
	f := func(sizes []uint8) bool {
		as := NewAddressSpace()
		var addrs []uint64
		var lens []uint64
		for _, s := range sizes {
			length := uint64(s%16+1) * PageSize
			a, err := as.Alloc(0, length, api.ProtRead)
			if err != nil {
				return false
			}
			addrs = append(addrs, a)
			lens = append(lens, length)
		}
		for i, a := range addrs {
			if err := as.Free(a, lens[i]); err != nil {
				return false
			}
		}
		return as.CommittedBytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// ============================================================
// Page-table tests: the leaf table against a map-based model.
// ============================================================

// mPage / mSpace are the trivially-correct reference the leaf table is
// checked against: one Go map per concern, keyed by page index, no VMAs.
type mPage struct {
	refs int
	data []byte
	zero bool
}

type mSpace struct {
	prot  map[uint64]int // mapped pages and their protection
	pages map[uint64]*mPage
	dirty map[uint64]bool

	// A kernel image mapping, per leaf: the image pages not yet written
	// (they read the kernel's zeros and live in no pages entry) and the
	// group of spaces whose tables share the leaf's block. A write into the
	// leaf by a member of a group of more than one gives the writer a group
	// of its own, as ptLeaf.own gives it a block of its own.
	imgLeft  map[uint64]bool
	imgGroup map[uint64]*mImage
}

// mImage is one group of spaces sharing a block of image slots.
type mImage struct{ n int }

func newMSpace() *mSpace {
	return &mSpace{prot: map[uint64]int{}, pages: map[uint64]*mPage{}, dirty: map[uint64]bool{},
		imgLeft: map[uint64]bool{}, imgGroup: map[uint64]*mImage{}}
}

func (m *mSpace) alloc(idx, n uint64, prot int) error {
	for i := idx; i < idx+n; i++ {
		if _, ok := m.prot[i]; ok {
			return api.ENOMEM
		}
	}
	for i := idx; i < idx+n; i++ {
		m.prot[i] = prot
	}
	return nil
}

func (m *mSpace) free(idx, n uint64) {
	for l := idx >> leafShift; l <= (idx+n-1)>>leafShift; l++ {
		if g := m.imgGroup[l]; g != nil {
			g.n--
			delete(m.imgGroup, l)
		}
	}
	for i := idx; i < idx+n; i++ {
		delete(m.imgLeft, i)
		if pg := m.pages[i]; pg != nil {
			pg.refs--
		}
		delete(m.pages, i)
		delete(m.dirty, i)
		delete(m.prot, i)
	}
}

func (m *mSpace) protect(idx, n uint64, prot int) error {
	for i := idx; i < idx+n; i++ {
		if _, ok := m.prot[i]; !ok {
			return api.ENOMEM
		}
	}
	for i := idx; i < idx+n; i++ {
		m.prot[i] = prot
	}
	return nil
}

// writable returns the page at idx ready for a store: fresh if absent, a
// private copy if shared.
func (m *mSpace) writable(idx uint64, zero bool) *mPage {
	pg := m.pages[idx]
	switch {
	case pg == nil:
		pg = &mPage{refs: 1, zero: zero}
	case pg.refs > 1:
		pg.refs--
		pg = &mPage{refs: 1, data: append([]byte(nil), pg.data...), zero: pg.zero}
		if len(pg.data) == 0 {
			pg.data = nil
		}
	}
	m.pages[idx] = pg
	m.dirty[idx] = true
	return pg
}

func (m *mSpace) write(addr uint64, data []byte) error {
	for len(data) > 0 {
		idx, off := addr>>PageShift, int(addr&(PageSize-1))
		prot, ok := m.prot[idx]
		if !ok {
			return api.EFAULT
		}
		if prot&api.ProtWrite == 0 {
			return api.EACCES
		}
		n := min(PageSize-off, len(data))
		if g := m.imgGroup[idx>>leafShift]; g != nil && g.n > 1 {
			g.n--
			m.imgGroup[idx>>leafShift] = &mImage{n: 1}
		}
		delete(m.imgLeft, idx)
		pg := m.writable(idx, false)
		if pg.data == nil {
			pg.data = make([]byte, PageSize)
		}
		copy(pg.data[off:], data[:n])
		data, addr = data[n:], addr+uint64(n)
	}
	return nil
}

func (m *mSpace) touch(idx, n uint64) error {
	for i := idx; i < idx+n; i++ {
		prot, ok := m.prot[i]
		if !ok {
			return api.EFAULT
		}
		if prot&api.ProtWrite == 0 {
			return api.EACCES
		}
		m.writable(i, true)
	}
	return nil
}

func (m *mSpace) install(idxs []uint64, pages []*mPage) int {
	n := 0
	for i, idx := range idxs {
		if _, ok := m.prot[idx]; !ok {
			continue
		}
		if old := m.pages[idx]; old != nil {
			old.refs--
		}
		pages[i].refs++
		m.pages[idx] = pages[i]
		m.dirty[idx] = true
		n++
	}
	return n
}

// mapImage maps an image of n pages at idx: a fresh group per leaf, every
// page dirty.
func (m *mSpace) mapImage(idx, n uint64) {
	_ = m.alloc(idx, n, api.ProtRead|api.ProtWrite)
	for i := idx; i < idx+n; i++ {
		m.imgLeft[i], m.dirty[i] = true, true
		if m.imgGroup[i>>leafShift] == nil {
			m.imgGroup[i>>leafShift] = &mImage{n: 1}
		}
	}
}

// imageBytes is m's charge for the image pages it has not written: in
// full, split among its group.
func (m *mSpace) imageBytes() float64 {
	total := 0.0
	for i := range m.imgLeft {
		total += float64(PageSize) / float64(m.imgGroup[i>>leafShift].n)
	}
	return total
}

func (m *mSpace) fork() *mSpace {
	c := newMSpace()
	for i, p := range m.prot {
		c.prot[i] = p
	}
	for i, pg := range m.pages {
		pg.refs++
		c.pages[i] = pg
	}
	for l, g := range m.imgGroup {
		g.n++
		c.imgGroup[l] = g
	}
	for i := range m.imgLeft {
		c.imgLeft[i] = true
	}
	return c
}

func (m *mSpace) sortedIdxs(dirtyOnly bool) []uint64 {
	var out []uint64
	for i, pg := range m.pages {
		if (pg.data != nil || pg.zero) && (!dirtyOnly || m.dirty[i]) {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func (m *mSpace) resident() uint64 {
	var total float64
	for _, i := range m.sortedIdxs(false) {
		total += float64(PageSize) / float64(max(m.pages[i].refs, 1))
	}
	return uint64(total)
}

// distinctResident counts the resident pages of the models, each once
// however many spaces map it.
func distinctResident(models []*mSpace) int {
	seen := map[*mPage]bool{}
	for _, m := range models {
		for _, i := range m.sortedIdxs(false) {
			seen[m.pages[i]] = true
		}
	}
	return len(seen)
}

// release drops every mapping of m, as process exit does.
func (m *mSpace) release() {
	for _, pg := range m.pages {
		pg.refs--
	}
	for _, g := range m.imgGroup {
		g.n--
	}
}

// sharers walks the real tables of spaces and checks the two reference
// counts leaf sharing keeps against what holds them: a block of slots
// has one reference per page table holding it (and a kernel image's one
// more, the kernel's), and a page one per slot it fills in a distinct
// block. It returns each page's sharers — the page tables that map it,
// the number the model keeps as a page's refs.
func sharers(t *testing.T, spaces []*AddressSpace, blocks map[*leafSlots]bool, img *kernelImage) map[*Page]int {
	t.Helper()
	holders, kernel := map[*leafSlots]int{}, map[*leafSlots]bool{}
	for _, l := range img.leaves {
		holders[l.s], kernel[l.s] = 0, true
	}
	for _, as := range spaces {
		as.mu.Lock()
		as.walkLocked(0, maxPageIdx, func(l *ptLeaf, _ uint64, _, _ int) { holders[l.s]++ })
		as.mu.Unlock()
	}
	slots, mappers := map[*Page]int{}, map[*Page]int{}
	for b, n := range holders {
		blocks[b] = true
		want := n
		if kernel[b] {
			want++
		}
		if got := int(b.refs.Load()); got != want {
			t.Fatalf("a block of slots has %d references, %d page tables hold it (kernel's: %v)", got, n, kernel[b])
		}
		for _, pg := range b.pages {
			if pg != nil {
				slots[pg]++
				mappers[pg] += n
			}
		}
	}
	for pg, n := range slots {
		if got := int(pg.refs.Load()); got != n {
			t.Fatalf("a page has %d references, it fills %d slots", got, n)
		}
	}
	return mappers
}

// TestPropertyPageTableMatchesModel runs random operation sequences on up
// to five address spaces related by ForkCOW chains and bulk-IPC commits
// and maps (some spawned empty, so a map adopts whole leaves), and after every step compares the leaf table with the map
// model: accounting, the touched and dirty sets (and their order), every
// page's sharers, the block and page reference counts, ResidentBytes
// summed over the spaces against the distinct resident pages, and at the
// end every byte. The arena straddles three leaf boundaries and ranges
// are biased toward them, so cuts through a leaf — shared or not — are
// the common case. A map lands at the sender's addresses, a whole leaf
// away, or at a misaligned offset; any space may exit at any time.
//
// Any space may also map a kernel image that straddles a leaf boundary,
// write into it and unmap it. After every step the kernel's image still
// reads all zeros, and ResidentBytes summed over the spaces is the distinct
// resident pages plus each mapping's unwritten image pages in full.
func TestPropertyPageTableMatchesModel(t *testing.T) {
	const (
		arenaPages = 3*leafPages + 200
		arenaBase  = uint64(0x4000_0000)>>PageShift - 100 // 100 pages below a leaf boundary
		arenaStart = arenaBase << PageShift
		arenaEnd   = (arenaBase + arenaPages) << PageShift
		maxSpaces  = 5
		imgPages   = 60
		imgBase    = uint64(0x7000_0000_0000)>>PageShift - 20 // 20 pages below a leaf boundary
		imgStart   = imgBase << PageShift
	)
	inArena := func(idxs []uint64) []uint64 {
		return slices.DeleteFunc(idxs, func(i uint64) bool { return i < arenaBase || i >= arenaBase+arenaPages })
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		kern := NewKernel()
		img, err := kern.images.image(imgStart, imgPages*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		// pickRange returns a page range inside the arena, half the time
		// starting within 8 pages of a leaf boundary.
		pickRange := func(maxLen int) (idx, n uint64) {
			n = uint64(1 + rng.Intn(maxLen))
			if rng.Intn(2) == 0 {
				boundary := (arenaBase>>leafShift + 1 + uint64(rng.Intn(3))) << leafShift
				idx = boundary - 8 + uint64(rng.Intn(16))
			} else {
				idx = arenaBase + uint64(rng.Intn(arenaPages))
			}
			if idx+n > arenaBase+arenaPages {
				n = arenaBase + arenaPages - idx
			}
			return idx, n
		}
		spaces := []*AddressSpace{NewAddressSpace()}
		models := []*mSpace{newMSpace()}
		seen := map[*Page]bool{}        // every real page that was ever in a table
		blocks := map[*leafSlots]bool{} // every block of slots that was

		check := func(step int, op string) {
			t.Helper()
			mappers := sharers(t, spaces, blocks, img)
			if !imageIsZero(img) {
				t.Fatalf("seed %d step %d (%s): a write reached the kernel's image", seed, step, op)
			}
			var resident uint64
			var imageBytes float64
			for i, as := range spaces {
				m := models[i]
				if got, want := as.CommittedBytes(), uint64(len(m.prot))*PageSize; got != want {
					t.Fatalf("seed %d step %d (%s) space %d: committed %d, model %d", seed, step, op, i, got, want)
				}
				resident += as.ResidentBytes()
				imageBytes += m.imageBytes()
				if got, want := as.DirtyPageCount(), len(m.dirty); got != want {
					t.Fatalf("seed %d step %d (%s) space %d: dirty count %d, model %d", seed, step, op, i, got, want)
				}
				idxs, pages := as.TouchedPages(arenaStart, arenaEnd)
				if want := inArena(m.sortedIdxs(false)); !slices.Equal(idxs, want) {
					t.Fatalf("seed %d step %d (%s) space %d: touched %v, model %v", seed, step, op, i, idxs, want)
				}
				for j, pg := range pages {
					seen[pg] = true
					if got, want := mappers[pg], m.pages[idxs[j]].refs; got != want {
						t.Fatalf("seed %d step %d (%s) space %d page %#x: %d sharers, model %d", seed, step, op, i, idxs[j], got, want)
					}
				}
				if didxs, _ := as.DirtyPages(arenaStart, arenaEnd); !slices.Equal(didxs, inArena(m.sortedIdxs(true))) {
					t.Fatalf("seed %d step %d (%s) space %d: dirty %v, model %v", seed, step, op, i, didxs, inArena(m.sortedIdxs(true)))
				}
			}
			// Each space's figure is truncated once, so the sum may fall
			// short of the distinct pages by less than a byte per space
			// (and one more for the image charges' rounding).
			want := uint64(float64(distinctResident(models)*PageSize) + imageBytes + 0.5)
			if resident > want || resident+uint64(len(spaces))+1 < want {
				t.Fatalf("seed %d step %d (%s): resident summed over %d spaces %d, distinct pages plus image mappings %d", seed, step, op, len(spaces), resident, want)
			}
		}

		for step := 0; step < 400; step++ {
			k := rng.Intn(len(spaces))
			as, m := spaces[k], models[k]
			var op string
			switch r := rng.Intn(110); {
			case r >= 100 && r < 104:
				op = "map image"
				if _, mapped := m.prot[imgBase]; mapped {
					break
				}
				if _, err := as.Alloc(imgStart, imgPages*PageSize, api.ProtRead|api.ProtWrite); err != nil {
					t.Fatal(err)
				}
				if err := kern.MapImage(as, imgStart, imgPages*PageSize); err != nil {
					t.Fatalf("seed %d step %d: map image: %v", seed, step, err)
				}
				m.mapImage(imgBase, imgPages)
			case r >= 100 && r < 109:
				op = "write image"
				if _, mapped := m.prot[imgBase]; !mapped {
					break
				}
				data := make([]byte, 1+rng.Intn(2*PageSize))
				rng.Read(data)
				addr := imgStart + uint64(rng.Intn(imgPages*PageSize-len(data)))
				if err := as.Write(addr, data); err != nil {
					t.Fatalf("seed %d step %d: write image: %v", seed, step, err)
				}
				_ = m.write(addr, data)
			case r >= 100:
				op = "unmap image"
				if err := as.Free(imgStart, imgPages*PageSize); err != nil {
					t.Fatal(err)
				}
				m.free(imgBase, imgPages)
			case r < 18:
				op = "alloc"
				idx, n := pickRange(300)
				prot := api.ProtRead
				if rng.Intn(4) != 0 {
					prot |= api.ProtWrite
				}
				_, err := as.Alloc(idx<<PageShift, n<<PageShift, prot)
				if merr := m.alloc(idx, n, prot); err != merr {
					t.Fatalf("seed %d step %d: alloc err %v, model %v", seed, step, err, merr)
				}
			case r < 29:
				op = "free"
				idx, n := pickRange(120)
				if err := as.Free(idx<<PageShift, n<<PageShift); err != nil {
					t.Fatalf("seed %d step %d: free: %v", seed, step, err)
				}
				m.free(idx, n)
			case r < 40:
				op = "protect"
				idx, n := pickRange(60)
				prot := api.ProtRead
				if rng.Intn(3) != 0 {
					prot |= api.ProtWrite
				}
				err := as.Protect(idx<<PageShift, n<<PageShift, prot)
				if merr := m.protect(idx, n, prot); err != merr {
					t.Fatalf("seed %d step %d: protect err %v, model %v", seed, step, err, merr)
				}
			case r < 62:
				op = "write"
				idx, _ := pickRange(1)
				data := make([]byte, 1+rng.Intn(3*PageSize))
				rng.Read(data)
				addr := idx<<PageShift + uint64(rng.Intn(PageSize))
				err := as.Write(addr, data)
				if merr := m.write(addr, data); err != merr {
					t.Fatalf("seed %d step %d: write err %v, model %v", seed, step, err, merr)
				}
			case r < 71:
				op = "touch"
				idx, n := pickRange(40)
				err := as.TouchRange(idx<<PageShift, n<<PageShift)
				if merr := m.touch(idx, n); err != merr {
					t.Fatalf("seed %d step %d: touch err %v, model %v", seed, step, err, merr)
				}
			case r < 85:
				// Commit a range of this space's pages (a whole leaf, the
				// whole arena, or a cut) and map the batch into any space.
				to := rng.Intn(len(spaces))
				var idx, n uint64
				switch rng.Intn(3) {
				case 0:
					idx, n = (arenaBase>>leafShift+1)<<leafShift, leafPages
				case 1:
					idx, n = arenaBase, arenaPages
				default:
					idx, n = pickRange(600)
				}
				var rebase uint64 // modulo 2^64: a map may land below the commit
				switch rng.Intn(4) {
				case 0:
					op = "commit/map"
				case 1:
					op, rebase = "commit/map a leaf up", leafPages
				case 2:
					op, rebase = "commit/map a leaf down", rebase-leafPages
				default:
					op, rebase = "commit/map misaligned", uint64(rng.Intn(2*leafPages))-leafPages
				}
				srcs := m.sortedIdxs(false)
				srcs = slices.DeleteFunc(srcs, func(i uint64) bool { return i < idx || i >= idx+n })
				st := newIPCStore(1)
				committed, err := st.Commit(as, idx<<PageShift, (idx+n)<<PageShift)
				if err != nil || committed != len(srcs) {
					t.Fatalf("seed %d step %d: committed %d pages, %v; model %d", seed, step, committed, err, len(srcs))
				}
				if rng.Intn(8) == 0 {
					op += " (closed)"
					st.Close()
					break
				}
				got, err := st.Map(spaces[to], (idx+rebase)<<PageShift)
				if err != nil {
					t.Fatalf("seed %d step %d: map: %v", seed, step, err)
				}
				st.Close()
				targets, mpages := make([]uint64, len(srcs)), make([]*mPage, len(srcs))
				for i, ix := range srcs {
					targets[i], mpages[i] = ix+rebase, m.pages[ix]
				}
				if want := models[to].install(targets, mpages); got != want {
					t.Fatalf("seed %d step %d (%s): installed %d, model %d", seed, step, op, got, want)
				}
			case r < 89:
				op = "fork"
				if len(spaces) < maxSpaces {
					spaces = append(spaces, as.ForkCOW())
					models = append(models, m.fork())
				}
			case r < 91:
				// A fresh picoprocess with the arena mapped and nothing
				// touched: a map into it adopts whole leaves.
				op = "spawn"
				if len(spaces) < maxSpaces {
					fresh, fm := NewAddressSpace(), newMSpace()
					if _, err := fresh.Alloc(arenaStart, arenaPages*PageSize, api.ProtRead|api.ProtWrite); err != nil {
						t.Fatal(err)
					}
					_ = fm.alloc(arenaBase, arenaPages, api.ProtRead|api.ProtWrite)
					spaces, models = append(spaces, fresh), append(models, fm)
				}
			case r < 95:
				op = "exit"
				if len(spaces) > 1 {
					as.Release()
					m.release()
					spaces, models = slices.Delete(spaces, k, k+1), slices.Delete(models, k, k+1)
				}
			default:
				op = "reset"
				as.ResetDirty()
				m.dirty = map[uint64]bool{}
			}
			check(step, op)
		}

		// Every byte of the arena and of the image.
		buf := make([]byte, PageSize)
		zero := make([]byte, PageSize)
		var every []uint64
		for idx := arenaBase; idx < arenaBase+arenaPages; idx++ {
			every = append(every, idx)
		}
		for idx := imgBase; idx < imgBase+imgPages; idx++ {
			every = append(every, idx)
		}
		for i, as := range spaces {
			m := models[i]
			for _, idx := range every {
				err := as.Read(idx<<PageShift, buf)
				if _, mapped := m.prot[idx]; !mapped {
					if err != api.EFAULT {
						t.Fatalf("seed %d space %d page %#x: read of unmapped page: %v", seed, i, idx, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("seed %d space %d page %#x: %v", seed, i, idx, err)
				}
				want := zero
				if pg := m.pages[idx]; pg != nil && pg.data != nil {
					want = pg.data
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("seed %d space %d page %#x: contents differ from model", seed, i, idx)
				}
			}
		}
		for _, as := range spaces {
			as.Release()
		}
		for pg := range seen {
			if n := pg.refs.Load(); n != 0 {
				t.Fatalf("seed %d: a page keeps %d references after every space released", seed, n)
			}
		}
		for b := range blocks {
			if n := b.refs.Load(); n != 0 && b != img.leaves[0].s && b != img.leaves[1].s {
				t.Fatalf("seed %d: a block of slots keeps %d references after every space released", seed, n)
			}
		}
		for _, l := range img.leaves {
			if n := l.s.refs.Load(); n != 1 {
				t.Fatalf("seed %d: the kernel's image block keeps %d references, want its own 1", seed, n)
			}
		}
	}
}

// imageIsZero reports whether every page of img still reads as zeros.
func imageIsZero(img *kernelImage) bool {
	for _, l := range img.leaves {
		for _, pg := range l.s.pages {
			if pg != nil && (pg.data != nil || !pg.zeroFill || !pg.image) {
				return false
			}
		}
	}
	return true
}

// TestSplitMidLeafKeepsPagesAndDirtyBits cuts a VMA inside one leaf, first
// with Protect (three pieces, nothing lost) and then with Free (the middle
// goes, its pages unreferenced), and checks that each side keeps exactly its
// own pages and dirty bits.
func TestSplitMidLeafKeepsPagesAndDirtyBits(t *testing.T) {
	const base = uint64(0x4000_0000) // leaf-aligned: all 40 pages share a leaf
	as := NewAddressSpace()
	if _, err := as.Alloc(base, 40*PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	page := func(i int) uint64 { return base + uint64(i)*PageSize }
	for i := 0; i < 40; i++ {
		if err := as.Write(page(i), []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	as.ResetDirty()
	dirty := []int{0, 9, 10, 19, 20, 39}
	for _, i := range dirty {
		if err := as.Write(page(i)+1, []byte{0xee}); err != nil {
			t.Fatal(err)
		}
	}
	wantDirty := func(is ...int) {
		t.Helper()
		idxs, _ := as.DirtyPages(base, page(40))
		var want []uint64
		for _, i := range is {
			want = append(want, page(i)>>PageShift)
		}
		if !slices.Equal(idxs, want) {
			t.Fatalf("dirty pages %v, want %v", idxs, want)
		}
		if as.DirtyPageCount() != len(is) {
			t.Fatalf("dirty count %d, want %d", as.DirtyPageCount(), len(is))
		}
	}

	if err := as.Protect(page(10), 10*PageSize, api.ProtRead); err != nil {
		t.Fatal(err)
	}
	if got := len(as.SnapshotRegions()); got != 3 {
		t.Fatalf("%d VMAs after a protect in the middle, want 3", got)
	}
	wantDirty(dirty...)
	buf := make([]byte, 1)
	for i := 0; i < 40; i++ {
		if err := as.Read(page(i), buf); err != nil || buf[0] != byte(i+1) {
			t.Fatalf("page %d after protect: %d, %v", i, buf[0], err)
		}
	}
	if err := as.Write(page(15), []byte{1}); err != api.EACCES {
		t.Fatalf("write into the read-only middle: %v", err)
	}

	_, freed := as.TouchedPages(page(10), page(20))
	if err := as.Free(page(10), 10*PageSize); err != nil {
		t.Fatal(err)
	}
	wantDirty(0, 9, 20, 39)
	for _, pg := range freed {
		if n := pg.refs.Load(); n != 0 {
			t.Fatalf("a freed page keeps %d references", n)
		}
	}
	for i := 0; i < 40; i++ {
		err := as.Read(page(i), buf)
		if i >= 10 && i < 20 {
			if err != api.EFAULT {
				t.Fatalf("freed page %d: %v", i, err)
			}
		} else if err != nil || buf[0] != byte(i+1) {
			t.Fatalf("page %d after free: %d, %v", i, buf[0], err)
		}
	}
	if got := as.ResidentBytes(); got != 30*PageSize {
		t.Fatalf("resident %d after freeing 10 of 40 pages", got)
	}
}

// TestSparseMappingCostsWhatItTouches pins the table's shape: a 4 GiB
// mapping costs nothing until touched, and one touched page — anywhere in
// it — costs one leaf, not a slot per mapped page (a flat []*Page would be
// 8 MiB here, a full-width top level 16 KiB).
func TestSparseMappingCostsWhatItTouches(t *testing.T) {
	const size = uint64(4) << 30
	for _, off := range []uint64{0, size / 2, size - PageSize} {
		var as *AddressSpace
		var addr uint64
		best := ^uint64(0)
		for try := 0; try < 5; try++ { // the minimum discards a GC or a stray goroutine
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			as = NewAddressSpace()
			addr, _ = as.Alloc(0, size, api.ProtRead|api.ProtWrite)
			if err := as.Write(addr+off, []byte{1}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		if best >= 16<<10 {
			t.Fatalf("4 GiB mapping with one page touched at +%#x allocated %d bytes, want < 16 KiB", off, best)
		}
		if got := as.ResidentBytes(); got != PageSize {
			t.Fatalf("resident %d, want one page", got)
		}
		if got := testing.AllocsPerRun(10, func() { as.ResidentBytes(); as.DirtyPageCount() }); got != 0 {
			t.Fatalf("walking a sparse table allocates %v times", got)
		}
	}
}

// TestBulkIPCMapIgnoresWildTargets: a page whose target address does not
// fit in 64 bits, or that lands outside every mapping after the rebase, is
// skipped, and the batch's references are dropped all the same.
func TestBulkIPCMapIgnoresWildTargets(t *testing.T) {
	const src = uint64(0x5000_0000)
	sender := NewAddressSpace()
	if _, err := sender.Alloc(src, 4*PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := sender.TouchRange(src, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	_, pages := sender.TouchedPages(src, src+4*PageSize)
	as := NewAddressSpace()
	if _, err := as.Alloc(0x10000, 4*PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	for _, target := range []uint64{^uint64(0) &^ (PageSize - 1), ^uint64(2*PageSize - 1), 0, 0x9999000} {
		st := newIPCStore(1)
		if _, err := st.Commit(sender, src, src+4*PageSize); err != nil {
			t.Fatal(err)
		}
		if n, err := st.Map(as, target); err != nil || n != 0 {
			t.Fatalf("map at %#x: installed %d wild pages, %v", target, n, err)
		}
	}
	// Rebases straight into mapLeaves: past 64-bit addresses (no target
	// address expresses that), a few pages below the sender (unmapped
	// here), and down to two pages under the mapping, where the batch's
	// last two pages land.
	down := uint64(0x10000>>PageShift) - 2
	for _, c := range []struct{ rebase, want uint64 }{
		{maxPageIdx, 0},
		{^uint64(0) - 5, 0},
		{down - src>>PageShift, 2},
	} {
		refs, _ := sender.shareLeaves(src>>PageShift, (src+4*PageSize)>>PageShift)
		if n := as.mapLeaves(refs, c.rebase); uint64(n) != c.want {
			t.Fatalf("rebase %#x: installed %d pages, want %d", c.rebase, n, c.want)
		}
	}
	as.Release()
	for _, pg := range pages {
		if n := pg.refs.Load(); n != 1 {
			t.Fatalf("skipped installs left %d references", n)
		}
	}
}

// TestBulkIPCMapRebasesBothWays maps one committed batch above and below
// the sender's region: the per-batch offset is applied modulo 2^64.
func TestBulkIPCMapRebasesBothWays(t *testing.T) {
	const src = uint64(0x5000_0000)
	sender := NewAddressSpace()
	if _, err := sender.Alloc(src, 8*PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	for _, i := range []uint64{1, 6} {
		if err := sender.Write(src+i*PageSize, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, dst := range []uint64{0x10000, 0x7000_0000_0000} {
		st := newIPCStore(1)
		if n, err := st.Commit(sender, src, src+8*PageSize); err != nil || n != 2 {
			t.Fatalf("commit: %d, %v", n, err)
		}
		recv := NewAddressSpace()
		if _, err := recv.Alloc(dst, 8*PageSize, api.ProtRead|api.ProtWrite); err != nil {
			t.Fatal(err)
		}
		if n, err := st.Map(recv, dst); err != nil || n != 2 {
			t.Fatalf("map at %#x: %d, %v", dst, n, err)
		}
		buf := make([]byte, 1)
		for _, i := range []uint64{1, 6} {
			if err := recv.Read(dst+i*PageSize, buf); err != nil || buf[0] != byte(i) {
				t.Fatalf("page %d mapped at %#x reads %d, %v", i, dst, buf[0], err)
			}
		}
		recv.Release()
	}
}

// TestUnalignedRangesCoverTheFirstPage: every range helper covers each page
// a byte range touches, the one holding an unaligned start included, so an
// unaligned bulk-IPC commit ships exactly the pages an unaligned checkpoint
// (TouchedPages, or DirtyPages for a delta) lists.
func TestUnalignedRangesCoverTheFirstPage(t *testing.T) {
	const src = uint64(0x5000_0000)
	sender := NewAddressSpace()
	if _, err := sender.Alloc(src, 8*PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		if err := sender.Write(src+i*PageSize, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	start, end := src+PageSize+1, src+5*PageSize-1 // inside pages 1 and 4
	want := []uint64{src>>PageShift + 1, src>>PageShift + 2, src>>PageShift + 3, src>>PageShift + 4}
	touched, _ := sender.TouchedPages(start, end)
	dirty, _ := sender.DirtyPages(start, end)
	st := newIPCStore(1)
	defer st.Close()
	n, err := st.Commit(sender, start, end)
	if err != nil {
		t.Fatal(err)
	}
	recv := NewAddressSpace()
	if _, err := recv.Alloc(src, 8*PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	if m, err := st.Map(recv, start); err != nil || m != n {
		t.Fatalf("mapped %d of %d committed pages, %v", m, n, err)
	}
	mapped, _ := recv.DirtyPages(src, src+8*PageSize)
	for what, got := range map[string][]uint64{"touched": touched, "dirty": dirty, "mapped": mapped} {
		if !slices.Equal(got, want) {
			t.Errorf("%s pages %v, want %v", what, got, want)
		}
	}
	if n != len(want) {
		t.Errorf("committed %d pages, want %d", n, len(want))
	}
}

// TestSharedLeavesUnderConcurrentSharers drives one block of slots from
// several goroutines at once, each through its own address space: forked
// children and the parent write (copying the shared leaf and then the
// page), read, fork and exit grandchildren, commit and map into fresh
// spaces, and read their footprint. No one sees another's write, and once
// every space has exited no page keeps a reference. Run it under -race.
func TestSharedLeavesUnderConcurrentSharers(t *testing.T) {
	const (
		base    = uint64(0x4000_0000) - 8*PageSize // straddles a leaf boundary
		npages  = 16
		workers = 4
	)
	parent := NewAddressSpace()
	if _, err := parent.Alloc(base, npages*PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < npages; i++ {
		if err := parent.Write(base+i*PageSize, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	_, pages := parent.TouchedPages(base, base+npages*PageSize)
	children := make([]*AddressSpace, workers)
	for w := range children {
		children[w] = parent.ForkCOW()
	}
	var wg sync.WaitGroup
	for w := 0; w <= workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			as, mark := parent, byte(0xff)
			if w < workers {
				as, mark = children[w], byte(0x80+w)
			}
			buf := make([]byte, 1)
			for round := 0; round < 200; round++ {
				i := uint64(round % npages)
				if i%(workers+1) == uint64(w) {
					if err := as.Write(base+i*PageSize, []byte{mark}); err != nil {
						t.Error(err)
						return
					}
				}
				j := uint64(round*7) % npages
				want := byte(j)
				if j%(workers+1) == uint64(w) && round >= int(j) {
					want = mark
				}
				if err := as.Read(base+j*PageSize, buf); err != nil || buf[0] != want {
					t.Errorf("space %d page %d reads %#x, %v; want %#x", w, j, buf[0], err, want)
					return
				}
				switch round % 5 {
				case 0:
					as.ForkCOW().Release()
				case 1:
					st := newIPCStore(1)
					recv := NewAddressSpace()
					if _, err := recv.Alloc(base, npages*PageSize, api.ProtRead|api.ProtWrite); err != nil {
						t.Error(err)
						return
					}
					if _, err := st.Commit(as, base, base+npages*PageSize); err != nil {
						t.Error(err)
						return
					}
					if n, err := st.Map(recv, base); err != nil || n != npages {
						t.Errorf("space %d: mapped %d pages, %v", w, n, err)
						return
					}
					recv.Release()
				case 2:
					as.ResidentBytes()
				}
			}
		}()
	}
	wg.Wait()
	for _, as := range append(children, parent) {
		as.Release()
	}
	for _, pg := range pages {
		if n := pg.refs.Load(); n != 0 {
			t.Fatalf("a page keeps %d references after every space released", n)
		}
	}
}

// ============================================================
// Kernel images: one block per leaf, mapped by reference.
// ============================================================

// mapImage gives pp the kernel image of [base, base+n) as a picoprocess
// start does: a VM allocation, then the map.
func mapImage(t *testing.T, k *Kernel, as *AddressSpace, base, n uint64) {
	t.Helper()
	if _, err := as.Alloc(base, n, api.ProtRead|api.ProtWrite|api.ProtExec); err != nil {
		t.Fatal(err)
	}
	if err := k.MapImage(as, base, n); err != nil {
		t.Fatal(err)
	}
}

// readsZero reports whether [base, base+n) of as reads as zeros.
func readsZero(t *testing.T, as *AddressSpace, base, n uint64) bool {
	t.Helper()
	buf := make([]byte, n)
	if err := as.Read(base, buf); err != nil {
		t.Fatal(err)
	}
	return bytes.Count(buf, []byte{0}) == len(buf)
}

// TestImageWriteStaysPrivate: a picoprocess writing into its image changes
// its own view only. A sibling mapped before the write, a picoprocess
// created after it and one in a sandbox split off after it all read zeros
// there, the kernel's block reads zeros, and every mapping is charged the
// whole image. Mapping takes one block reference per leaf, and exit gives
// it back.
func TestImageWriteStaysPrivate(t *testing.T) {
	const base, n = uint64(0x7000_0000_0000), uint64(1408 << 10)
	k := NewKernel()
	spawn := func(parent *Picoprocess, split bool) *Picoprocess {
		pp, err := k.CreateProcess(parent, split)
		if err != nil {
			t.Fatal(err)
		}
		if split {
			pp.SandboxID = k.NewSandboxID() // the monitor's part of a split
		}
		mapImage(t, k, pp.AS, base, n)
		return pp
	}
	writer := spawn(nil, false)
	sibling := spawn(writer, false)
	img, err := k.images.image(base, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.leaves) != 1 || img.leaves[0].s.refs.Load() != 3 {
		t.Fatalf("image of %d leaves, first block %d references; want 1 leaf, the kernel's and two mappers'",
			len(img.leaves), img.leaves[0].s.refs.Load())
	}
	for _, pp := range []*Picoprocess{writer, sibling} {
		if got := pp.AS.ResidentBytes(); got != n {
			t.Fatalf("picoprocess %d charged %d bytes for its image, want %d", pp.ID, got, n)
		}
	}

	data := bytes.Repeat([]byte{0xa5}, 3*PageSize)
	if err := writer.AS.Write(base+5*PageSize+100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := writer.AS.Read(base+5*PageSize+100, got); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("the writer does not read its own write: %v", err)
	}
	after := spawn(writer, false)
	split := spawn(writer, true)
	if split.SandboxID == writer.SandboxID {
		t.Fatal("the split picoprocess shares the writer's sandbox")
	}
	for name, pp := range map[string]*Picoprocess{"sibling": sibling, "created after": after, "split off": split} {
		if !readsZero(t, pp.AS, base, n) {
			t.Fatalf("%s picoprocess reads the writer's bytes in its image", name)
		}
	}
	if !imageIsZero(img) {
		t.Fatal("the write reached the kernel's image")
	}
	// The writer's leaf is its own now, still charged as the whole image
	// (the four written pages are private pages, one reference each).
	for _, pp := range []*Picoprocess{writer, sibling, after, split} {
		if got := pp.AS.ResidentBytes(); got != n {
			t.Fatalf("picoprocess %d charged %d bytes for its image, want %d", pp.ID, got, n)
		}
	}
	if got := img.leaves[0].s.refs.Load(); got != 4 {
		t.Fatalf("kernel block has %d references after the writer's copy, want 4", got)
	}
	for _, pp := range []*Picoprocess{writer, sibling, after, split} {
		pp.AS.Release()
	}
	if got := img.leaves[0].s.refs.Load(); got != 1 {
		t.Fatalf("kernel block has %d references after every mapper exited, want 1", got)
	}
	for _, pg := range img.leaves[0].s.pages[:n/PageSize] {
		if got := pg.refs.Load(); got != 1 {
			t.Fatalf("an image page keeps %d references after every mapper exited, want the kernel's 1", got)
		}
	}
}

// TestImageForkSharesItsMapping: a fork's children split their parent's
// image charge, as they split any page, so Figure 4's fork-heavy native
// rows read as before images were shared; each fresh mapping, and each
// bulk-IPC copy of one, is charged in full.
func TestImageForkSharesItsMapping(t *testing.T) {
	const base, n = uint64(0x7000_0000_0000), uint64(352 << 10)
	k := NewKernel()
	parent := NewAddressSpace()
	mapImage(t, k, parent, base, n)
	children := []*AddressSpace{parent.ForkCOW(), parent.ForkCOW(), parent.ForkCOW()}
	total := parent.ResidentBytes()
	for _, c := range children {
		total += c.ResidentBytes()
	}
	if total != n {
		t.Fatalf("a parent and three fork children charged %d bytes for one image mapping, want %d", total, n)
	}
	fresh := NewAddressSpace()
	mapImage(t, k, fresh, base, n)
	if got := fresh.ResidentBytes(); got != n {
		t.Fatalf("a fresh mapping charged %d bytes, want %d", got, n)
	}
	// A child writing into the image leaves the mapping: its copy is
	// charged in full and the others split what is left.
	if err := children[0].Write(base, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if got := children[0].ResidentBytes(); got != n {
		t.Fatalf("a child after its write charged %d bytes, want %d", got, n)
	}
	if got := parent.ResidentBytes(); got != n/3 {
		t.Fatalf("parent charged %d bytes among three sharers, want %d", got, n/3)
	}
	// A bulk-IPC commit of a mapping, mapped elsewhere, is one more
	// mapping: the receiver adopts the kernel's block and is charged in
	// full, and nobody else's charge moves.
	st := newIPCStore(1)
	if _, err := st.Commit(fresh, base, base+n); err != nil {
		t.Fatal(err)
	}
	recv := NewAddressSpace()
	if _, err := recv.Alloc(base, n, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Map(recv, base); err != nil || got != int(n/PageSize) {
		t.Fatalf("mapped %d image pages, %v", got, err)
	}
	st.Close()
	if got, sent := recv.ResidentBytes(), fresh.ResidentBytes(); got != n || sent != n {
		t.Fatalf("receiver charged %d bytes and the sender %d for the image, want %d each", got, sent, n)
	}
	for _, as := range append(children, parent, fresh, recv) {
		as.Release()
	}
	img, _ := k.images.image(base, n)
	if got := img.leaves[0].s.refs.Load(); got != 1 {
		t.Fatalf("kernel block has %d references after every mapper exited, want 1", got)
	}
}

// TestImageMapCostsPerLeaf gates the image path: mapping the 1.4 MB libOS
// image allocates no more often, and no more bytes (within a small slack
// for the runtime's own), than mapping a 16 KiB one, so a per-page image
// build — one Page per page, or one slab of them — cannot come back
// unnoticed. The images are built before counting.
func TestImageMapCostsPerLeaf(t *testing.T) {
	const base, runs = uint64(0x7000_0000_0000), 20
	k := NewKernel()
	cost := func(n uint64) (allocs float64, bytes uint64) {
		mapOnce := func() {
			as := NewAddressSpace()
			if _, err := as.Alloc(base, n, api.ProtRead|api.ProtWrite); err != nil {
				t.Fatal(err)
			}
			if err := k.MapImage(as, base, n); err != nil {
				t.Fatal(err)
			}
			as.Release()
		}
		allocs = testing.AllocsPerRun(runs, mapOnce)
		// The least of three rounds, so another test's goroutine still
		// allocating does not count.
		bytes = ^uint64(0)
		for round := 0; round < 3; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				mapOnce()
			}
			runtime.ReadMemStats(&after)
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return allocs, bytes
	}
	smallAllocs, smallBytes := cost(16 << 10)
	largeAllocs, largeBytes := cost(1408 << 10)
	if largeAllocs > smallAllocs {
		t.Errorf("mapping the 1.4 MB image: %v allocs, the 16 KiB one: %v", largeAllocs, smallAllocs)
	}
	if largeBytes > smallBytes+512 {
		t.Errorf("mapping the 1.4 MB image: %d bytes, the 16 KiB one: %d", largeBytes, smallBytes)
	}
}
