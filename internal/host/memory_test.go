package host

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"sort"
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

func TestCOWSharingViaInstallPage(t *testing.T) {
	parent := NewAddressSpace()
	addr, _ := parent.Alloc(0, PageSize, api.ProtRead|api.ProtWrite)
	if err := parent.Write(addr, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	idxs, pages := parent.TouchedPages(addr, addr+PageSize)
	if len(pages) != 1 {
		t.Fatalf("touched pages = %d, want 1", len(pages))
	}

	child := NewAddressSpace()
	if _, err := child.Alloc(addr, PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := child.InstallPage(idxs[0], pages[0]); err != nil {
		t.Fatalf("InstallPage: %v", err)
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
	idxs, pages := parent.TouchedPages(addr, addr+PageSize)
	child := NewAddressSpace()
	if _, err := child.Alloc(addr, PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := child.InstallPage(idxs[0], pages[0]); err != nil {
		t.Fatal(err)
	}
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
	idxs, pages := parent.TouchedPages(addr, addr+PageSize)
	child := NewAddressSpace()
	if _, err := child.Alloc(addr, PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := child.InstallPage(idxs[0], pages[0]); err != nil {
		t.Fatal(err)
	}
	// Page now has two references: each space is charged half.
	if got := parent.ResidentBytes() + child.ResidentBytes(); got != PageSize {
		t.Fatalf("combined resident = %d, want %d", got, PageSize)
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
}

func newMSpace() *mSpace {
	return &mSpace{prot: map[uint64]int{}, pages: map[uint64]*mPage{}, dirty: map[uint64]bool{}}
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
	for i := idx; i < idx+n; i++ {
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

func (m *mSpace) fork() *mSpace {
	c := newMSpace()
	for i, p := range m.prot {
		c.prot[i] = p
	}
	for i, pg := range m.pages {
		pg.refs++
		c.pages[i] = pg
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

// TestPropertyPageTableMatchesModel runs random operation sequences on up
// to four address spaces related by ForkCOW and page installs, and after
// every step compares the leaf table with the map model: accounting, the
// touched and dirty sets (and their order), every page's refcount, and at
// the end every byte. The arena straddles three leaf boundaries and ranges
// are biased toward them, so cuts through a leaf are the common case.
func TestPropertyPageTableMatchesModel(t *testing.T) {
	const (
		arenaPages = 3*leafPages + 200
		arenaBase  = uint64(0x4000_0000)>>PageShift - 100 // 100 pages below a leaf boundary
		arenaStart = arenaBase << PageShift
		arenaEnd   = (arenaBase + arenaPages) << PageShift
	)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
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
		seen := map[*Page]bool{} // every real page that was ever in a table

		check := func(step int, op string) {
			t.Helper()
			for i, as := range spaces {
				m := models[i]
				if got, want := as.CommittedBytes(), uint64(len(m.prot))*PageSize; got != want {
					t.Fatalf("seed %d step %d (%s) space %d: committed %d, model %d", seed, step, op, i, got, want)
				}
				if got, want := as.ResidentBytes(), m.resident(); got != want {
					t.Fatalf("seed %d step %d (%s) space %d: resident %d, model %d", seed, step, op, i, got, want)
				}
				if got, want := as.DirtyPageCount(), len(m.dirty); got != want {
					t.Fatalf("seed %d step %d (%s) space %d: dirty count %d, model %d", seed, step, op, i, got, want)
				}
				idxs, pages := as.TouchedPages(arenaStart, arenaEnd)
				if want := m.sortedIdxs(false); !slices.Equal(idxs, want) {
					t.Fatalf("seed %d step %d (%s) space %d: touched %v, model %v", seed, step, op, i, idxs, want)
				}
				for j, pg := range pages {
					seen[pg] = true
					if got, want := int(pg.refs.Load()), m.pages[idxs[j]].refs; got != want {
						t.Fatalf("seed %d step %d (%s) space %d page %#x: refs %d, model %d", seed, step, op, i, idxs[j], got, want)
					}
				}
				if didxs, _ := as.DirtyPages(arenaStart, arenaEnd); !slices.Equal(didxs, m.sortedIdxs(true)) {
					t.Fatalf("seed %d step %d (%s) space %d: dirty %v, model %v", seed, step, op, i, didxs, m.sortedIdxs(true))
				}
			}
		}

		for step := 0; step < 400; step++ {
			k := rng.Intn(len(spaces))
			as, m := spaces[k], models[k]
			var op string
			switch r := rng.Intn(100); {
			case r < 20:
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
			case r < 32:
				op = "free"
				idx, n := pickRange(120)
				if err := as.Free(idx<<PageShift, n<<PageShift); err != nil {
					t.Fatalf("seed %d step %d: free: %v", seed, step, err)
				}
				m.free(idx, n)
			case r < 44:
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
			case r < 68:
				op = "write"
				idx, _ := pickRange(1)
				data := make([]byte, 1+rng.Intn(3*PageSize))
				rng.Read(data)
				addr := idx<<PageShift + uint64(rng.Intn(PageSize))
				err := as.Write(addr, data)
				if merr := m.write(addr, data); err != merr {
					t.Fatalf("seed %d step %d: write err %v, model %v", seed, step, err, merr)
				}
			case r < 78:
				op = "touch"
				idx, n := pickRange(40)
				err := as.TouchRange(idx<<PageShift, n<<PageShift)
				if merr := m.touch(idx, n); err != merr {
					t.Fatalf("seed %d step %d: touch err %v, model %v", seed, step, err, merr)
				}
			case r < 88:
				op = "install"
				// Share a range of this space's pages into another space,
				// the way a bulk-IPC map does.
				to := rng.Intn(len(spaces))
				idx, n := pickRange(80)
				idxs, pages := as.TouchedPages(idx<<PageShift, (idx+n)<<PageShift)
				mpages := make([]*mPage, len(idxs))
				for i, ix := range idxs {
					mpages[i] = m.pages[ix]
				}
				if to == k {
					// Installing a page over itself must keep its count.
					for _, pg := range pages {
						pg.Ref()
					}
				}
				got := spaces[to].InstallPages(idxs, pages)
				if to == k {
					for _, pg := range pages {
						pg.Unref()
					}
				}
				if want := models[to].install(idxs, mpages); got != want {
					t.Fatalf("seed %d step %d: installed %d, model %d", seed, step, got, want)
				}
			case r < 94:
				op = "fork"
				if len(spaces) < 4 {
					spaces = append(spaces, as.ForkCOW())
					models = append(models, m.fork())
				}
			default:
				op = "reset"
				as.ResetDirty()
				m.dirty = map[uint64]bool{}
			}
			check(step, op)
		}

		// Every byte of the arena.
		buf := make([]byte, PageSize)
		zero := make([]byte, PageSize)
		for i, as := range spaces {
			m := models[i]
			for idx := arenaBase; idx < arenaBase+arenaPages; idx++ {
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
	}
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

// TestInstallPagesIgnoresWildIndices: an index whose address does not fit
// in 64 bits, or that lands outside every mapping after the rebase, is
// skipped like any other unmapped target.
func TestInstallPagesIgnoresWildIndices(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Alloc(0x10000, 4*PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	pg := NewPage()
	wild := []uint64{maxPageIdx, maxPageIdx + 0x10, ^uint64(0), 0x10 + maxPageIdx, 0x9999}
	pages := []*Page{pg, pg, pg, pg, pg}
	if n := as.InstallPages(wild, pages); n != 0 {
		t.Fatalf("installed %d wild pages", n)
	}
	if n := as.installPages(wild, pages, ^uint64(0)-5); n != 0 {
		t.Fatalf("installed %d wild pages after a wrapping rebase", n)
	}
	if n := pg.refs.Load(); n != 1 {
		t.Fatalf("skipped installs left %d references", n)
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
