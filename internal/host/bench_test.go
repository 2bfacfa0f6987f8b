package host

import (
	"testing"

	"graphene/internal/api"
)

func BenchmarkStreamPingPong(b *testing.B) {
	b.ReportAllocs()
	a, c := NewStreamPair("bench", 1, 2)
	defer a.Close()
	go func() {
		buf := make([]byte, 1)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	buf := make([]byte, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Write(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamThroughput64K(b *testing.B) {
	b.ReportAllocs()
	a, c := NewStreamPair("bench", 1, 2)
	defer a.Close()
	go func() {
		buf := make([]byte, 64*1024)
		for {
			if n, err := c.Read(buf); err != nil || n == 0 {
				return
			}
		}
	}()
	chunk := make([]byte, 32*1024)
	b.SetBytes(int64(len(chunk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Write(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAddressSpaceWrite(b *testing.B) {
	b.ReportAllocs()
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, 64*PageSize, api.ProtRead|api.ProtWrite)
	data := make([]byte, 64)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := as.Write(addr+uint64(i%63)*PageSize, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForkCOW(b *testing.B) {
	b.ReportAllocs()
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, 256*PageSize, api.ProtRead|api.ProtWrite)
	for off := uint64(0); off < 256*PageSize; off += PageSize {
		_ = as.Write(addr+off, []byte{1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child := as.ForkCOW()
		child.Release()
	}
}

func BenchmarkWaitAnySignaled(b *testing.B) {
	b.ReportAllocs()
	e := NewEvent(true)
	e.Set()
	objs := []Waitable{NewEvent(false), NewEvent(false), e}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx, err := WaitAny(objs, 0); err != nil || idx != 2 {
			b.Fatalf("WaitAny = %d, %v", idx, err)
		}
	}
}

func BenchmarkFSWriteRead(b *testing.B) {
	b.ReportAllocs()
	fs := NewFileSystem()
	data := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.WriteFile("/bench", data, 0644); err != nil {
			b.Fatal(err)
		}
		if _, err := fs.ReadFile("/bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// The three page-table paths a fork pays for: installing a bulk-IPC batch
// into a fresh mapping, making the libOS image resident, and committing and
// mapping a touched heap.

func BenchmarkInstallPages(b *testing.B) {
	b.ReportAllocs()
	const n = 2048
	const base = uint64(0x4000_0000)
	idxs, pages := make([]uint64, n), make([]*Page, n)
	for i := range idxs {
		idxs[i] = base>>PageShift + uint64(i)
		pages[i] = NewPage()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as := NewAddressSpace()
		if _, err := as.Alloc(base, n*PageSize, api.ProtRead|api.ProtWrite); err != nil {
			b.Fatal(err)
		}
		if got := as.InstallPages(idxs, pages); got != n {
			b.Fatalf("installed %d of %d", got, n)
		}
		as.Release()
	}
}

func BenchmarkTouchRangeImage(b *testing.B) {
	b.ReportAllocs()
	const image = 1400 << 10 // the libOS image liblinux loads into every picoprocess
	for i := 0; i < b.N; i++ {
		as := NewAddressSpace()
		addr, err := as.Alloc(0, image, api.ProtRead|api.ProtWrite)
		if err != nil {
			b.Fatal(err)
		}
		if err := as.TouchRange(addr, image); err != nil {
			b.Fatal(err)
		}
		as.Release()
	}
}

func BenchmarkCommitMap(b *testing.B) {
	b.ReportAllocs()
	const heap = 8 << 20
	const base = uint64(0x1000_0000)
	parent := NewAddressSpace()
	if _, err := parent.Alloc(base, heap, api.ProtRead|api.ProtWrite); err != nil {
		b.Fatal(err)
	}
	if err := parent.TouchRange(base, heap); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := newIPCStore(1)
		if _, err := st.Commit(parent, base, base+heap); err != nil {
			b.Fatal(err)
		}
		child := NewAddressSpace()
		if _, err := child.Alloc(base, heap, api.ProtRead|api.ProtWrite); err != nil {
			b.Fatal(err)
		}
		if n, err := st.Map(child, base); err != nil || n != heap/PageSize {
			b.Fatalf("mapped %d pages, %v", n, err)
		}
		child.Release()
	}
}

// TestPageTableHotPathsDoNotAllocate gates the steady state: once a leaf
// exists, installing into it and dirtying its pages is index arithmetic.
func TestPageTableHotPathsDoNotAllocate(t *testing.T) {
	const n = 1024
	const base = uint64(0x4000_0000)
	as := NewAddressSpace()
	if _, err := as.Alloc(base, n*PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	idxs, pages := make([]uint64, n), make([]*Page, n)
	for i := range idxs {
		idxs[i] = base>>PageShift + uint64(i)
		pages[i] = NewPage()
		pages[i].write(0, []byte{1})
	}
	as.InstallPages(idxs, pages) // leaves now present
	for _, pg := range pages {
		pg.Unref() // the table holds the only reference: writes do not COW
	}
	if got := testing.AllocsPerRun(20, func() { as.InstallPages(idxs, pages) }); got != 0 {
		t.Errorf("InstallPages into present leaves: %v allocs, want 0", got)
	}
	as.ResetDirty()
	if got := testing.AllocsPerRun(20, func() {
		for i := uint64(0); i < n; i++ {
			_ = as.Write(base+i*PageSize, []byte{2})
		}
	}); got != 0 {
		t.Errorf("Write marking %d resident pages dirty: %v allocs, want 0", n, got)
	}
	if got := as.DirtyPageCount(); got != n {
		t.Errorf("dirty count %d, want %d", got, n)
	}
}
