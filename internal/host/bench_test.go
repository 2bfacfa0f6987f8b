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

// The page-table paths a fork pays for: building the libOS image (once per
// kernel since images are shared), mapping it (once per picoprocess), and
// committing and mapping a touched heap.

func BenchmarkTouchRangeImage(b *testing.B) {
	b.ReportAllocs()
	const image = 1408 << 10 // the libOS image liblinux maps into every picoprocess
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

// BenchmarkMapImage is what a picoprocess start pays for the same image:
// one reference on the kernel's block per leaf, and one drop at exit.
func BenchmarkMapImage(b *testing.B) {
	b.ReportAllocs()
	const base, image = 0x7000_0000_0000, 1408 << 10
	k := NewKernel()
	for i := 0; i < b.N; i++ {
		as := NewAddressSpace()
		if _, err := as.Alloc(base, image, api.ProtRead|api.ProtWrite); err != nil {
			b.Fatal(err)
		}
		if err := k.MapImage(as, base, image); err != nil {
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
// exists and is private, mapping a batch into it and dirtying its pages is
// index arithmetic.
func TestPageTableHotPathsDoNotAllocate(t *testing.T) {
	const n = 1024
	const base = uint64(0x4000_0000)
	sender := NewAddressSpace()
	if _, err := sender.Alloc(base, n*PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if err := sender.Write(base+i*PageSize, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	// The receiver sits one page up: every batch is copied into its leaves
	// rather than adopted, and the first map makes them.
	as := NewAddressSpace()
	if _, err := as.Alloc(base, (n+1)*PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	st := newIPCStore(1)
	defer st.Close()
	for i := 0; i < 22; i++ { // AllocsPerRun maps one more than it counts
		if _, err := st.Commit(sender, base, base+n*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Map(as, base+PageSize); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() { _, _ = st.Map(as, base+PageSize) }); got != 0 {
		t.Errorf("mapping a batch into present leaves: %v allocs, want 0", got)
	}
	if got := as.DirtyPageCount(); got != n {
		t.Errorf("receiver dirty count %d, want %d", got, n)
	}
	as.Release() // the sender's pages are its own again: writes do not COW
	sender.ResetDirty()
	if got := testing.AllocsPerRun(20, func() {
		for i := uint64(0); i < n; i++ {
			_ = sender.Write(base+i*PageSize, []byte{2})
		}
	}); got != 0 {
		t.Errorf("Write marking %d resident pages dirty: %v allocs, want 0", n, got)
	}
	if got := sender.DirtyPageCount(); got != n {
		t.Errorf("dirty count %d, want %d", got, n)
	}
}

// TestLeafSharingCostsPerLeaf gates the leaf path: a fork, and a bulk-IPC
// commit and map, of a fully resident 8 MiB region allocate no more than
// the same calls on 16 KiB plus a constant per leaf. A per-page path would
// add thousands.
func TestLeafSharingCostsPerLeaf(t *testing.T) {
	const base = uint64(0x4000_0000) // leaf-aligned
	cost := func(size uint64) float64 {
		parent := NewAddressSpace()
		defer parent.Release()
		if _, err := parent.Alloc(base, size, api.ProtRead|api.ProtWrite); err != nil {
			t.Fatal(err)
		}
		if err := parent.TouchRange(base, size); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			child := NewAddressSpace()
			parent.ForkCOWInto(child)
			child.Release()
			st := newIPCStore(1)
			if _, err := st.Commit(parent, base, base+size); err != nil {
				t.Fatal(err)
			}
			recv := NewAddressSpace()
			if _, err := recv.Alloc(base, size, api.ProtRead|api.ProtWrite); err != nil {
				t.Fatal(err)
			}
			if n, err := st.Map(recv, base); err != nil || n != int(size/PageSize) {
				t.Fatalf("mapped %d pages, %v", n, err)
			}
			recv.Release()
		})
	}
	const perLeaf = 4
	leaves := float64((8 << 20) / (leafPages * PageSize))
	if small, large := cost(16<<10), cost(8<<20); large > small+perLeaf*leaves {
		t.Fatalf("fork + commit + map of 8 MiB: %v allocs, of 16 KiB %v: more than %v per extra leaf", large, small, perLeaf)
	}
}

// BenchmarkStreamConnectCycle is one served connection at the host ABI:
// connect, accept, a 64 B request, a 200 B reply, both closes.
func BenchmarkStreamConnectCycle(b *testing.B) {
	b.ReportAllocs()
	k, cli, srv, l := newConnectCycle(b)
	buf := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		connectCycle(b, k, cli, srv, l, buf)
	}
}

// BenchmarkBroadcastSubscribe is what a picoprocess pays to hear its
// sandbox's broadcast stream: subscribe, receive one message, unsubscribe.
func BenchmarkBroadcastSubscribe(b *testing.B) {
	b.ReportAllocs()
	bc := NewBroadcastChannel()
	msg := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		s, err := bc.Subscribe(1)
		if err != nil {
			b.Fatal(err)
		}
		if err := bc.Send(2, msg); err != nil {
			b.Fatal(err)
		}
		if _, ok := s.Recv(); !ok {
			b.Fatal("subscription closed")
		}
		bc.Unsubscribe(1)
	}
}
