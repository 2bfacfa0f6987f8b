package native

import (
	"bytes"
	"testing"

	"graphene/internal/api"
	"graphene/internal/host"
)

// imageReadsZero exits 0 iff the calling process's program image reads as
// zeros.
func imageReadsZero(p api.OS) int {
	buf := make([]byte, imageBytes)
	if err := p.MemRead(imageBase, buf); err != nil {
		return 10
	}
	if bytes.Count(buf, []byte{0}) != len(buf) {
		return 11
	}
	return 0
}

// TestImageWriteStaysPrivate: every process maps the host kernel's one
// program image, and a write into it stays the writer's — and its fork
// children's, which are copies of it. A sibling started before the write
// and a process started after it read zeros there, and so does a fresh
// mapping of the kernel's image afterwards.
func TestImageWriteStaysPrivate(t *testing.T) {
	k := NewKernel()
	release := make(chan struct{})
	for path, prog := range map[string]api.Program{
		"/bin/imgread": func(p api.OS, argv []string) int { return imageReadsZero(p) },
		"/bin/imgsib":  func(p api.OS, argv []string) int { <-release; return imageReadsZero(p) },
	} {
		if err := k.RegisterProgram(path, prog); err != nil {
			t.Fatal(err)
		}
	}
	status := func(p api.OS, pid int, err error) int {
		if err != nil {
			return 1
		}
		res, err := p.Wait(pid)
		if err != nil {
			return 2
		}
		return res.ExitCode
	}
	data := bytes.Repeat([]byte{0xa5}, 3*host.PageSize)
	addr := uint64(imageBase + 5*host.PageSize + 100)
	code := launch(t, k, func(p api.OS, argv []string) int {
		sib, err := p.Spawn("/bin/imgsib", []string{"/bin/imgsib"})
		if err != nil {
			return 20
		}
		if err := p.MemWrite(addr, data); err != nil {
			return 21
		}
		close(release)
		if rc := status(p, sib, nil); rc != 0 {
			return 100 + rc
		}
		pid, err := p.Spawn("/bin/imgread", []string{"/bin/imgread"})
		if rc := status(p, pid, err); rc != 0 {
			return 200 + rc
		}
		pid, err = p.Fork(func(c api.OS) {
			got := make([]byte, len(data))
			if err := c.MemRead(addr, got); err != nil || !bytes.Equal(got, data) {
				c.Exit(1)
			}
			c.Exit(0)
		})
		if rc := status(p, pid, err); rc != 0 {
			return 300 + rc
		}
		return 0
	})
	if code != 0 {
		t.Fatalf("writer failed with %d (1xx sibling, 2xx started after, 3xx fork child)", code)
	}
	as := host.NewAddressSpace()
	defer as.Release()
	if _, err := as.Alloc(imageBase, imageBytes, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := k.host.MapImage(as, imageBase, imageBytes); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, imageBytes)
	if err := as.Read(imageBase, buf); err != nil || bytes.Count(buf, []byte{0}) != len(buf) {
		t.Fatalf("the kernel's image no longer reads zeros (%v)", err)
	}
}
