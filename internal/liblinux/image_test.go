package liblinux

import (
	"bytes"
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
)

// imageReadsZero exits 0 iff the calling process's libOS image reads as
// zeros.
func imageReadsZero(p api.OS) int {
	buf := make([]byte, libOSImageBytes)
	if err := p.MemRead(libOSImageBase, buf); err != nil {
		return 10
	}
	if bytes.Count(buf, []byte{0}) != len(buf) {
		return 11
	}
	return 0
}

// TestImageWriteStaysPrivate: every picoprocess maps the host kernel's one
// libOS image, and a write into it stays the writer's. A sibling started
// before the write, a picoprocess started after it, and one started on the
// far side of a sandbox_create split all read zeros there; so does a fresh
// mapping of the kernel's image afterwards. The writer's checkpoint is the
// same length after the write as before: images never travel.
func TestImageWriteStaysPrivate(t *testing.T) {
	rt, man := testEnv(t)
	release := make(chan struct{})
	ready, proceed := make(chan struct{}), make(chan struct{})
	written, checked := make(chan struct{}), make(chan struct{})
	for path, prog := range map[string]api.Program{
		"/bin/imgread": func(p api.OS, argv []string) int { return imageReadsZero(p) },
		"/bin/imgsib":  func(p api.OS, argv []string) int { <-release; return imageReadsZero(p) },
	} {
		if err := rt.RegisterProgram(path, prog); err != nil {
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
	spawnStatus := func(p api.OS, path string) int {
		pid, err := p.Spawn(path, []string{path})
		return status(p, pid, err)
	}
	writer := func(p api.OS, argv []string) int {
		sib, err := p.Spawn("/bin/imgsib", []string{"/bin/imgsib"})
		if err != nil {
			return 20
		}
		close(ready)
		<-proceed
		data := bytes.Repeat([]byte{0xa5}, 3*host.PageSize)
		addr := uint64(libOSImageBase + 5*host.PageSize + 100)
		if err := p.MemWrite(addr, data); err != nil {
			return 21
		}
		got := make([]byte, len(data))
		if err := p.MemRead(addr, got); err != nil || !bytes.Equal(got, data) {
			return 22
		}
		close(written)
		<-checked
		close(release)
		if rc := status(p, sib, nil); rc != 0 {
			return 100 + rc
		}
		if rc := spawnStatus(p, "/bin/imgread"); rc != 0 {
			return 200 + rc
		}
		child, err := p.Fork(func(c api.OS) {
			if err := c.(api.SandboxCreator).SandboxCreate([]string{"/"}); err != nil {
				c.Exit(30)
			}
			if rc := imageReadsZero(c); rc != 0 {
				c.Exit(rc)
			}
			c.Exit(spawnStatus(c, "/bin/imgread"))
		})
		if rc := status(p, child, err); rc != 0 {
			return 300 + rc
		}
		return 0
	}
	if err := rt.RegisterProgram("/bin/imgwrite", writer); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Launch(man, "/bin/imgwrite", []string{"/bin/imgwrite"})
	if err != nil {
		t.Fatal(err)
	}
	<-ready
	before, err := res.Process.CheckpointToBytes()
	if err != nil {
		t.Fatal(err)
	}
	close(proceed)
	<-written
	after, err := res.Process.CheckpointToBytes()
	if err != nil {
		t.Fatal(err)
	}
	close(checked)
	select {
	case <-res.Done:
	case <-time.After(30 * time.Second):
		t.Fatal("writer did not exit")
	}
	if code := res.ExitCode(); code != 0 {
		t.Fatalf("writer failed with %d (1xx sibling, 2xx started after, 3xx split side)", code)
	}
	if len(after) != len(before) {
		t.Fatalf("checkpoint %d bytes after the image write, %d before: the image travelled", len(after), len(before))
	}
	as := host.NewAddressSpace()
	defer as.Release()
	if _, err := as.Alloc(libOSImageBase, libOSImageBytes, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := rt.Kernel().MapImage(as, libOSImageBase, libOSImageBytes); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, libOSImageBytes)
	if err := as.Read(libOSImageBase, buf); err != nil || bytes.Count(buf, []byte{0}) != len(buf) {
		t.Fatalf("the kernel's image no longer reads zeros (%v)", err)
	}
}
