package liblinux

import (
	"sort"
	"strconv"
	"sync"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/posix"
)

// resolve turns a possibly relative path into an absolute guest path.
func (p *Process) resolve(path string) string {
	p.mu.Lock()
	cwd := p.cwd
	p.mu.Unlock()
	return posix.Resolve(cwd, path)
}

// Open opens path, routing /proc to the libOS's internal implementation
// (§6.6: "/proc is implemented within libLinux and the system /proc is
// inaccessible from Graphene").
func (p *Process) Open(path string, flags int, mode api.FileMode) (int, error) {
	gp := p.resolve(path)
	if posix.IsProc(gp) {
		data, err := p.procRead(gp)
		if err != nil {
			return 0, err
		}
		return p.fds.Alloc(&posix.Desc{Kind: posix.Proc, Path: gp, Data: data}), nil
	}
	h, err := p.pal.DkStreamOpen("file:"+gp, flags, mode)
	if err != nil {
		return 0, err
	}
	return p.fds.Alloc(posix.NewFile(h, gp, flags, p.fileStat)), nil
}

// fileStat stats the file at the guest path gp through the PAL.
func (p *Process) fileStat(gp string) (api.Stat, error) {
	return p.pal.DkStreamAttributesQuery("file:" + gp)
}

// closeDesc closes the host handle of a description that lost its last
// descriptor.
func (p *Process) closeDesc(d *posix.Desc) error {
	if d == nil || d.Handle == nil {
		return nil
	}
	return p.pal.DkObjectClose(d.Handle)
}

// Close releases fd; the host handle is closed on the last reference.
func (p *Process) Close(fd int) error {
	d, ok := p.fds.Remove(fd)
	if !ok {
		return api.EBADF
	}
	return p.closeDesc(d)
}

// Read reads from fd at its seek pointer (files) or stream head.
func (p *Process) Read(fd int, buf []byte) (int, error) {
	d, ok := p.fds.Get(fd)
	if !ok {
		return 0, api.EBADF
	}
	defer p.SignalsDrain()
	switch d.Kind {
	case posix.File:
		return d.Transfer(buf, func(b []byte, off int64) (int, error) { return p.pal.DkStreamReadAt(d.Handle, b, off) })
	case posix.Proc:
		return d.ReadData(buf), nil
	default:
		return p.pal.DkStreamRead(d.Handle, buf)
	}
}

// Write writes to fd.
func (p *Process) Write(fd int, buf []byte) (int, error) {
	d, ok := p.fds.Get(fd)
	if !ok {
		return 0, api.EBADF
	}
	defer p.SignalsDrain()
	switch d.Kind {
	case posix.File:
		return d.Transfer(buf, func(b []byte, off int64) (int, error) { return p.pal.DkStreamWriteAt(d.Handle, b, off) })
	case posix.Proc:
		return 0, api.EACCES
	default:
		n, err := p.pal.DkStreamWrite(d.Handle, buf)
		if err == api.EPIPE {
			p.deliver(api.SIGPIPE)
		}
		return n, err
	}
}

// Lseek moves a file descriptor's seek pointer — pure library state.
func (p *Process) Lseek(fd int, offset int64, whence int) (int64, error) {
	d, ok := p.fds.Get(fd)
	if !ok {
		return 0, api.EBADF
	}
	return d.Lseek(offset, whence, p.fileStat)
}

// Stat describes the file at path.
func (p *Process) Stat(path string) (api.Stat, error) {
	gp := p.resolve(path)
	if posix.IsProc(gp) {
		data, err := p.procRead(gp)
		if err != nil {
			return api.Stat{}, err
		}
		return posix.ProcStat(gp, data), nil
	}
	return p.fileStat(gp)
}

// Fstat describes an open descriptor.
func (p *Process) Fstat(fd int) (api.Stat, error) {
	d, ok := p.fds.Get(fd)
	if !ok {
		return api.Stat{}, api.EBADF
	}
	return d.Stat(p.fileStat)
}

// Unlink removes the file at path.
func (p *Process) Unlink(path string) error {
	return p.pal.DkStreamDelete("file:" + p.resolve(path))
}

// Mkdir creates a directory.
func (p *Process) Mkdir(path string, mode api.FileMode) error {
	return p.pal.DkStreamMkdir("file:"+p.resolve(path), mode)
}

// ReadDir lists a directory, sorted by name.
func (p *Process) ReadDir(path string) ([]api.DirEnt, error) {
	ents, err := p.pal.DkStreamReadDir("file:" + p.resolve(path))
	if err != nil {
		return nil, err
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
	return ents, nil
}

// Rename moves oldPath to newPath via the rename ABI Graphene added.
func (p *Process) Rename(oldPath, newPath string) error {
	h, err := p.pal.DkStreamOpen("file:"+p.resolve(oldPath), api.ORdOnly, 0)
	if err != nil {
		return err
	}
	defer func() { _ = p.pal.DkObjectClose(h) }()
	return p.pal.DkStreamChangeName(h, "file:"+p.resolve(newPath))
}

// Chdir changes the working directory.
func (p *Process) Chdir(path string) error {
	gp := p.resolve(path)
	st, err := p.fileStat(gp)
	if err != nil {
		return err
	}
	if !st.IsDir {
		return api.ENOTDIR
	}
	p.mu.Lock()
	p.cwd = gp
	p.mu.Unlock()
	return nil
}

// Getcwd returns the working directory.
func (p *Process) Getcwd() (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cwd, nil
}

// Dup2 makes newFD refer to oldFD's description (shared seek pointer).
func (p *Process) Dup2(oldFD, newFD int) (int, error) {
	released, err := p.fds.Dup2(oldFD, newFD)
	if err != nil {
		return 0, err
	}
	_ = p.closeDesc(released) // newFD is already oldFD's; a close error is not dup2's
	return newFD, nil
}

// Pipe creates a unidirectional byte channel: two descriptors over the two
// endpoints of a host stream pair.
func (p *Process) Pipe() (int, int, error) {
	// Rendezvous through the PAL's pipe namespace: a server endpoint and a
	// connecting endpoint form the pair.
	name := pipeName(p)
	srv, err := p.pal.DkStreamOpen("pipe.srv:"+name, 0, 0)
	if err != nil {
		return 0, 0, err
	}
	type acceptResult struct {
		h   *host.Handle
		err error
	}
	ch := make(chan acceptResult, 1)
	go func() {
		h, err := p.pal.DkStreamWaitForClient(srv)
		ch <- acceptResult{h, err}
	}()
	w, err := p.pal.DkStreamOpen("pipe:"+name, 0, 0)
	if err != nil {
		_ = p.pal.DkObjectClose(srv)
		return 0, 0, err
	}
	res := <-ch
	_ = p.pal.DkObjectClose(srv)
	if res.err != nil {
		return 0, 0, res.err
	}
	rfd := p.fds.Alloc(&posix.Desc{Kind: posix.Pipe, Handle: res.h, Path: "pipe:" + name})
	wfd := p.fds.Alloc(&posix.Desc{Kind: posix.Pipe, Handle: w, Path: "pipe:" + name})
	return rfd, wfd, nil
}

var pipeCounter struct {
	mu sync.Mutex
	n  int
}

func pipeName(p *Process) string {
	pipeCounter.mu.Lock()
	pipeCounter.n++
	n := pipeCounter.n
	pipeCounter.mu.Unlock()
	return "anonpipe." + strconv.FormatInt(p.pid, 10) + "." + strconv.Itoa(n)
}
