package liblinux

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"graphene/internal/api"
	"graphene/internal/host"
)

// fdKind discriminates file description types.
type fdKind int

const (
	fdFile fdKind = iota
	fdPipe
	fdSocket
	fdListener
	fdTTY
	fdProc
)

// fdesc is one open file description. POSIX seek pointers live here, in
// the library OS — the host ABI's handles are cursor-free (§4.2, "Shared
// File Descriptors"). dup2'd descriptors share the description.
type fdesc struct {
	kind   fdKind
	handle *host.Handle
	path   string
	flags  int

	mu  sync.Mutex
	pos int64
	// data backs synthetic /proc files.
	data []byte
}

// fdTable maps descriptor numbers to descriptions.
type fdTable struct {
	mu   sync.Mutex
	fds  map[int]*fdesc
	next int
}

func newFDTable() *fdTable {
	return &fdTable{fds: make(map[int]*fdesc), next: 3}
}

func (t *fdTable) install(fd int, d *fdesc) {
	t.mu.Lock()
	t.fds[fd] = d
	if fd >= t.next {
		t.next = fd + 1
	}
	t.mu.Unlock()
}

func (t *fdTable) alloc(d *fdesc) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Reuse the lowest free descriptor, as POSIX requires.
	for fd := 0; ; fd++ {
		if _, used := t.fds[fd]; !used {
			t.fds[fd] = d
			return fd
		}
	}
}

func (t *fdTable) get(fd int) (*fdesc, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.fds[fd]
	return d, ok
}

func (t *fdTable) remove(fd int) (*fdesc, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.fds[fd]
	delete(t.fds, fd)
	return d, ok
}

// refs counts how many descriptor numbers reference each description, so
// close only releases the host handle on the last reference.
func (t *fdTable) refs(d *fdesc) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, e := range t.fds {
		if e == d {
			n++
		}
	}
	return n
}

// openFD is one entry of a descriptor-table snapshot.
type openFD struct {
	fd int
	d  *fdesc
}

// snapshot lists the open descriptors in ascending fd order, so that a
// checkpoint of equal state is equal bytes.
func (t *fdTable) snapshot() []openFD {
	t.mu.Lock()
	out := make([]openFD, 0, len(t.fds))
	for fd, d := range t.fds {
		out = append(out, openFD{fd, d})
	}
	t.mu.Unlock()
	slices.SortFunc(out, func(a, b openFD) int { return a.fd - b.fd })
	return out
}

func (t *fdTable) closeAll(p interface{ DkObjectClose(*host.Handle) error }) {
	t.mu.Lock()
	fds := t.fds
	t.fds = make(map[int]*fdesc)
	t.mu.Unlock()
	seen := make(map[*fdesc]bool)
	for _, d := range fds {
		if seen[d] || d.handle == nil {
			continue
		}
		seen[d] = true
		_ = p.DkObjectClose(d.handle)
	}
}

// resolve turns a possibly relative path into an absolute guest path.
func (p *Process) resolve(path string) string {
	if strings.HasPrefix(path, "/") {
		return host.CleanPath(path)
	}
	p.mu.Lock()
	cwd := p.cwd
	p.mu.Unlock()
	return host.CleanPath(cwd + "/" + path)
}

// Open opens path, routing /proc to the libOS's internal implementation
// (§6.6: "/proc is implemented within libLinux and the system /proc is
// inaccessible from Graphene").
func (p *Process) Open(path string, flags int, mode api.FileMode) (int, error) {
	gp := p.resolve(path)
	if strings.HasPrefix(gp, "/proc") {
		data, err := p.procRead(gp)
		if err != nil {
			return 0, err
		}
		return p.fds.alloc(&fdesc{kind: fdProc, path: gp, data: data}), nil
	}
	h, err := p.pal.DkStreamOpen("file:"+gp, flags, mode)
	if err != nil {
		return 0, err
	}
	d := &fdesc{kind: fdFile, handle: h, path: gp, flags: flags}
	if flags&api.OAppend != 0 {
		if st, err := p.pal.DkStreamAttributesQuery("file:" + gp); err == nil {
			d.pos = st.Size
		}
	}
	return p.fds.alloc(d), nil
}

// Close releases fd; the host handle is closed on the last reference.
func (p *Process) Close(fd int) error {
	d, ok := p.fds.remove(fd)
	if !ok {
		return api.EBADF
	}
	if p.fds.refs(d) == 0 && d.handle != nil {
		return p.pal.DkObjectClose(d.handle)
	}
	return nil
}

// Read reads from fd at its seek pointer (files) or stream head.
func (p *Process) Read(fd int, buf []byte) (int, error) {
	d, ok := p.fds.get(fd)
	if !ok {
		return 0, api.EBADF
	}
	defer p.sig.drain()
	switch d.kind {
	case fdFile:
		d.mu.Lock()
		n, err := p.pal.DkStreamReadAt(d.handle, buf, d.pos)
		d.pos += int64(n)
		d.mu.Unlock()
		return n, err
	case fdProc:
		d.mu.Lock()
		defer d.mu.Unlock()
		if d.pos >= int64(len(d.data)) {
			return 0, nil
		}
		n := copy(buf, d.data[d.pos:])
		d.pos += int64(n)
		return n, nil
	default:
		return p.pal.DkStreamRead(d.handle, buf)
	}
}

// Write writes to fd.
func (p *Process) Write(fd int, buf []byte) (int, error) {
	d, ok := p.fds.get(fd)
	if !ok {
		return 0, api.EBADF
	}
	defer p.sig.drain()
	switch d.kind {
	case fdFile:
		d.mu.Lock()
		n, err := p.pal.DkStreamWriteAt(d.handle, buf, d.pos)
		d.pos += int64(n)
		d.mu.Unlock()
		return n, err
	case fdProc:
		return 0, api.EACCES
	default:
		n, err := p.pal.DkStreamWrite(d.handle, buf)
		if err == api.EPIPE {
			p.sig.deliver(api.SIGPIPE)
		}
		return n, err
	}
}

// Lseek moves a file descriptor's seek pointer — pure library state.
func (p *Process) Lseek(fd int, offset int64, whence int) (int64, error) {
	d, ok := p.fds.get(fd)
	if !ok {
		return 0, api.EBADF
	}
	if d.kind != fdFile && d.kind != fdProc {
		return 0, api.ESPIPE
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var base int64
	switch whence {
	case api.SeekSet:
		base = 0
	case api.SeekCur:
		base = d.pos
	case api.SeekEnd:
		if d.kind == fdProc {
			base = int64(len(d.data))
		} else {
			st, err := p.pal.DkStreamAttributesQuery("file:" + d.path)
			if err != nil {
				return 0, err
			}
			base = st.Size
		}
	default:
		return 0, api.EINVAL
	}
	n := base + offset
	if n < 0 {
		return 0, api.EINVAL
	}
	d.pos = n
	return n, nil
}

// Stat describes the file at path.
func (p *Process) Stat(path string) (api.Stat, error) {
	gp := p.resolve(path)
	if strings.HasPrefix(gp, "/proc") {
		data, err := p.procRead(gp)
		if err != nil {
			return api.Stat{}, err
		}
		return api.Stat{Name: gp, Size: int64(len(data)), Mode: 0444}, nil
	}
	return p.pal.DkStreamAttributesQuery("file:" + gp)
}

// Fstat describes an open descriptor.
func (p *Process) Fstat(fd int) (api.Stat, error) {
	d, ok := p.fds.get(fd)
	if !ok {
		return api.Stat{}, api.EBADF
	}
	switch d.kind {
	case fdFile:
		return p.pal.DkStreamAttributesQuery("file:" + d.path)
	case fdProc:
		return api.Stat{Name: d.path, Size: int64(len(d.data)), Mode: 0444}, nil
	default:
		return api.Stat{Name: d.path, Mode: 0600}, nil
	}
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
	st, err := p.pal.DkStreamAttributesQuery("file:" + gp)
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
	d, ok := p.fds.get(oldFD)
	if !ok {
		return 0, api.EBADF
	}
	if oldFD == newFD {
		return newFD, nil
	}
	if old, ok := p.fds.remove(newFD); ok && p.fds.refs(old) == 0 && old.handle != nil {
		_ = p.pal.DkObjectClose(old.handle)
	}
	p.fds.install(newFD, d)
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
	rfd := p.fds.alloc(&fdesc{kind: fdPipe, handle: res.h, path: "pipe:" + name})
	wfd := p.fds.alloc(&fdesc{kind: fdPipe, handle: w, path: "pipe:" + name})
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
	return "anonpipe." + itoa(int64(p.pid)) + "." + itoa(int64(n))
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
