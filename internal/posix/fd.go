// Package posix is the per-process state Linux keeps in its core kernel,
// written once for every personality: open file descriptions and the
// descriptor table, signal dispositions and delivery, the child table
// wait(2) reads, the per-process fields of /proc, and System V's message
// matching and semop rules. Native Linux and libLinux both keep their
// processes in these types. What differs between them stays with them: how
// I/O reaches the host, how a fatal signal is carried out, and who may see
// /proc. Nothing here asks which personality is calling.
package posix

import (
	"maps"
	"slices"
	"strings"
	"sync"

	"graphene/internal/api"
	"graphene/internal/host"
)

// Kind is what an open file description refers to.
type Kind int

// Description kinds. The values are a checkpoint's encoding of a
// descriptor, so they never change.
const (
	File Kind = iota
	Pipe
	Socket
	Listener
	TTY
	Proc
)

// Desc is an open file description. dup2'd descriptors share one, as do a
// parent and its child after a native fork; the seek position is the
// description's (POSIX "shared file offset"), kept here because host
// handles are cursor-free (§4.2, "Shared File Descriptors").
type Desc struct {
	Kind   Kind
	Handle *host.Handle
	Path   string
	Flags  int
	// Data is a /proc file's contents, rendered when it was opened.
	Data []byte

	mu  sync.Mutex
	pos int64
}

// NewFile describes a regular file opened with flags. O_APPEND starts it at
// the end of the file, whose size stat reports.
func NewFile(h *host.Handle, path string, flags int, stat func(string) (api.Stat, error)) *Desc {
	d := &Desc{Kind: File, Handle: h, Path: path, Flags: flags}
	if flags&api.OAppend != 0 {
		if st, err := stat(path); err == nil {
			d.pos = st.Size
		}
	}
	return d
}

// IsStream reports whether d is a byte stream: a pipe or a connected socket.
func (d *Desc) IsStream() bool { return d.Kind == Pipe || d.Kind == Socket }

// Transfer runs io, a ReadAt or WriteAt, at the seek position and advances
// it by the bytes moved. The position stays locked across io, so concurrent
// transfers on one description never read or write the same bytes twice.
func (d *Desc) Transfer(buf []byte, io func([]byte, int64) (int, error)) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, err := io(buf, d.pos)
	d.pos += int64(n)
	return n, err
}

// ReadData reads a /proc file's contents at the seek position.
func (d *Desc) ReadData(buf []byte) int {
	n, _ := d.Transfer(buf, func(b []byte, off int64) (int, error) {
		if off >= int64(len(d.Data)) {
			return 0, nil
		}
		return copy(b, d.Data[off:]), nil
	})
	return n
}

// Lseek moves the seek position as lseek(2) does: ESPIPE for anything but a
// regular or /proc file, EINVAL for an unknown whence or a negative result.
// stat is the personality's stat(2) of a path; SEEK_END asks it for a
// regular file's size.
func (d *Desc) Lseek(offset int64, whence int, stat func(string) (api.Stat, error)) (int64, error) {
	if d.Kind != File && d.Kind != Proc {
		return 0, api.ESPIPE
	}
	end := int64(len(d.Data))
	if whence == api.SeekEnd && d.Kind == File {
		st, err := stat(d.Path)
		if err != nil {
			return 0, err
		}
		end = st.Size
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var base int64
	switch whence {
	case api.SeekSet:
	case api.SeekCur:
		base = d.pos
	case api.SeekEnd:
		base = end
	default:
		return 0, api.EINVAL
	}
	if base+offset < 0 {
		return 0, api.EINVAL
	}
	d.pos = base + offset
	return d.pos, nil
}

// Stat is fstat(2) of d: a regular file is stat of its path, which stat
// answers, and a /proc file is what stat(2) of its path reports.
func (d *Desc) Stat(stat func(string) (api.Stat, error)) (api.Stat, error) {
	switch d.Kind {
	case File:
		return stat(d.Path)
	case Proc:
		return ProcStat(d.Path, d.Data), nil
	}
	return api.Stat{Name: d.Path, Mode: 0600}, nil
}

// FDTable maps a process's descriptor numbers to open file descriptions.
type FDTable struct {
	mu  sync.Mutex
	fds map[int]*Desc
	// refs counts each description's descriptors here.
	refs map[*Desc]int
}

// NewFDTable returns an empty table.
func NewFDTable() *FDTable { return &FDTable{fds: make(map[int]*Desc), refs: make(map[*Desc]int)} }

// Alloc installs d at the lowest free descriptor, as open(2) must, and
// returns that descriptor.
func (t *FDTable) Alloc(d *Desc) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for fd := 0; ; fd++ {
		if _, used := t.fds[fd]; !used {
			t.installLocked(fd, d)
			return fd
		}
	}
}

// Install makes fd refer to d, as a standard descriptor or a restored one.
// It returns the description fd referred to before when fd was that
// description's last descriptor here: the caller releases it.
func (t *FDTable) Install(fd int, d *Desc) (released *Desc) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.installLocked(fd, d)
}

func (t *FDTable) installLocked(fd int, d *Desc) *Desc {
	t.refs[d]++
	prev := t.fds[fd]
	t.fds[fd] = d
	return t.unrefLocked(prev)
}

// unrefLocked drops one descriptor's reference to d and returns d when it
// was the last.
func (t *FDTable) unrefLocked(d *Desc) *Desc {
	if d == nil {
		return nil
	}
	if t.refs[d]--; t.refs[d] > 0 {
		return nil
	}
	delete(t.refs, d)
	return d
}

// Dup2 makes newFD refer to oldFD's description (dup2(2)): EBADF when oldFD
// is not open. released is as for Install.
func (t *FDTable) Dup2(oldFD, newFD int) (released *Desc, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.fds[oldFD]
	if !ok {
		return nil, api.EBADF
	}
	return t.installLocked(newFD, d), nil
}

// Get returns fd's description.
func (t *FDTable) Get(fd int) (*Desc, bool) {
	t.mu.Lock()
	d, ok := t.fds[fd]
	t.mu.Unlock()
	return d, ok
}

// Remove closes fd; ok is false when fd is not open. released is fd's
// description when fd was its last descriptor here: the caller releases it.
func (t *FDTable) Remove(fd int) (released *Desc, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.fds[fd]
	if !ok {
		return nil, false
	}
	delete(t.fds, fd)
	return t.unrefLocked(d), true
}

// GetSock returns fd's description for a socket call: EBADF when fd is not
// open, ENOTSOCK when it is none of kinds (accept(2), sendmsg(2)).
func (t *FDTable) GetSock(fd int, kinds ...Kind) (*Desc, error) {
	d, ok := t.Get(fd)
	switch {
	case !ok:
		return nil, api.EBADF
	case !slices.Contains(kinds, d.Kind):
		return nil, api.ENOTSOCK
	}
	return d, nil
}

// Passable checks PassConnection's operands: overFD must be a stream to send
// on, and connFD an accepted connection or a listening socket (SCM_RIGHTS,
// unix(7)). Anything else is EINVAL at the sender, which beats handing the
// receiver a descriptor it cannot serve.
func (t *FDTable) Passable(overFD, connFD int) (over, conn *Desc, err error) {
	over, ok := t.Get(overFD)
	conn, ok2 := t.Get(connFD)
	switch {
	case !ok || !ok2:
		return nil, nil, api.EBADF
	case !over.IsStream():
		return nil, nil, api.ENOTSOCK
	case conn.Kind != Socket && conn.Kind != Listener:
		return nil, nil, api.EINVAL
	}
	return over, conn, nil
}

// Open is one entry of a table snapshot.
type Open struct {
	FD int
	D  *Desc
}

// Snapshot lists the open descriptors in ascending order, so that a
// checkpoint of equal state is equal bytes.
func (t *FDTable) Snapshot() []Open {
	t.mu.Lock()
	out := make([]Open, 0, len(t.fds))
	for fd, d := range t.fds {
		out = append(out, Open{fd, d})
	}
	t.mu.Unlock()
	slices.SortFunc(out, func(a, b Open) int { return a.FD - b.FD })
	return out
}

// CloseAll empties the table, as exit does, and returns each description it
// held once.
func (t *FDTable) CloseAll() []*Desc {
	t.mu.Lock()
	refs := t.refs
	t.fds, t.refs = make(map[int]*Desc), make(map[*Desc]int)
	t.mu.Unlock()
	return descs(refs)
}

// Clone copies the table for a forked child, which shares every
// description. It also returns each description once, for the child to
// take its own hold on what is behind it.
func (t *FDTable) Clone() (*FDTable, []*Desc) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &FDTable{fds: maps.Clone(t.fds), refs: maps.Clone(t.refs)}, descs(t.refs)
}

func descs(refs map[*Desc]int) []*Desc {
	out := make([]*Desc, 0, len(refs))
	for d := range refs {
		out = append(out, d)
	}
	return out
}

// Resolve turns path, relative to cwd unless absolute, into a clean
// absolute path.
func Resolve(cwd, path string) string {
	if strings.HasPrefix(path, "/") {
		return host.CleanPath(path)
	}
	return host.CleanPath(cwd + "/" + path)
}
