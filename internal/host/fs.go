package host

import (
	"path"
	"sort"
	"strings"
	"sync"

	"graphene/internal/api"
)

// FileSystem is the in-memory host file system. The reference monitor gives
// each sandbox a chroot-style, unioned *view* of it (the manifest); the
// host itself stores a single tree.
type FileSystem struct {
	mu   sync.RWMutex
	root *fsNode
}

type fsNode struct {
	name     string
	isDir    bool
	mode     api.FileMode
	data     []byte
	children map[string]*fsNode
}

// NewFileSystem returns a file system containing only "/".
func NewFileSystem() *FileSystem {
	return &FileSystem{root: &fsNode{name: "/", isDir: true, mode: 0755, children: make(map[string]*fsNode)}}
}

// CleanPath normalizes p to an absolute, "."/".."-free path. Escapes above
// the root clamp at "/", as in a chroot. A path that is already clean costs
// one scan and comes back as is, without allocating.
func CleanPath(p string) string {
	if p == "" || p[0] != '/' {
		p = "/" + p
	}
	return path.Clean(p)
}

// lookup walks p's clean components from the root, slicing each name out
// of the path in place.
func (fs *FileSystem) lookup(p string) *fsNode {
	n := fs.root
	for rest := CleanPath(p)[1:]; rest != ""; {
		var name string
		name, rest, _ = strings.Cut(rest, "/")
		if !n.isDir {
			return nil
		}
		if n = n.children[name]; n == nil {
			return nil
		}
	}
	return n
}

// lookupParent returns the node holding p's last component and that
// component's name, a substring of p.
func (fs *FileSystem) lookupParent(p string) (*fsNode, string) {
	p = CleanPath(p)
	if p == "/" {
		return nil, ""
	}
	i := strings.LastIndexByte(p, '/')
	return fs.lookup(p[:i]), p[i+1:]
}

// Mkdir creates a directory. Parent must exist.
func (fs *FileSystem) Mkdir(p string, mode api.FileMode) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name := fs.lookupParent(p)
	if parent == nil || !parent.isDir {
		return api.ENOENT
	}
	if _, ok := parent.children[name]; ok {
		return api.EEXIST
	}
	parent.link(&fsNode{name: name, isDir: true, mode: mode, children: make(map[string]*fsNode)})
	return nil
}

// MkdirAll creates p and any missing parents.
func (fs *FileSystem) MkdirAll(p string, mode api.FileMode) error {
	p = CleanPath(p)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := fs.root
	for rest := p[1:]; rest != ""; {
		var name string
		name, rest, _ = strings.Cut(rest, "/")
		if !n.isDir {
			return api.ENOENT
		}
		if n.children[name] == nil {
			n.link(&fsNode{name: name, isDir: true, mode: mode, children: make(map[string]*fsNode)})
		}
		n = n.children[name]
	}
	return nil
}

// link stores c in directory n, copying c's name out of the path it was
// sliced from.
func (n *fsNode) link(c *fsNode) {
	c.name = strings.Clone(c.name)
	n.children[c.name] = c
}

// WriteFile creates or replaces the file at p with data.
func (fs *FileSystem) WriteFile(p string, data []byte, mode api.FileMode) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name := fs.lookupParent(p)
	if parent == nil || !parent.isDir {
		return api.ENOENT
	}
	if existing, ok := parent.children[name]; ok {
		if existing.isDir {
			return api.EISDIR
		}
		existing.data = append([]byte(nil), data...)
		return nil
	}
	parent.children[name] = &fsNode{name: name, mode: mode, data: append([]byte(nil), data...)}
	return nil
}

// ReadFile returns the contents of the file at p.
func (fs *FileSystem) ReadFile(p string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n := fs.lookup(p)
	if n == nil {
		return nil, api.ENOENT
	}
	if n.isDir {
		return nil, api.EISDIR
	}
	return append([]byte(nil), n.data...), nil
}

// Stat describes the node at p.
func (fs *FileSystem) Stat(p string) (api.Stat, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n := fs.lookup(p)
	if n == nil {
		return api.Stat{}, api.ENOENT
	}
	return api.Stat{Name: n.name, Size: int64(len(n.data)), Mode: n.mode, IsDir: n.isDir}, nil
}

// Unlink removes the file at p.
func (fs *FileSystem) Unlink(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, name := fs.lookupParent(p)
	if parent == nil {
		return api.ENOENT
	}
	n, ok := parent.children[name]
	if !ok {
		return api.ENOENT
	}
	if n.isDir {
		if len(n.children) > 0 {
			return api.ENOTEMPTY
		}
	}
	delete(parent.children, name)
	return nil
}

// Rename moves old to new (the StreamChangeName ABI Graphene added).
func (fs *FileSystem) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	op, oname := fs.lookupParent(oldPath)
	if op == nil {
		return api.ENOENT
	}
	n, ok := op.children[oname]
	if !ok {
		return api.ENOENT
	}
	np, nname := fs.lookupParent(newPath)
	if np == nil || !np.isDir {
		return api.ENOENT
	}
	delete(op.children, oname)
	n.name = nname
	np.link(n)
	return nil
}

// ReadDir lists the directory at p, sorted by name.
func (fs *FileSystem) ReadDir(p string) ([]api.DirEnt, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n := fs.lookup(p)
	if n == nil {
		return nil, api.ENOENT
	}
	if !n.isDir {
		return nil, api.ENOTDIR
	}
	out := make([]api.DirEnt, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, api.DirEnt{Name: c.name, IsDir: c.isDir})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Exists reports whether p names a file or directory.
func (fs *FileSystem) Exists(p string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.lookup(p) != nil
}

// OpenFile is a host file handle with a host-side byte cursor. Note that
// POSIX seek-pointer semantics live in the libOS (§4.2 "Shared File
// Descriptors"); this cursor belongs to a single PAL handle.
//
// The handle holds the file, not its name: I/O reaches the file it opened
// after an unlink or rename. Path only names the handle.
type OpenFile struct {
	FS    *FileSystem
	Path  string
	Flags int

	node *fsNode

	mu  sync.Mutex
	pos int64
}

// OpenFileHandle opens p on fs, honoring create/trunc/excl flags.
func (fs *FileSystem) OpenFileHandle(p string, flags int, mode api.FileMode) (*OpenFile, error) {
	p = CleanPath(p)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := fs.lookup(p)
	if n == nil {
		if flags&api.OCreate == 0 {
			return nil, api.ENOENT
		}
		parent, name := fs.lookupParent(p)
		if parent == nil || !parent.isDir {
			return nil, api.ENOENT
		}
		n = &fsNode{name: name, mode: mode}
		parent.link(n)
	} else {
		if flags&api.OCreate != 0 && flags&api.OExcl != 0 {
			return nil, api.EEXIST
		}
		if n.isDir && flags&(api.OWrOnly|api.ORdWr) != 0 {
			return nil, api.EISDIR
		}
		if flags&api.OTrunc != 0 {
			n.data = nil
		}
	}
	return &OpenFile{FS: fs, Path: p, Flags: flags, node: n}, nil
}

// ReadAt reads from the file at offset off.
func (f *OpenFile) ReadAt(buf []byte, off int64) (int, error) {
	f.FS.mu.RLock()
	defer f.FS.mu.RUnlock()
	if off >= int64(len(f.node.data)) {
		return 0, nil
	}
	return copy(buf, f.node.data[off:]), nil
}

// WriteAt writes to the file at offset off, extending it as needed.
func (f *OpenFile) WriteAt(data []byte, off int64) (int, error) {
	f.FS.mu.Lock()
	defer f.FS.mu.Unlock()
	n := f.node
	if f.Flags&api.OAppend != 0 {
		off = int64(len(n.data))
	}
	if need := off + int64(len(data)); need > int64(len(n.data)) {
		n.resize(need)
	}
	copy(n.data[off:], data)
	return len(data), nil
}

// resize sets the file's length to size, zero-filling any extension. The
// backing array at least doubles when it grows, so appending N bytes copies
// O(N) bytes in total.
func (n *fsNode) resize(size int64) {
	if size > int64(cap(n.data)) {
		n.data = append(make([]byte, 0, max(size, 2*int64(cap(n.data)))), n.data...)
	}
	old := int64(len(n.data))
	n.data = n.data[:size]
	if size > old {
		clear(n.data[old:])
	}
}

// Read reads from the handle's cursor.
func (f *OpenFile) Read(buf []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.ReadAt(buf, f.pos)
	f.pos += int64(n)
	return n, err
}

// Write writes at the handle's cursor.
func (f *OpenFile) Write(data []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.WriteAt(data, f.pos)
	f.pos += int64(n)
	return n, err
}

// Size returns the current file size.
func (f *OpenFile) Size() int64 {
	f.FS.mu.RLock()
	defer f.FS.mu.RUnlock()
	return int64(len(f.node.data))
}

// SetLength truncates or extends the file.
func (f *OpenFile) SetLength(size int64) error {
	f.FS.mu.Lock()
	defer f.FS.mu.Unlock()
	f.node.resize(size)
	return nil
}
