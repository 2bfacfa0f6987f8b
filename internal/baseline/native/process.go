package native

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/posix"
)

// Process is one native Linux process: a host picoprocess plus the state
// Linux keeps for it in-kernel (descriptor table, signal dispositions,
// children, process group).
type Process struct {
	kernel *Kernel
	pp     *host.Picoprocess

	// fds holds open file descriptions; the host stream or listener behind
	// one is held once per process that has a descriptor for it
	// (Kernel.hold), and the last such descriptor's close, or the process's
	// exit, gives that hold back.
	fds      *posix.FDTable
	sig      posix.Signals
	children posix.Children

	mu          sync.Mutex
	programPath string
	argv        []string
	pgid        int
	cwd         string
	env         map[string]string
	brk         uint64
	brkEnd      uint64

	exitOnce      sync.Once
	exitCode      int
	exitRequested int
}

var _ api.OS = (*Process)(nil)
var _ api.FaultPointer = (*Process)(nil)
var _ api.Elector = (*Process)(nil)

// enter is the system-call crossing: the host's syscall gate, taken as a
// PAL call takes it, with no filter installed. A dead process gets ESRCH.
func (p *Process) enter(nr int) error {
	return p.crossed(p.kernel.host.Gate(p.pp, nr, false))
}

// crossed passes a crossing's error through, except that a killed
// process's thread does not come back from a failed one: it unwinds as
// Exit unwinds the calling thread.
func (p *Process) crossed(err error) error {
	if err != nil && p.sig.Killed() {
		panic(processExited{})
	}
	return err
}

// FaultPoint is a no-op (api.FaultPointer): the native personality has no
// fault-injection layer — chaos plans target the Graphene host — but apps
// evaluate their decision points unconditionally, so the surface exists.
func (p *Process) FaultPoint(string) int { return 0 }

// ElectEpoch bumps the kernel-global takeover epoch (api.Elector). Native
// has no coordination plane to run an election round through; a monotonic
// counter in the shared kernel gives adopters the same handover label.
func (p *Process) ElectEpoch() (int64, error) {
	if err := p.enter(host.SysPrctl); err != nil {
		return 0, err
	}
	k := p.kernel
	k.mu.Lock()
	defer k.mu.Unlock()
	k.takeoverEpoch++
	return k.takeoverEpoch, nil
}

// run executes prog as this process's program, following exec chains, and
// returns its exit status.
func (p *Process) run(prog api.Program, argv []string) int {
	for {
		code, exec := p.runOnce(prog, argv)
		if exec == nil {
			return code
		}
		prog, argv = exec.prog, exec.argv
	}
}

func (p *Process) runOnce(prog api.Program, argv []string) (code int, exec *execRequest) {
	defer func() {
		if r := recover(); r != nil {
			switch v := r.(type) {
			case execRequest:
				exec = &v
			case processExited:
				p.mu.Lock()
				code = p.exitRequested
				p.mu.Unlock()
			default:
				panic(r)
			}
		}
	}()
	return prog(p.kernel.wrapped(p), argv), nil
}

// loadImage replaces the address space with a fresh program image: the
// program + libc text (~352 KB resident, §6.2's native "hello world"
// floor), mapped by reference from the host kernel's one copy as
// libLinux's image is, and an empty heap.
func (p *Process) loadImage() {
	as := p.pp.AS
	as.Release()
	if addr, err := as.Alloc(imageBase, imageBytes, api.ProtRead|api.ProtWrite|api.ProtExec); err == nil {
		_ = p.kernel.host.MapImage(as, addr, imageBytes)
	}
	p.mu.Lock()
	p.brk, p.brkEnd = brkBase, brkBase
	p.mu.Unlock()
}

// --- identity & misc ---

// Getpid returns the PID after a kernel crossing (getpid is a real syscall
// on Linux; Graphene services it from library state, hence Table 6's
// negative overhead).
func (p *Process) Getpid() int {
	_ = p.enter(host.SysGetpid)
	return p.pp.ID
}

// Getppid returns the parent PID.
func (p *Process) Getppid() int {
	_ = p.enter(host.SysGetppid)
	return p.pp.ParentID
}

// Getenv reads the process environment (no kernel crossing; libc state).
func (p *Process) Getenv(key string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.env[key]
}

// Setenv writes the process environment.
func (p *Process) Setenv(key, value string) {
	p.mu.Lock()
	p.env[key] = value
	p.mu.Unlock()
}

// Gettimeofday returns wall-clock microseconds.
func (p *Process) Gettimeofday() (int64, error) {
	if err := p.enter(host.SysGettimeofday); err != nil {
		return 0, err
	}
	return p.kernel.host.Now(), nil
}

// GetRandom fills buf from the kernel RNG.
func (p *Process) GetRandom(buf []byte) (int, error) {
	if err := p.enter(host.SysGetrandom); err != nil {
		return 0, err
	}
	return p.kernel.host.Random(buf)
}

// ProcSelfRoot identifies this personality's /proc prefix.
func (p *Process) ProcSelfRoot() string { return "/proc" }

// --- process management ---

// Fork clones the process in-kernel: copy-on-write address space, shared
// file descriptions — no serialization, which is why it is several times
// faster than Graphene's checkpoint-based fork (Table 6).
func (p *Process) Fork(childFn func(api.OS)) (int, error) {
	return p.fork("", func(c api.OS, _ []string) int { childFn(c); return 0 }, nil)
}

// Spawn is fork+exec.
func (p *Process) Spawn(path string, argv []string) (int, error) {
	prog, ok := p.kernel.lookupProgram(path)
	if !ok {
		return 0, api.ENOENT
	}
	return p.fork(path, prog, argv)
}

// fork clones p, registers the child for wait(), execs path in the child
// when one is given, and runs prog on the child's first thread.
func (p *Process) fork(path string, prog api.Program, argv []string) (int, error) {
	if err := p.enter(host.SysFork); err != nil {
		return 0, err
	}
	child, err := p.kernel.newProcess(p)
	if err != nil {
		return 0, err
	}
	p.children.Add(child.pp.ID)
	if path != "" {
		_ = p.kernel.host.Gate(child.pp, host.SysExecve, false)
		child.exec(path, argv)
	}
	child.pp.NewThread(func(int) { child.doExit(child.run(prog, argv), 0) })
	return child.pp.ID, nil
}

// Exec replaces the program image: the address space is reloaded and
// signal handlers reset; descriptors stay open. Only returns on failure.
func (p *Process) Exec(path string, argv []string) error {
	if err := p.enter(host.SysExecve); err != nil {
		return err
	}
	prog, ok := p.kernel.lookupProgram(path)
	if !ok {
		return api.ENOENT
	}
	p.exec(path, argv)
	panic(execRequest{prog: prog, argv: argv})
}

// exec is execve's kernel side: a fresh image and default signal handling.
func (p *Process) exec(path string, argv []string) {
	p.mu.Lock()
	p.programPath, p.argv = path, argv
	p.mu.Unlock()
	p.sig.ResetForExec()
	p.loadImage()
}

// Wait reaps a child.
func (p *Process) Wait(pid int) (api.WaitResult, error) {
	if err := p.enter(host.SysWait4); err != nil {
		return api.WaitResult{}, err
	}
	res, err := p.children.Wait(pid)
	return res, p.crossed(err)
}

// Exit terminates the process.
func (p *Process) Exit(code int) {
	p.mu.Lock()
	p.exitRequested = code
	p.mu.Unlock()
	panic(processExited{})
}

// doExit is exit_group's kernel side. The picoprocess's exit releases the
// address space and every stream and listener hold, as it does for
// Graphene's picoprocesses; then the parent is notified.
func (p *Process) doExit(code int, killedBy api.Signal) {
	p.exitOnce.Do(func() {
		// Gate directly: a killer's thread runs this for its victim.
		_ = p.kernel.host.Gate(p.pp, host.SysExitGroup, false)
		p.mu.Lock()
		p.exitCode = code
		p.mu.Unlock()
		p.fds.CloseAll()
		p.sig.Exited()
		p.children.Close()
		p.pp.Exit(code)
		k := p.kernel
		k.removeProcess(p.pp.ID)
		if parent := k.process(p.pp.ParentID); parent != nil && parent.children.Exit(p.pp.ID, code, killedBy) {
			parent.deliverSignal(api.SIGCHLD)
		}
	})
}

// --- signals ---

// Kill delivers sig to pid through the kernel's process table, or to
// every member of process group -pid when pid is negative.
func (p *Process) Kill(pid int, sig api.Signal) error {
	if err := p.enter(host.SysKill); err != nil {
		return err
	}
	if !posix.Valid(sig) {
		return api.EINVAL
	}
	if pid < 0 {
		members := p.kernel.groupMembers(-pid)
		if len(members) == 0 {
			return api.ESRCH
		}
		for _, t := range members {
			t.deliverSignal(sig)
		}
		return nil
	}
	target := p.kernel.process(pid)
	if target == nil {
		return api.ESRCH
	}
	target.deliverSignal(sig)
	return nil
}

// Setpgid moves the caller into process group pgid (0 = own PID).
func (p *Process) Setpgid(pid, pgid int) error {
	if err := p.enter(host.SysSetpgid); err != nil {
		return err
	}
	if pid != 0 && pid != p.pp.ID {
		return api.ESRCH
	}
	if pgid == 0 {
		pgid = p.pp.ID
	}
	p.mu.Lock()
	p.pgid = pgid
	p.mu.Unlock()
	return nil
}

// Getpgid returns the caller's process group ID.
func (p *Process) Getpgid() int {
	_ = p.enter(host.SysGetpgid)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pgid
}

// deliverSignal delivers sig. A caught or fatal signal wakes the kernel's
// System V sleepers, so the interrupted one returns EINTR; a fatal one
// terminates the process before returning.
func (p *Process) deliverSignal(sig api.Signal) {
	switch p.sig.Deliver(sig) {
	case posix.Pend:
		p.kernel.sysv.wakeAll()
	case posix.Fatal:
		p.kernel.sysv.wakeAll()
		p.doExit(128+int(sig), sig)
	}
}

// Sigaction installs a handler or disposition.
func (p *Process) Sigaction(sig api.Signal, handler api.SigHandler, disposition string) error {
	if err := p.enter(host.SysRtSigaction); err != nil {
		return err
	}
	return p.sig.Sigaction(sig, handler, disposition)
}

// SignalsDrain runs pending handlers. A killed process's thread unwinds
// here instead, as Exit unwinds the calling thread.
func (p *Process) SignalsDrain() {
	if p.sig.Drain() {
		panic(processExited{})
	}
}

// --- files ---

func (p *Process) resolve(path string) string {
	p.mu.Lock()
	cwd := p.cwd
	p.mu.Unlock()
	return posix.Resolve(cwd, path)
}

// release gives back p's hold on the host object behind d. A listener
// unbinds when its last holder lets go.
func (p *Process) release(d *posix.Desc) {
	if h := d.Handle; h != nil && h.Kind == host.HandleStream {
		p.kernel.host.StreamClose(p.pp, h.Stream)
	} else if h != nil && h.Kind == host.HandleListener {
		p.kernel.host.ReleaseListener(p.pp, h.Listener)
	}
}

// Open opens path (including the host-kernel-backed /proc).
func (p *Process) Open(path string, flags int, mode api.FileMode) (int, error) {
	if err := p.enter(host.SysOpen); err != nil {
		return 0, err
	}
	gp := p.resolve(path)
	if posix.IsProc(gp) {
		data, err := p.procRead(gp)
		if err != nil {
			return 0, err
		}
		return p.fds.Alloc(&posix.Desc{Kind: posix.Proc, Path: gp, Data: data}), nil
	}
	f, err := p.kernel.FS.OpenFileHandle(gp, flags, mode)
	if err != nil {
		return 0, err
	}
	return p.fds.Alloc(posix.NewFile(&host.Handle{Kind: host.HandleFile, File: f}, gp, flags, p.kernel.FS.Stat)), nil
}

// Close releases a descriptor; the process's hold on the object behind it
// goes with its last descriptor for that description.
func (p *Process) Close(fd int) error {
	if err := p.enter(host.SysClose); err != nil {
		return err
	}
	d, ok := p.fds.Remove(fd)
	if !ok {
		return api.EBADF
	}
	if d != nil {
		p.release(d)
	}
	return nil
}

// Read reads from a descriptor.
func (p *Process) Read(fd int, buf []byte) (int, error) {
	if err := p.enter(host.SysRead); err != nil {
		return 0, err
	}
	d, ok := p.fds.Get(fd)
	if !ok {
		return 0, api.EBADF
	}
	defer p.SignalsDrain()
	switch d.Kind {
	case posix.File:
		return d.Transfer(buf, d.Handle.File.ReadAt)
	case posix.Proc:
		return d.ReadData(buf), nil
	case posix.Pipe, posix.Socket:
		return d.Handle.Stream.Read(buf)
	default:
		return 0, nil
	}
}

// Write writes to a descriptor.
func (p *Process) Write(fd int, buf []byte) (int, error) {
	if err := p.enter(host.SysWrite); err != nil {
		return 0, err
	}
	d, ok := p.fds.Get(fd)
	if !ok {
		return 0, api.EBADF
	}
	defer p.SignalsDrain()
	switch d.Kind {
	case posix.File:
		return d.Transfer(buf, d.Handle.File.WriteAt)
	case posix.Pipe, posix.Socket:
		n, err := d.Handle.Stream.Write(buf)
		if err == api.EPIPE {
			p.deliverSignal(api.SIGPIPE)
		}
		return n, err
	case posix.TTY:
		return len(buf), nil
	default:
		return 0, api.EACCES
	}
}

// Lseek moves a descriptor's cursor.
func (p *Process) Lseek(fd int, offset int64, whence int) (int64, error) {
	if err := p.enter(host.SysLseek); err != nil {
		return 0, err
	}
	d, ok := p.fds.Get(fd)
	if !ok {
		return 0, api.EBADF
	}
	return d.Lseek(offset, whence, p.kernel.FS.Stat)
}

// Stat stats a path.
func (p *Process) Stat(path string) (api.Stat, error) {
	if err := p.enter(host.SysStat); err != nil {
		return api.Stat{}, err
	}
	gp := p.resolve(path)
	if posix.IsProc(gp) {
		data, err := p.procRead(gp)
		if err != nil {
			return api.Stat{}, err
		}
		return posix.ProcStat(gp, data), nil
	}
	return p.kernel.FS.Stat(gp)
}

// Fstat stats a descriptor.
func (p *Process) Fstat(fd int) (api.Stat, error) {
	if err := p.enter(host.SysFstat); err != nil {
		return api.Stat{}, err
	}
	d, ok := p.fds.Get(fd)
	if !ok {
		return api.Stat{}, api.EBADF
	}
	return d.Stat(p.kernel.FS.Stat)
}

// Unlink removes a file.
func (p *Process) Unlink(path string) error {
	if err := p.enter(host.SysUnlink); err != nil {
		return err
	}
	return p.kernel.FS.Unlink(p.resolve(path))
}

// Mkdir creates a directory.
func (p *Process) Mkdir(path string, mode api.FileMode) error {
	if err := p.enter(host.SysMkdir); err != nil {
		return err
	}
	return p.kernel.FS.Mkdir(p.resolve(path), mode)
}

// ReadDir lists a directory.
func (p *Process) ReadDir(path string) ([]api.DirEnt, error) {
	if err := p.enter(host.SysGetdents); err != nil {
		return nil, err
	}
	ents, err := p.kernel.FS.ReadDir(p.resolve(path))
	if err != nil {
		return nil, err
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
	return ents, nil
}

// Rename moves a file.
func (p *Process) Rename(oldPath, newPath string) error {
	if err := p.enter(host.SysRename); err != nil {
		return err
	}
	return p.kernel.FS.Rename(p.resolve(oldPath), p.resolve(newPath))
}

// Chdir changes directory.
func (p *Process) Chdir(path string) error {
	if err := p.enter(host.SysChdir); err != nil {
		return err
	}
	gp := p.resolve(path)
	st, err := p.kernel.FS.Stat(gp)
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
	if err := p.enter(host.SysGetcwd); err != nil {
		return "", err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cwd, nil
}

// Dup2 duplicates a descriptor.
func (p *Process) Dup2(oldFD, newFD int) (int, error) {
	if err := p.enter(host.SysDup2); err != nil {
		return 0, err
	}
	released, err := p.fds.Dup2(oldFD, newFD)
	if err != nil {
		return 0, err
	}
	if released != nil {
		p.release(released)
	}
	return newFD, nil
}

// Pipe creates a kernel pipe: a host stream pair held by this process.
func (p *Process) Pipe() (int, int, error) {
	if err := p.enter(host.SysPipe2); err != nil {
		return 0, 0, err
	}
	r, w := p.kernel.host.StreamPair(p.pp, p.pp)
	rfd := p.fds.Alloc(&posix.Desc{Kind: posix.Pipe, Handle: &host.Handle{Kind: host.HandleStream, Stream: r}, Path: "pipe"})
	wfd := p.fds.Alloc(&posix.Desc{Kind: posix.Pipe, Handle: &host.Handle{Kind: host.HandleStream, Stream: w}, Path: "pipe"})
	return rfd, wfd, nil
}

// --- memory ---

// Brk adjusts the data segment.
func (p *Process) Brk(addr uint64) (uint64, error) {
	if err := p.enter(host.SysBrk); err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if addr == 0 {
		return p.brk, nil
	}
	if addr < brkBase {
		return p.brk, api.ENOMEM
	}
	newEnd := (addr + host.PageSize - 1) &^ (host.PageSize - 1)
	switch {
	case newEnd > p.brkEnd:
		if _, err := p.pp.AS.Alloc(p.brkEnd, newEnd-p.brkEnd, api.ProtRead|api.ProtWrite); err != nil {
			return p.brk, err
		}
		p.brkEnd = newEnd
	case newEnd < p.brkEnd:
		if err := p.pp.AS.Free(newEnd, p.brkEnd-newEnd); err != nil {
			return p.brk, err
		}
		p.brkEnd = newEnd
	}
	p.brk = addr
	return p.brk, nil
}

// Mmap maps anonymous memory.
func (p *Process) Mmap(addr uint64, length uint64, prot int) (uint64, error) {
	if err := p.enter(host.SysMmap); err != nil {
		return 0, err
	}
	return p.pp.AS.Alloc(addr, length, prot)
}

// Munmap unmaps memory.
func (p *Process) Munmap(addr uint64, length uint64) error {
	if err := p.enter(host.SysMunmap); err != nil {
		return err
	}
	return p.pp.AS.Free(addr, length)
}

// MemWrite stores to process memory (no kernel crossing: a plain store).
func (p *Process) MemWrite(addr uint64, data []byte) error {
	return p.pp.AS.Write(addr, data)
}

// MemRead loads from process memory.
func (p *Process) MemRead(addr uint64, buf []byte) error {
	return p.pp.AS.Read(addr, buf)
}

// --- sockets ---

// Listen binds a TCP listener in the host's stream registry, under the
// same tcp: name the PAL uses.
func (p *Process) Listen(addr api.SockAddr) (int, error) {
	l, err := p.kernel.host.StreamListen(p.pp, "tcp:"+string(addr))
	if err != nil {
		return 0, p.crossed(err)
	}
	return p.fds.Alloc(&posix.Desc{Kind: posix.Listener, Handle: &host.Handle{Kind: host.HandleListener, Listener: l}, Path: string(addr)}), nil
}

// Accept takes a connection from the backlog.
func (p *Process) Accept(fd int) (int, error) {
	d, err := p.fds.GetSock(fd, posix.Listener)
	if err != nil {
		return 0, err
	}
	s, err := p.kernel.host.StreamAccept(p.pp, d.Handle.Listener)
	if err != nil {
		return 0, p.crossed(err)
	}
	return p.fds.Alloc(&posix.Desc{Kind: posix.Socket, Handle: &host.Handle{Kind: host.HandleStream, Stream: s}, Path: d.Path}), nil
}

// Connect dials a TCP listener.
func (p *Process) Connect(addr api.SockAddr) (int, error) {
	s, err := p.kernel.host.StreamConnectNet(p.pp, "tcp:"+string(addr))
	if err != nil {
		return 0, p.crossed(err)
	}
	return p.fds.Alloc(&posix.Desc{Kind: posix.Socket, Handle: &host.Handle{Kind: host.HandleStream, Stream: s}, Path: string(addr)}), nil
}

// Poll waits for readability on one of the descriptors.
func (p *Process) Poll(fds []int, timeoutMicros int64) (int, error) {
	if err := p.enter(host.SysPoll); err != nil {
		return -1, err
	}
	objs := make([]host.Waitable, 0, len(fds))
	for _, fd := range fds {
		d, ok := p.fds.Get(fd)
		if !ok || !d.IsStream() {
			return -1, api.EBADF
		}
		objs = append(objs, d.Handle.Stream)
	}
	return host.WaitAny(objs, time.Duration(timeoutMicros)*time.Microsecond)
}

// SpawnThread runs fn as another thread of this process.
func (p *Process) SpawnThread(fn func()) error {
	if err := p.enter(host.SysClone); err != nil {
		return err
	}
	p.pp.NewThread(func(int) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(processExited); !ok {
					panic(r)
				}
				p.mu.Lock()
				code := p.exitRequested
				p.mu.Unlock()
				p.doExit(code, 0)
			}
		}()
		fn()
	})
	return nil
}

// PassConnection and ReceiveConnection mirror liblinux's handle-passing
// extension so preforked servers run unmodified on both personalities.
// A passed listening socket is co-held by the receiver (SCM_RIGHTS,
// unix(7)): the standby-master handover.
func (p *Process) PassConnection(overFD, connFD int) error {
	if err := p.enter(host.SysSendto); err != nil {
		return err
	}
	over, conn, err := p.fds.Passable(overFD, connFD)
	if err != nil {
		return err
	}
	return over.Handle.Stream.SendHandle(conn.Handle)
}

// ReceiveConnection receives a passed connection or listening socket and
// adopts it into this process.
func (p *Process) ReceiveConnection(overFD int) (int, error) {
	if err := p.enter(host.SysRecvfrom); err != nil {
		return 0, err
	}
	over, err := p.fds.GetSock(overFD, posix.Pipe, posix.Socket)
	if err != nil {
		return 0, err
	}
	h, err := over.Handle.Stream.ReceiveHandle()
	if err != nil {
		return 0, err
	}
	switch h.Kind {
	case host.HandleStream:
		// The sender transferred a reference with the handle.
		p.kernel.host.AdoptStream(p.pp, h.Stream)
		return p.fds.Alloc(&posix.Desc{Kind: posix.Socket, Handle: h, Path: h.Stream.Name}), nil
	case host.HandleListener:
		p.kernel.host.ReceiveListener(p.pp, h.Listener)
		return p.fds.Alloc(&posix.Desc{Kind: posix.Listener, Handle: h, Path: h.Listener.Name}), nil
	}
	return 0, api.EINVAL
}

// --- /proc (host kernel implementation: globally visible!) ---

// procRead serves /proc from the shared kernel. Unlike Graphene, a native
// process can read any other process's metadata — the side channel §6.6
// measures Graphene against.
func (p *Process) procRead(path string) ([]byte, error) {
	who, field := posix.ProcPath(path)
	if who == "" {
		// Native /proc lists every process on the host.
		p.kernel.mu.Lock()
		pids := make([]int, 0, len(p.kernel.procs))
		for pid := range p.kernel.procs {
			pids = append(pids, pid)
		}
		p.kernel.mu.Unlock()
		sort.Ints(pids)
		var sb strings.Builder
		for _, pid := range pids {
			sb.WriteString(strconv.Itoa(pid) + "\n")
		}
		return []byte(sb.String()), nil
	}
	target := p
	if who != "self" {
		pid, _ := strconv.Atoi(who)
		target = p.kernel.process(pid)
	}
	if target == nil {
		return nil, api.ENOENT
	}
	target.mu.Lock()
	info := posix.ProcInfo{Program: target.programPath, Argv: target.argv, Cwd: target.cwd, PID: target.pp.ID, PPID: target.pp.ParentID}
	target.mu.Unlock()
	v, errno := info.Render(field)
	if errno != 0 {
		return nil, errno
	}
	return []byte(v), nil
}
