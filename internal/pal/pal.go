// Package pal implements the Platform Adaptation Layer: the 43-function
// host ABI of Table 1 in the paper — the Drawbridge ABI (memory,
// scheduling, files & streams, process, misc) plus Graphene's additions
// (segment registers, exception upcalls, stream handle passing and rename,
// bulk IPC, and sandboxing).
//
// Every PAL call translates into simulated host system calls that pass the
// picoprocess's seccomp gate (with fromPAL=true, modeling the return-PC
// check of §3.1); calls with external effects are additionally checked by
// the reference monitor via the kernel's policy hooks.
package pal

import (
	"runtime"
	"strings"
	"sync"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
)

// yield cedes the processor, the host analogue of sched_yield.
func yield() { runtime.Gosched() }

// ExceptionKind classifies hardware exception upcalls (§2, Table 1).
type ExceptionKind int

// Exception kinds delivered to the libOS.
const (
	// ExceptionMemFault is a page fault (SIGSEGV material).
	ExceptionMemFault ExceptionKind = iota
	// ExceptionSyscall is a SIGSYS redirect: an application-issued host
	// syscall trapped by the seccomp filter (§3.1 "Static Binaries").
	ExceptionSyscall
	// ExceptionDivZero is an arithmetic fault.
	ExceptionDivZero
	// ExceptionInterrupt is a cross-thread interrupt used by libLinux to
	// deliver signals to CPU-bound threads (§4.2).
	ExceptionInterrupt
)

// ExceptionInfo carries the details of an exception upcall.
type ExceptionInfo struct {
	Kind      ExceptionKind
	Addr      uint64 // faulting address for memory faults
	SyscallNr int    // trapped syscall number for ExceptionSyscall
	TID       int    // target thread for interrupts
}

// ExceptionHandler is the libOS's upcall entry point. Its return value is
// the emulated syscall result for ExceptionSyscall redirects.
type ExceptionHandler func(info ExceptionInfo) int64

// Sandboxer is the subset of the reference monitor the DkSandboxCreate
// ABI needs. It is nil for unmonitored (test) PALs.
type Sandboxer interface {
	DetachSandbox(proc *host.Picoprocess, fsView []string) error
}

// ProcessEntry is the entry point of a freshly created picoprocess: a
// clean PAL instance plus the initial stream to the parent, over which the
// parent sends the libOS checkpoint (§5).
type ProcessEntry func(child *PAL, initial *host.Stream)

// PAL is one picoprocess's platform adaptation layer instance.
type PAL struct {
	kernel  *host.Kernel
	proc    *host.Picoprocess
	sandbox Sandboxer

	mu       sync.Mutex
	handlers map[ExceptionKind]ExceptionHandler
	segments map[int]uint64 // TLS base per thread (DkSegmentRegister)
	brkBase  uint64
}

// New binds a PAL instance to proc. sandbox may be nil.
func New(k *host.Kernel, proc *host.Picoprocess, sandbox Sandboxer) *PAL {
	return &PAL{
		kernel:   k,
		proc:     proc,
		sandbox:  sandbox,
		handlers: make(map[ExceptionKind]ExceptionHandler),
		segments: make(map[int]uint64),
	}
}

// Proc returns the underlying picoprocess.
func (p *PAL) Proc() *host.Picoprocess { return p.proc }

// Kernel returns the host kernel.
func (p *PAL) Kernel() *host.Kernel { return p.kernel }

// gate funnels a host syscall through the seccomp filter as a PAL-issued
// call, raising the SIGSYS upcall if trapped (should not happen for PAL
// syscalls under the standard filter).
func (p *PAL) gate(nr int) error {
	err := p.kernel.Gate(p.proc, nr, true)
	if err == host.ErrSigsys {
		p.RaiseException(ExceptionInfo{Kind: ExceptionSyscall, SyscallNr: nr})
		return api.ENOSYS
	}
	return err
}

// ============================================================
// Memory (3 ABIs, adopted from Drawbridge)
// ============================================================

// DkVirtualMemoryAlloc allocates and maps virtual memory.
func (p *PAL) DkVirtualMemoryAlloc(addr uint64, size uint64, prot int) (uint64, error) {
	if err := p.gate(host.SysMmap); err != nil {
		return 0, err
	}
	return p.proc.AS.Alloc(addr, size, prot)
}

// DkVirtualMemoryFree unmaps a region.
func (p *PAL) DkVirtualMemoryFree(addr uint64, size uint64) error {
	if err := p.gate(host.SysMunmap); err != nil {
		return err
	}
	return p.proc.AS.Free(addr, size)
}

// DkVirtualMemoryProtect changes page protections.
func (p *PAL) DkVirtualMemoryProtect(addr uint64, size uint64, prot int) error {
	if err := p.gate(host.SysMprotect); err != nil {
		return err
	}
	return p.proc.AS.Protect(addr, size, prot)
}

// MemWrite / MemRead stand in for direct loads and stores by guest code;
// faults raise the memory-fault exception upcall, as the MMU would.
func (p *PAL) MemWrite(addr uint64, data []byte) error {
	err := p.proc.AS.Write(addr, data)
	if err == api.EFAULT || err == api.EACCES {
		p.RaiseException(ExceptionInfo{Kind: ExceptionMemFault, Addr: addr})
	}
	return err
}

// MemRead loads guest memory; see MemWrite.
func (p *PAL) MemRead(addr uint64, buf []byte) error {
	err := p.proc.AS.Read(addr, buf)
	if err == api.EFAULT || err == api.EACCES {
		p.RaiseException(ExceptionInfo{Kind: ExceptionMemFault, Addr: addr})
	}
	return err
}

// ============================================================
// Scheduling (12 ABIs, adopted)
// ============================================================

// DkThreadCreate starts a guest thread in this picoprocess.
func (p *PAL) DkThreadCreate(fn func(tid int)) (int, error) {
	if err := p.gate(host.SysClone); err != nil {
		return 0, err
	}
	return p.proc.NewThread(fn), nil
}

// DkThreadExit terminates the calling guest thread (the goroutine simply
// returns after this bookkeeping call).
func (p *PAL) DkThreadExit() error {
	return p.gate(host.SysExit)
}

// DkThreadYieldExecution yields the CPU.
func (p *PAL) DkThreadYieldExecution() error {
	if err := p.gate(host.SysSchedYield); err != nil {
		return err
	}
	// Gosched is the closest host analogue for a goroutine.
	yield()
	return nil
}

// DkThreadDelayExecution sleeps the calling thread.
func (p *PAL) DkThreadDelayExecution(d time.Duration) error {
	if err := p.gate(host.SysNanosleep); err != nil {
		return err
	}
	time.Sleep(d)
	return nil
}

// DkMutexCreate creates a host mutex handle.
func (p *PAL) DkMutexCreate() (*host.Handle, error) {
	if err := p.gate(host.SysFutex); err != nil {
		return nil, err
	}
	return &host.Handle{Kind: host.HandleMutex, Mutex: host.NewMutex()}, nil
}

// DkMutexRelease unlocks a mutex handle (locking goes via WaitAny).
func (p *PAL) DkMutexRelease(h *host.Handle) error {
	if h == nil || h.Kind != host.HandleMutex {
		return api.EINVAL
	}
	if err := p.gate(host.SysFutex); err != nil {
		return err
	}
	h.Mutex.Unlock()
	return nil
}

// DkEventCreate creates a notification (manual-reset) or synchronization
// (auto-reset) event handle.
func (p *PAL) DkEventCreate(manualReset bool) (*host.Handle, error) {
	if err := p.gate(host.SysFutex); err != nil {
		return nil, err
	}
	return &host.Handle{Kind: host.HandleEvent, Event: host.NewEvent(manualReset)}, nil
}

// DkEventSet signals an event handle.
func (p *PAL) DkEventSet(h *host.Handle) error {
	if h == nil || h.Kind != host.HandleEvent {
		return api.EINVAL
	}
	if err := p.gate(host.SysFutex); err != nil {
		return err
	}
	h.Event.Set()
	return nil
}

// DkEventClear resets a manual-reset event handle.
func (p *PAL) DkEventClear(h *host.Handle) error {
	if h == nil || h.Kind != host.HandleEvent {
		return api.EINVAL
	}
	if err := p.gate(host.SysFutex); err != nil {
		return err
	}
	h.Event.Reset()
	return nil
}

// DkSemaphoreCreate creates a counting semaphore handle.
func (p *PAL) DkSemaphoreCreate(initial int) (*host.Handle, error) {
	if err := p.gate(host.SysFutex); err != nil {
		return nil, err
	}
	return &host.Handle{Kind: host.HandleSemaphore, Semaphore: host.NewSemaphore(initial)}, nil
}

// DkSemaphoreRelease adds n permits to a semaphore handle.
func (p *PAL) DkSemaphoreRelease(h *host.Handle, n int) error {
	if h == nil || h.Kind != host.HandleSemaphore {
		return api.EINVAL
	}
	if err := p.gate(host.SysFutex); err != nil {
		return err
	}
	h.Semaphore.Release(n)
	return nil
}

// DkObjectsWaitAny blocks until one of the handles is signaled, returning
// its index. Waitable handles: events, mutexes, semaphores, streams
// (readable), and process-exit handles are modeled as events.
func (p *PAL) DkObjectsWaitAny(handles []*host.Handle, timeout time.Duration) (int, error) {
	if err := p.gate(host.SysPoll); err != nil {
		return -1, err
	}
	objs := make([]host.Waitable, len(handles))
	for i, h := range handles {
		w := waitableOf(h)
		if w == nil {
			return -1, api.EINVAL
		}
		objs[i] = w
	}
	return host.WaitAny(objs, timeout)
}

func waitableOf(h *host.Handle) host.Waitable {
	if h == nil {
		return nil
	}
	switch h.Kind {
	case host.HandleEvent:
		return h.Event
	case host.HandleMutex:
		return h.Mutex
	case host.HandleSemaphore:
		return h.Semaphore
	case host.HandleStream:
		return h.Stream
	default:
		return nil
	}
}

// ============================================================
// Files & streams (12 ABIs, adopted)
// ============================================================

// DkStreamOpen opens a stream by URI:
//
//	file:<path>        host file via the manifest's union view
//	pipe.srv:<name>    named stream server (sandbox-scoped)
//	pipe:<name>        connect to a named stream server
//	tcp.srv:<addr>     TCP-style listener (manifest net_listen checked)
//	tcp:<addr>         TCP-style connect (manifest net_connect checked)
//	dev:tty            host console
func (p *PAL) DkStreamOpen(uri string, flags int, mode api.FileMode) (*host.Handle, error) {
	scheme, rest, ok := splitURI(uri)
	if !ok {
		return nil, api.EINVAL
	}
	switch scheme {
	case "file":
		if err := p.gate(host.SysOpen); err != nil {
			return nil, err
		}
		pol := p.kernel.Policy()
		write := flags&(api.OWrOnly|api.ORdWr|api.OCreate|api.OTrunc|api.OAppend) != 0
		if err := pol.CheckOpen(p.proc, rest, write); err != nil {
			return nil, err
		}
		hostPath, err := pol.TranslatePath(p.proc, rest)
		if err != nil {
			return nil, err
		}
		f, err := p.kernel.FS.OpenFileHandle(hostPath, flags, mode)
		if err != nil {
			return nil, err
		}
		return &host.Handle{Kind: host.HandleFile, File: f}, nil
	case "pipe.srv":
		l, err := p.kernel.StreamListen(p.proc, p.scopedPipeName(rest))
		if err != nil {
			return nil, err
		}
		return &host.Handle{Kind: host.HandleListener, Listener: l}, nil
	case "pipe":
		s, err := p.kernel.StreamConnect(p.proc, p.scopedPipeName(rest))
		if err != nil {
			return nil, err
		}
		return &host.Handle{Kind: host.HandleStream, Stream: s}, nil
	case "tcp.srv":
		if err := p.gate(host.SysBind); err != nil {
			return nil, err
		}
		if err := p.kernel.Policy().CheckNetBind(p.proc, api.SockAddr(rest)); err != nil {
			return nil, err
		}
		l, err := p.kernel.StreamListen(p.proc, "tcp:"+rest)
		if err != nil {
			return nil, err
		}
		return &host.Handle{Kind: host.HandleListener, Listener: l}, nil
	case "tcp":
		if err := p.gate(host.SysConnect); err != nil {
			return nil, err
		}
		if err := p.kernel.Policy().CheckNetConnect(p.proc, api.SockAddr(rest)); err != nil {
			return nil, err
		}
		s, err := p.kernel.StreamConnectNet(p.proc, "tcp:"+rest)
		if err != nil {
			return nil, err
		}
		return &host.Handle{Kind: host.HandleStream, Stream: s}, nil
	case "dev":
		if rest != "tty" && rest != "null" {
			return nil, api.ENODEV
		}
		return &host.Handle{Kind: host.HandleFile, File: nil}, nil
	default:
		return nil, api.EINVAL
	}
}

// scopedPipeName namespaces pipe URIs by sandbox so identically named
// servers in different sandboxes cannot collide (the monitor additionally
// blocks cross-sandbox connects).
func (p *PAL) scopedPipeName(rest string) string {
	return "pipe.srv:" + itoa(p.proc.SandboxID) + ":" + rest
}

// DkStreamRead reads from a stream or file handle.
func (p *PAL) DkStreamRead(h *host.Handle, buf []byte) (int, error) {
	if err := p.gate(host.SysRead); err != nil {
		return 0, err
	}
	switch {
	case h == nil:
		return 0, api.EINVAL
	case h.Kind == host.HandleStream:
		// Inherited descriptors carry stale owner labels; the reader is
		// this picoprocess, whatever the checkpoint restore recorded.
		h.Stream.ClaimOwner(p.proc.ID)
		return h.Stream.Read(buf)
	case h.Kind == host.HandleFile && h.File != nil:
		return h.File.Read(buf)
	case h.Kind == host.HandleFile:
		return 0, nil // dev:tty / dev:null read as EOF
	default:
		return 0, api.EBADF
	}
}

// DkStreamReadAt reads a file handle at an explicit offset (files only;
// the libOS keeps POSIX seek pointers itself, §4.2).
func (p *PAL) DkStreamReadAt(h *host.Handle, buf []byte, off int64) (int, error) {
	if err := p.gate(host.SysRead); err != nil {
		return 0, err
	}
	if h == nil || h.Kind != host.HandleFile || h.File == nil {
		return 0, api.EBADF
	}
	return h.File.ReadAt(buf, off)
}

// DkStreamWrite writes to a stream or file handle.
func (p *PAL) DkStreamWrite(h *host.Handle, data []byte) (int, error) {
	if err := p.gate(host.SysWrite); err != nil {
		return 0, err
	}
	switch {
	case h == nil:
		return 0, api.EINVAL
	case h.Kind == host.HandleStream:
		h.Stream.ClaimOwner(p.proc.ID)
		return h.Stream.Write(data)
	case h.Kind == host.HandleFile && h.File != nil:
		return h.File.Write(data)
	case h.Kind == host.HandleFile:
		return p.kernel.ConsoleOf().Write(data)
	default:
		return 0, api.EBADF
	}
}

// DkStreamWriteAt writes a file handle at an explicit offset.
func (p *PAL) DkStreamWriteAt(h *host.Handle, data []byte, off int64) (int, error) {
	if err := p.gate(host.SysWrite); err != nil {
		return 0, err
	}
	if h == nil || h.Kind != host.HandleFile || h.File == nil {
		return 0, api.EBADF
	}
	return h.File.WriteAt(data, off)
}

// DkStreamWaitForClient accepts a connection on a listener handle.
func (p *PAL) DkStreamWaitForClient(h *host.Handle) (*host.Handle, error) {
	if h == nil || h.Kind != host.HandleListener {
		return nil, api.EINVAL
	}
	s, err := p.kernel.StreamAccept(p.proc, h.Listener)
	if err != nil {
		return nil, err
	}
	return &host.Handle{Kind: host.HandleStream, Stream: s}, nil
}

// DkStreamDelete unlinks the file behind a file: URI.
func (p *PAL) DkStreamDelete(uri string) error {
	scheme, rest, ok := splitURI(uri)
	if !ok || scheme != "file" {
		return api.EINVAL
	}
	if err := p.gate(host.SysUnlink); err != nil {
		return err
	}
	pol := p.kernel.Policy()
	if err := pol.CheckOpen(p.proc, rest, true); err != nil {
		return err
	}
	hostPath, err := pol.TranslatePath(p.proc, rest)
	if err != nil {
		return err
	}
	return p.kernel.FS.Unlink(hostPath)
}

// DkStreamSetLength truncates or extends a file handle.
func (p *PAL) DkStreamSetLength(h *host.Handle, size int64) error {
	if h == nil || h.Kind != host.HandleFile || h.File == nil {
		return api.EINVAL
	}
	if err := p.gate(host.SysTruncate); err != nil {
		return err
	}
	return h.File.SetLength(size)
}

// DkStreamFlush flushes a handle (a no-op for the in-memory host FS, but
// part of the ABI surface).
func (p *PAL) DkStreamFlush(h *host.Handle) error {
	if h == nil {
		return api.EINVAL
	}
	return p.gate(host.SysFsync)
}

// DkStreamGetName returns a handle's URI.
func (p *PAL) DkStreamGetName(h *host.Handle) (string, error) {
	if h == nil {
		return "", api.EINVAL
	}
	switch h.Kind {
	case host.HandleStream:
		return h.Stream.Name, nil
	case host.HandleListener:
		return h.Listener.Name, nil
	case host.HandleFile:
		if h.File == nil {
			return "dev:tty", nil
		}
		return "file:" + h.File.Path, nil
	default:
		return "", api.EBADF
	}
}

// DkStreamAttributesQuery stats a file: URI.
func (p *PAL) DkStreamAttributesQuery(uri string) (api.Stat, error) {
	scheme, rest, ok := splitURI(uri)
	if !ok || scheme != "file" {
		return api.Stat{}, api.EINVAL
	}
	if err := p.gate(host.SysStat); err != nil {
		return api.Stat{}, err
	}
	pol := p.kernel.Policy()
	if err := pol.CheckOpen(p.proc, rest, false); err != nil {
		return api.Stat{}, err
	}
	hostPath, err := pol.TranslatePath(p.proc, rest)
	if err != nil {
		return api.Stat{}, err
	}
	return p.kernel.FS.Stat(hostPath)
}

// DkStreamReadDir lists a directory behind a file: URI.
func (p *PAL) DkStreamReadDir(uri string) ([]api.DirEnt, error) {
	scheme, rest, ok := splitURI(uri)
	if !ok || scheme != "file" {
		return nil, api.EINVAL
	}
	if err := p.gate(host.SysGetdents); err != nil {
		return nil, err
	}
	pol := p.kernel.Policy()
	if err := pol.CheckOpen(p.proc, rest, false); err != nil {
		return nil, err
	}
	hostPath, err := pol.TranslatePath(p.proc, rest)
	if err != nil {
		return nil, err
	}
	return p.kernel.FS.ReadDir(hostPath)
}

// DkStreamMkdir creates a directory behind a file: URI.
func (p *PAL) DkStreamMkdir(uri string, mode api.FileMode) error {
	scheme, rest, ok := splitURI(uri)
	if !ok || scheme != "file" {
		return api.EINVAL
	}
	if err := p.gate(host.SysMkdir); err != nil {
		return err
	}
	pol := p.kernel.Policy()
	if err := pol.CheckOpen(p.proc, rest, true); err != nil {
		return err
	}
	hostPath, err := pol.TranslatePath(p.proc, rest)
	if err != nil {
		return err
	}
	return p.kernel.FS.Mkdir(hostPath, mode)
}

// DkObjectClose releases a handle.
func (p *PAL) DkObjectClose(h *host.Handle) error {
	if h == nil {
		return api.EINVAL
	}
	if err := p.gate(host.SysClose); err != nil {
		return err
	}
	switch h.Kind {
	case host.HandleStream:
		p.kernel.StreamClose(p.proc, h.Stream)
	case host.HandleListener:
		// Release, not remove: a listen socket passed to a standby
		// (DkSendHandle/DkReceiveHandle) is co-held, and closing one
		// descriptor must not unbind the name for the surviving holder —
		// same as close(2) on one of several SCM_RIGHTS-duplicated fds.
		p.kernel.ReleaseListener(p.proc, h.Listener)
	case host.HandleIPCStore:
		h.Store.Close()
	}
	return nil
}

// ============================================================
// Process (2 ABIs, adopted)
// ============================================================

// DkProcessCreate creates a clean child picoprocess running entry, with an
// initial byte stream connecting parent and child. newSandbox starts the
// child in its own sandbox (§3).
func (p *PAL) DkProcessCreate(entry ProcessEntry, newSandbox bool) (*host.Picoprocess, *host.Stream, error) {
	if err := p.gate(host.SysVfork); err != nil {
		return nil, nil, err
	}
	if err := p.gate(host.SysExecve); err != nil {
		return nil, nil, err
	}
	child, err := p.kernel.CreateProcess(p.proc, newSandbox)
	if err != nil {
		return nil, nil, err
	}
	parentEnd, childEnd := p.kernel.StreamPair(p.proc, child)
	childPAL := New(p.kernel, child, p.sandbox)
	child.NewThread(func(tid int) {
		entry(childPAL, childEnd)
	})
	return child, parentEnd, nil
}

// DkProcessExit terminates the calling picoprocess.
func (p *PAL) DkProcessExit(code int) {
	_ = p.gate(host.SysExitGroup)
	p.proc.Exit(code)
}

// ============================================================
// Misc (4 ABIs, adopted)
// ============================================================

// DkSystemTimeQuery returns host time in microseconds.
func (p *PAL) DkSystemTimeQuery() (int64, error) {
	if err := p.gate(host.SysGettimeofday); err != nil {
		return 0, err
	}
	return p.kernel.Now(), nil
}

// DkRandomBitsRead fills buf with host randomness.
func (p *PAL) DkRandomBitsRead(buf []byte) (int, error) {
	if err := p.gate(host.SysGetrandom); err != nil {
		return 0, err
	}
	return p.kernel.Random(buf)
}

// DkTotalMemoryQuery reports the simulated machine memory size.
func (p *PAL) DkTotalMemoryQuery() (uint64, error) {
	return 4 << 30, nil // the paper's testbed has 4 GB RAM
}

// DkInstructionCacheFlush is a no-op on this host, kept for ABI parity.
func (p *PAL) DkInstructionCacheFlush() error { return nil }

// ============================================================
// Segments (1 ABI, added by Graphene)
// ============================================================

// DkSegmentRegister sets the calling thread's TLS base (FS/GS register
// management on real hardware).
func (p *PAL) DkSegmentRegister(tid int, base uint64) error {
	if err := p.gate(host.SysArchPrctl); err != nil {
		return err
	}
	p.mu.Lock()
	p.segments[tid] = base
	p.mu.Unlock()
	return nil
}

// SegmentOf reads back a thread's TLS base.
func (p *PAL) SegmentOf(tid int) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.segments[tid]
}

// ============================================================
// Exceptions (2 ABIs, added by Graphene)
// ============================================================

// DkSetExceptionHandler registers the upcall for an exception kind.
func (p *PAL) DkSetExceptionHandler(kind ExceptionKind, h ExceptionHandler) error {
	if err := p.gate(host.SysRtSigaction); err != nil {
		return err
	}
	p.mu.Lock()
	p.handlers[kind] = h
	p.mu.Unlock()
	return nil
}

// DkExceptionReturn resumes from an exception upcall (bookkeeping only in
// this simulation; the handler's stack unwinds naturally).
func (p *PAL) DkExceptionReturn() error {
	return p.gate(host.SysRtSigreturn)
}

// RaiseException delivers an exception upcall, returning the handler's
// result (0 and false if no handler is registered).
func (p *PAL) RaiseException(info ExceptionInfo) (int64, bool) {
	p.mu.Lock()
	h := p.handlers[info.Kind]
	p.mu.Unlock()
	if h == nil {
		return 0, false
	}
	return h(info), true
}

// RawHostSyscall models application code issuing a host system call with
// inline assembly (Figure 2, third case): the seccomp filter evaluates it
// with fromPAL=false; trapped calls are redirected to the libOS via the
// SIGSYS exception upcall, and the upcall's return value is the syscall
// result.
func (p *PAL) RawHostSyscall(nr int) (int64, error) {
	err := p.kernel.Gate(p.proc, nr, false)
	switch err {
	case nil:
		return 0, nil
	case host.ErrSigsys:
		if ret, ok := p.RaiseException(ExceptionInfo{Kind: ExceptionSyscall, SyscallNr: nr}); ok {
			return ret, nil
		}
		return 0, api.ENOSYS
	default:
		return 0, err
	}
}

// ============================================================
// Streams (3 ABIs, added by Graphene)
// ============================================================

// DkSendHandle passes a handle to the peer of a stream within the sandbox.
func (p *PAL) DkSendHandle(over *host.Handle, h *host.Handle) error {
	if over == nil || over.Kind != host.HandleStream {
		return api.EINVAL
	}
	if err := p.gate(host.SysSendto); err != nil {
		return err
	}
	return over.Stream.SendHandle(h)
}

// DkReceiveHandle receives a handle passed by the stream's peer and adopts
// any stream or listener endpoint into this picoprocess. A received
// listener makes this picoprocess a co-holder of the listening socket
// (unix(7) SCM_RIGHTS semantics: the passed descriptor refers to the same
// open file description), which is the handover primitive a hot-standby
// master uses to adopt the primary's listen socket.
func (p *PAL) DkReceiveHandle(over *host.Handle) (*host.Handle, error) {
	if over == nil || over.Kind != host.HandleStream {
		return nil, api.EINVAL
	}
	if err := p.gate(host.SysRecvfrom); err != nil {
		return nil, err
	}
	h, err := over.Stream.ReceiveHandle()
	if err != nil {
		return nil, err
	}
	switch h.Kind {
	case host.HandleStream:
		p.kernel.AdoptStream(p.proc, h.Stream)
	case host.HandleListener:
		p.kernel.ReceiveListener(p.proc, h.Listener)
	}
	return h, nil
}

// DkStreamChangeName renames the file behind a file handle (the rename
// ABI Bascule and Graphene both added).
func (p *PAL) DkStreamChangeName(h *host.Handle, newURI string) error {
	if h == nil || h.Kind != host.HandleFile || h.File == nil {
		return api.EINVAL
	}
	scheme, rest, ok := splitURI(newURI)
	if !ok || scheme != "file" {
		return api.EINVAL
	}
	if err := p.gate(host.SysRename); err != nil {
		return err
	}
	pol := p.kernel.Policy()
	if err := pol.CheckOpen(p.proc, rest, true); err != nil {
		return err
	}
	hostPath, err := pol.TranslatePath(p.proc, rest)
	if err != nil {
		return err
	}
	if err := p.kernel.FS.Rename(h.File.Path, hostPath); err != nil {
		return err
	}
	h.File.Path = hostPath
	return nil
}

// ============================================================
// Bulk IPC (3 ABIs, added by Graphene)
// ============================================================

// DkCreatePhysicalMemoryChannel creates a bulk-IPC store (gipc, §5).
func (p *PAL) DkCreatePhysicalMemoryChannel() (*host.Handle, error) {
	st, err := p.kernel.CreateIPCStore(p.proc)
	if err != nil {
		return nil, err
	}
	return &host.Handle{Kind: host.HandleIPCStore, Store: st}, nil
}

// DkPhysicalMemoryCommit commits the touched pages of [addr, addr+size) —
// every page the range reaches, the one holding an unaligned addr
// included — into the store, COW-shared; returns the page count.
func (p *PAL) DkPhysicalMemoryCommit(h *host.Handle, addr, size uint64) (int, error) {
	if h == nil || h.Kind != host.HandleIPCStore {
		return 0, api.EINVAL
	}
	if err := p.gate(host.SysWrite); err != nil {
		return 0, err
	}
	return h.Store.Commit(p.proc.AS, addr, addr+size)
}

// DkPhysicalMemoryMap maps the store's oldest batch into this picoprocess
// at addr. The reference monitor only permits mapping within a sandbox.
func (p *PAL) DkPhysicalMemoryMap(h *host.Handle, addr uint64) (int, error) {
	if h == nil || h.Kind != host.HandleIPCStore {
		return 0, api.EINVAL
	}
	if err := p.gate(host.SysRead); err != nil {
		return 0, err
	}
	// The store's creator owns it; only same-sandbox processes may map.
	if err := p.kernel.Policy().CheckBulkIPC(p.proc, h.Store.CreatorPID); err != nil {
		return 0, err
	}
	return h.Store.Map(p.proc.AS, addr)
}

// DkPhysicalMemoryMapWait is the blocking mode of DkPhysicalMemoryMap (the
// same ABI call with a wait flag, not an extra surface entry): it waits up
// to timeout for the sender to commit the next batch. The pipelined fork
// restore uses it to consume batches while the parent is still committing
// later regions.
func (p *PAL) DkPhysicalMemoryMapWait(h *host.Handle, addr uint64, timeout time.Duration) (int, error) {
	if h == nil || h.Kind != host.HandleIPCStore {
		return 0, api.EINVAL
	}
	if err := p.gate(host.SysRead); err != nil {
		return 0, err
	}
	if err := p.kernel.Policy().CheckBulkIPC(p.proc, h.Store.CreatorPID); err != nil {
		return 0, err
	}
	return h.Store.MapNext(p.proc.AS, addr, timeout)
}

// ============================================================
// Kernel-bypass SysV rings (initialization support, not ABI surface)
// ============================================================
//
// Like BroadcastSubscribe below, these are host support functions rather
// than entries in the 43-call ABI: the paper's gipc module exposes its
// grant/map pair through a device node, not the PAL surface, and the
// SysV ring segments follow the same shape (create on the owner, map on
// the client under the reference monitor's bulk-IPC rule).

// RingCreateMsg grants a send ring from this (owner) picoprocess to
// clientPID. The returned segment ID travels to the client over RPC.
func (p *PAL) RingCreateMsg(clientPID int) (*host.RingSegment, error) {
	return p.kernel.CreateRingSegment(p.proc, clientPID)
}

// RingMapMsg maps a granted send ring into this (client) picoprocess;
// the monitor permits it only within the creator's sandbox.
func (p *PAL) RingMapMsg(id int) (*host.RingSegment, error) {
	return p.kernel.MapRingSegment(p.proc, id)
}

// RingRelease drops a fully revoked segment from the kernel registry.
func (p *PAL) RingRelease(id int) { p.kernel.ReleaseRingSegment(id) }

// ============================================================
// Sandboxing (1 ABI, added by Graphene)
// ============================================================

// DkSandboxCreate detaches the calling picoprocess into a fresh sandbox
// whose file system view is restricted to fsView (§3, §6.6).
func (p *PAL) DkSandboxCreate(fsView []string) error {
	if err := p.gate(host.SysPrctl); err != nil {
		return err
	}
	if p.sandbox == nil {
		return api.ENOSYS
	}
	return p.sandbox.DetachSandbox(p.proc, fsView)
}

// BroadcastSubscribe attaches this picoprocess to its sandbox's broadcast
// stream. In the paper the broadcast stream is set up as part of
// picoprocess initialization rather than being a separate ABI; it is
// exposed here as initialization support, not one of the 43 calls.
func (p *PAL) BroadcastSubscribe() (*host.BroadcastSub, error) {
	return p.kernel.BroadcastOf(p.proc.SandboxID).Subscribe(p.proc.ID)
}

// BroadcastSend sends a message on the sandbox's broadcast stream.
func (p *PAL) BroadcastSend(data []byte) error {
	if err := p.gate(host.SysSendto); err != nil {
		return err
	}
	return p.kernel.BroadcastOf(p.proc.SandboxID).Send(p.proc.ID, data)
}

// BroadcastSendAll sends a message on the sandbox's broadcast stream that
// this picoprocess's own subscription receives too, at its place in the
// order every subscriber sees.
func (p *PAL) BroadcastSendAll(data []byte) error {
	if err := p.gate(host.SysSendto); err != nil {
		return err
	}
	return p.kernel.BroadcastOf(p.proc.SandboxID).SendAll(p.proc.ID, data)
}

// BroadcastMembers lists the host PIDs subscribed to the sandbox's
// broadcast stream: every picoprocess that hears it.
func (p *PAL) BroadcastMembers() []int {
	return p.kernel.BroadcastOf(p.proc.SandboxID).Members()
}

// ABISurface returns the names of all PAL ABI functions, grouped per
// Table 1 of the paper. Tests assert the counts match the paper.
func ABISurface() map[string][]string {
	return map[string][]string{
		"memory": {
			"DkVirtualMemoryAlloc", "DkVirtualMemoryFree", "DkVirtualMemoryProtect",
		},
		"scheduling": {
			"DkThreadCreate", "DkThreadExit", "DkThreadYieldExecution",
			"DkThreadDelayExecution", "DkMutexCreate", "DkMutexRelease",
			"DkEventCreate", "DkEventSet", "DkEventClear",
			"DkSemaphoreCreate", "DkSemaphoreRelease", "DkObjectsWaitAny",
		},
		"streams": {
			"DkStreamOpen", "DkStreamRead", "DkStreamWrite",
			"DkStreamWaitForClient", "DkStreamDelete", "DkStreamSetLength",
			"DkStreamFlush", "DkStreamGetName", "DkStreamAttributesQuery",
			"DkStreamReadDir", "DkStreamMkdir", "DkObjectClose",
		},
		"process": {
			"DkProcessCreate", "DkProcessExit",
		},
		"misc": {
			"DkSystemTimeQuery", "DkRandomBitsRead", "DkTotalMemoryQuery",
			"DkInstructionCacheFlush",
		},
		"segments": {
			"DkSegmentRegister",
		},
		"exceptions": {
			"DkSetExceptionHandler", "DkExceptionReturn",
		},
		"streams-added": {
			"DkSendHandle", "DkReceiveHandle", "DkStreamChangeName",
		},
		"bulk-ipc": {
			"DkCreatePhysicalMemoryChannel", "DkPhysicalMemoryCommit", "DkPhysicalMemoryMap",
		},
		"sandbox": {
			"DkSandboxCreate",
		},
	}
}

func splitURI(uri string) (scheme, rest string, ok bool) {
	i := strings.Index(uri, ":")
	if i <= 0 {
		return "", "", false
	}
	return uri[:i], uri[i+1:], true
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
