package liblinux

import (
	"sync"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/ipc"
	"graphene/internal/pal"
)

// childState tracks one forked child for wait().
type childState struct {
	pid      int64
	hostProc *host.Picoprocess
	exited   bool
	status   int64
	signal   api.Signal
	reaped   bool
}

// Process is one libLinux instance: the guest OS state of a single
// picoprocess, servicing Linux system calls from library state and
// coordinating shared abstractions over RPC (§4). It implements api.OS.
type Process struct {
	rt     *Runtime
	pal    *pal.PAL
	helper *ipc.Helper

	pid  int64
	ppid int64
	pgid int64
	// parentAddr is the parent helper's address for exit notification.
	parentAddr string
	leaderAddr string

	programPath string
	argv        []string

	mu       sync.Mutex
	cwd      string
	env      map[string]string
	fds      *fdTable
	mm       *mmState
	sig      *signalState
	children map[int64]*childState
	childCV  *sync.Cond

	exitOnce      sync.Once
	exitCode      int
	exitRequested int
	dead          bool

	// childMain is the restored child's entry function after fork.
	childMain func(*Process) int
}

// libOSImageBase/Bytes place the libOS image (libLinux.so + the four
// modified application libraries) in every picoprocess, outside the mmap
// and brk ranges so it never travels in checkpoints.
const (
	libOSImageBase  = 0x7000_0000_0000
	libOSImageBytes = 1408 * 1024 // ~1.4 MB (§6.2)
)

// newProcess builds a fresh LibOS instance bound to p's picoprocess.
func newProcess(rt *Runtime, p *pal.PAL, pid, ppid int64, parentAddr, leaderAddr string) (*Process, error) {
	proc := &Process{
		rt:         rt,
		pal:        p,
		pid:        pid,
		ppid:       ppid,
		parentAddr: parentAddr,
		leaderAddr: leaderAddr,
		cwd:        "/",
		env:        make(map[string]string),
		children:   make(map[int64]*childState),
	}
	proc.childCV = sync.NewCond(&proc.mu)
	proc.fds = newFDTable()
	proc.sig = newSignalState(proc)
	mm, err := newMMState(p)
	if err != nil {
		return nil, err
	}
	proc.mm = mm
	// Wire the SIGSYS redirect: app-issued host syscalls come back to the
	// libOS (Figure 2), and memory faults become SIGSEGV.
	if err := p.DkSetExceptionHandler(pal.ExceptionSyscall, proc.handleSyscallException); err != nil {
		return nil, err
	}
	if err := p.DkSetExceptionHandler(pal.ExceptionMemFault, func(info pal.ExceptionInfo) int64 {
		proc.sig.deliver(api.SIGSEGV)
		return 0
	}); err != nil {
		return nil, err
	}
	// Load the libOS image: libLinux.so plus the modified glibc stack
	// occupy ~1.4 MB per picoprocess (§6.2's "hello world" floor). The
	// image lives outside the mmap range so it is never checkpointed —
	// each instance carries its own, which is also why the incremental
	// cost of a forked child stays under a couple of MB. TouchRange makes
	// the whole image resident in one pass; the page-at-a-time load was
	// two thirds of fork latency.
	if addr, err := p.DkVirtualMemoryAlloc(libOSImageBase, libOSImageBytes, api.ProtRead|api.ProtExec|api.ProtWrite); err == nil {
		_ = proc.pal.Proc().AS.TouchRange(addr, libOSImageBytes)
	}
	// Standard descriptors on the console.
	tty, err := p.DkStreamOpen("dev:tty", 0, 0)
	if err == nil {
		proc.fds.install(0, &fdesc{kind: fdTTY, handle: tty})
		proc.fds.install(1, &fdesc{kind: fdTTY, handle: tty})
		proc.fds.install(2, &fdesc{kind: fdTTY, handle: tty})
	}
	return proc, nil
}

// PAL exposes the process's PAL (tests and launcher).
func (p *Process) PAL() *pal.PAL { return p.pal }

// Helper exposes the IPC helper (tests and benchmarks).
func (p *Process) Helper() *ipc.Helper { return p.helper }

// FaultPoint evaluates a named application decision point against the
// host fault plan (api.FaultPointer). Applications call it unconditionally
// at points chaos plans may target ("fleet.scale.up", "fleet.master.kill");
// without a plan it is a cheap no-op. A Kill action terminates the host
// picoprocess, after which every subsequent PAL call fails ESRCH — the
// same shape as a host-level kill, so supervision code needs no special
// case for "killed at a fault point". The returned action code lets the
// app apply caller-side actions (Drop) itself.
func (p *Process) FaultPoint(name string) int {
	return int(p.pal.Proc().Fault(name))
}

// ElectEpoch runs one epoch-fenced election round through this process's
// IPC helper (api.Elector): the standby-master takeover path. The round
// reuses the dead-leader recovery machinery, so a standby promoting itself
// is indistinguishable, fencing-wise, from any other leader failover.
func (p *Process) ElectEpoch() (int64, error) {
	if p.helper == nil {
		return 0, api.EAGAIN
	}
	return p.helper.ElectEpoch()
}

// Getpid returns the guest PID.
func (p *Process) Getpid() int { return int(p.pid) }

// Getppid returns the parent's guest PID.
func (p *Process) Getppid() int { return int(p.ppid) }

// Getenv reads the environment.
func (p *Process) Getenv(key string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.env[key]
}

// Setenv writes the environment.
func (p *Process) Setenv(key, value string) {
	p.mu.Lock()
	p.env[key] = value
	p.mu.Unlock()
}

// Gettimeofday returns microseconds since the epoch via the PAL.
func (p *Process) Gettimeofday() (int64, error) {
	return p.pal.DkSystemTimeQuery()
}

// GetRandom fills buf with host randomness via the PAL.
func (p *Process) GetRandom(buf []byte) (int, error) {
	return p.pal.DkRandomBitsRead(buf)
}

// ProcSelfRoot identifies this personality's /proc prefix.
func (p *Process) ProcSelfRoot() string { return "/proc" }

// handleSyscallException emulates an application-issued host syscall that
// seccomp redirected to the libOS (§3.1). Only a representative subset is
// emulated; the point is that the call lands here, not in the host.
func (p *Process) handleSyscallException(info pal.ExceptionInfo) int64 {
	switch info.SyscallNr {
	case host.SysGetpid:
		return p.pid
	case host.SysBrk:
		brk, _ := p.Brk(0)
		return int64(brk)
	case host.SysGettimeofday:
		us, _ := p.Gettimeofday()
		return us
	default:
		return -int64(api.ENOSYS)
	}
}

// Exit terminates the calling process with code. It unwinds the program
// stack via panic; the runProgram wrapper performs the actual teardown.
func (p *Process) Exit(code int) {
	p.mu.Lock()
	p.exitRequested = code
	p.mu.Unlock()
	panic(processExited{})
}

// doExit is the real exit path: notify the parent, persist IPC state,
// close descriptors, and kill the picoprocess (§4.2 exit notification).
func (p *Process) doExit(code int, killedBy api.Signal) {
	p.exitOnce.Do(func() {
		defer p.rt.stage("exit")()
		p.mu.Lock()
		p.dead = true
		p.exitCode = code
		p.mu.Unlock()
		p.mu.Lock()
		pgid := p.pgid
		p.mu.Unlock()
		// Descriptors go before the exit notification, as in Linux's do_exit
		// (exit_files, then exit_notify): once wait() has returned in the
		// parent, a write to a pipe only this process read fails with EPIPE.
		p.fds.closeAll(p.pal)
		if pgid != 0 && p.helper != nil {
			_ = p.helper.LeaveGroup(pgid, p.pid)
		}
		if p.parentAddr != "" && p.helper != nil {
			_ = p.helper.NotifyExitTo(p.parentAddr, p.pid, int64(code), killedBy)
		}
		if p.helper != nil {
			p.helper.Shutdown()
		}
		// The host exit code carries the terminating signal above the status,
		// so a parent whose watchChild sees the picoprocess die before the
		// notification lands reports the same WaitResult either way.
		p.pal.DkProcessExit(code&0xffff | int(killedBy)<<16)
	})
}

// Wait blocks until the child with guest PID pid exits (pid > 0) or any
// child exits (pid == -1), then reaps it.
func (p *Process) Wait(pid int) (api.WaitResult, error) {
	start := p.sysEnter()
	res, err := p.waitInternal(pid)
	p.sysExit(start, host.SysWait4, uint64(uint(pid)), err)
	return res, err
}

func (p *Process) waitInternal(pid int) (api.WaitResult, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		var ready *childState
		any := false
		for _, c := range p.children {
			if c.reaped {
				continue
			}
			if pid > 0 && c.pid != int64(pid) {
				continue
			}
			any = true
			if c.exited {
				ready = c
				break
			}
		}
		if ready != nil {
			ready.reaped = true
			delete(p.children, ready.pid)
			p.helper.ForgetPID(ready.pid)
			return api.WaitResult{
				PID:      int(ready.pid),
				ExitCode: int(ready.status),
				Signaled: ready.signal,
			}, nil
		}
		if !any {
			return api.WaitResult{}, api.ECHILD
		}
		p.childCV.Wait()
	}
}

// Fork creates a child process running childFn with a copy of this
// process's libOS state. The checkpoint machinery serializes the state,
// bulk IPC transfers the memory image copy-on-write, and the child's fresh
// LibOS instance restores it (§5, "Implementing fork by (ab)using
// checkpoints"). Returns the child's guest PID.
func (p *Process) Fork(childFn func(api.OS)) (int, error) {
	start := p.sysEnter()
	pid, err := p.forkInternal(func(child *Process) int {
		childFn(child)
		return 0
	})
	p.sysExit(start, host.SysFork, uint64(pid), err)
	return pid, err
}

// Spawn is fork+exec of path in the child, the common shell pattern. It
// takes the zygote fast path: the child resets its memory image on exec
// anyway, so no memory is serialized or transferred — the parent ships the
// cached per-program template plus the fresh dynamic state (env, cwd,
// descriptors, identity), which the regression tests pin as never-stale.
func (p *Process) Spawn(path string, argv []string) (int, error) {
	prog, ok := p.rt.lookupProgram(path)
	if !ok {
		return 0, api.ENOENT
	}
	// The child must be allowed to read the binary (manifest check).
	if _, err := p.pal.DkStreamAttributesQuery("file:" + path); err != nil {
		return 0, err
	}
	ck, handles, err := p.checkpointMeta()
	if err != nil {
		return 0, err
	}
	// Fork+exec collapsed: the child's identity is the spawned program,
	// which is also what the template is validated against.
	ck.ProgramPath = host.CleanPath(path)
	ck.Argv = append([]string(nil), argv...)
	tmpl, err := p.rt.zygoteFor(path)
	if err != nil {
		return 0, err
	}
	return p.shipCheckpoint(nil, ck, handles, tmpl, func(child *Process) int {
		child.resetForExec(path, argv)
		return child.runProgram(prog, path, argv)
	})
}

func (p *Process) forkInternal(childMain func(*Process) int) (int, error) {
	ckptMeta, handles, err := p.checkpointMeta()
	if err != nil {
		return 0, err
	}

	// Bulk-IPC store for the copy-on-write memory image. The commits run on
	// a producer goroutine, one batch per checkpointed region in order, so
	// page capture overlaps picoprocess creation, PID allocation, and the
	// section stream; the child's mapper consumes batches as they land. On
	// commit failure the store is closed, which fails the child's blocking
	// map and surfaces the error through the child's restore.
	store, err := p.pal.DkCreatePhysicalMemoryChannel()
	if err != nil {
		return 0, err
	}
	regions := ckptMeta.memRegions()
	go func() {
		for _, r := range regions {
			if _, err := p.pal.DkPhysicalMemoryCommit(store, r.Start, r.End-r.Start); err != nil {
				_ = p.pal.DkObjectClose(store)
				return
			}
		}
	}()
	return p.shipCheckpoint(store, ckptMeta, handles, nil, childMain)
}

// shipCheckpoint creates the child picoprocess and streams the checkpoint
// sections to it. With a store, the memory section is included and batches
// travel out-of-band (fork); with a zygote template (a framed secZygote
// section, see Runtime.zygoteFor), memory is skipped entirely (spawn).
func (p *Process) shipCheckpoint(store *host.Handle, ck *Checkpoint, handles []*host.Handle, zygote []byte, childMain func(*Process) int) (int, error) {
	childReady := make(chan int64, 1)
	childErr := make(chan error, 1)

	// Create the clean child picoprocess. Its entry restores the streamed
	// checkpoint and becomes the child libOS.
	stageDone := p.rt.stage("create")
	hostChild, parentStream, err := p.pal.DkProcessCreate(func(c *pal.PAL, initial *host.Stream) {
		child, err := restoreChild(p.rt, c, initial, store, childMain)
		if err != nil {
			childErr <- err
			// No libOS will ever run here: retire the picoprocess, or its
			// address space and the creation stream outlive the failed fork.
			c.DkProcessExit(127)
			return
		}
		childReady <- child.pid
		child.start()
	}, false)
	stageDone()
	if err != nil {
		if store != nil {
			_ = p.pal.DkObjectClose(store)
		}
		return 0, err
	}
	stageDone = p.rt.stage("sections")

	// fail releases the fork machinery on any error: the initial stream,
	// and the bulk-IPC store so the producer's queued batches drop their
	// page references (IPCStore.Close unrefs them and fails later commits).
	// With no consumer left, an open store would keep the parent's whole
	// image flagged shared forever — every later parent write would pay a
	// needless COW copy and ResidentBytes would undercount the parent.
	var childPID int64
	fail := func(err error) (int, error) {
		parentStream.Close()
		if store != nil {
			_ = p.pal.DkObjectClose(store)
		}
		if childPID != 0 {
			p.helper.ForgetPID(childPID)
		}
		return 0, err
	}

	// Allocate the child PID now that its helper address is known (the
	// address derives from the host PID, so creation must come first).
	childAddr := ipc.AddrForHostPID(hostChild.ID)
	if childPID, err = p.helper.AllocPID(childAddr); err != nil {
		return fail(err)
	}

	// Stream the checkpoint sections; the child restores each as it lands.
	if zygote != nil {
		if _, err := parentStream.Write(zygote); err != nil {
			return fail(err)
		}
	}
	ck.PID, ck.PPID = childPID, p.pid
	if err := writeSection(parentStream, secMeta, &ck.ckMetaSection); err != nil {
		return fail(err)
	}
	if zygote == nil {
		if err := writeSection(parentStream, secMemory, &ck.ckMemSection); err != nil {
			return fail(err)
		}
	}
	if err := writeSection(parentStream, secFDs, &ck.ckFDSection); err != nil {
		return fail(err)
	}
	// The initial stream's out-of-band buffer is bounded (64 slots) and
	// the child drains it one AdoptStream at a time during restoreFDs, so
	// a parent with a large descriptor table — a fleet master holds four
	// pipe ends per worker — can outrun the receiver. EAGAIN from
	// SendHandle is flow control, not failure: the attempt is
	// ref-symmetric, so back off and retry until the child frees a slot
	// or dies (EPIPE). The deadline mirrors the childReady timeout below.
	hDeadline := time.Now().Add(10 * time.Second)
	for _, h := range handles {
		for {
			err := parentStream.SendHandle(h)
			if err == nil {
				break
			}
			if err != api.EAGAIN || time.Now().After(hDeadline) {
				return fail(err)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	if zygote == nil {
		// Spawned children reset dispositions on exec; only fork ships them.
		if err := writeSection(parentStream, secSig, &ck.ckSigSection); err != nil {
			return fail(err)
		}
	}
	if err := writeSection(parentStream, secDone, nil); err != nil {
		return fail(err)
	}

	// Track the child for wait() and synthesize an exit notification if
	// the picoprocess dies without sending one (§4.2, Table 2).
	cs := &childState{pid: childPID, hostProc: hostChild}
	p.mu.Lock()
	p.children[childPID] = cs
	p.mu.Unlock()
	go p.watchChild(cs)

	stageDone()
	defer p.rt.stage("wait-ready")()
	// Stopped on the way out: a bare time.After would leave one pending
	// 10 s timer (and its channel) behind every fork.
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	// A fork that fails has no child: untrack it, so wait() never returns
	// a PID the caller was not given and watchChild raises no SIGCHLD.
	failChild := func(err error) (int, error) {
		p.mu.Lock()
		cs.exited = true
		delete(p.children, childPID)
		p.childCV.Broadcast()
		p.mu.Unlock()
		return fail(err)
	}
	select {
	case <-childReady:
	case err := <-childErr:
		return failChild(err)
	case <-timeout.C:
		return failChild(api.EAGAIN)
	}
	parentStream.Close()
	return int(childPID), nil
}

// watchChild synthesizes an exit notification if the child's picoprocess
// dies without having delivered one over RPC — the crashed-child path: a
// graceful exit sends NotifyExit first and this becomes a no-op.
func (p *Process) watchChild(cs *childState) {
	_ = cs.hostProc.ExitEvent().Wait(0)
	p.mu.Lock()
	crashed := !cs.exited
	if crashed {
		cs.exited = true
		hc := cs.hostProc.ExitCode()
		cs.status, cs.signal = int64(hc&0xffff), api.Signal(hc>>16)
		p.childCV.Broadcast()
		p.sig.deliver(api.SIGCHLD)
	}
	p.mu.Unlock()
	if crashed && p.helper != nil {
		// The child died without unregistering: drop the stale ownership
		// hint so signal routing does not keep dialing a dead address.
		p.helper.InvalidatePID(cs.pid)
	}
}

// start runs the restored child's main function on its picoprocess,
// honoring Exit's unwind and the fork-then-exec pattern (a child function
// that calls Exec replaces its image with the exec'd program).
func (p *Process) start() {
	code := func() (code int) {
		defer func() {
			if r := recover(); r != nil {
				switch v := r.(type) {
				case processExited:
					p.mu.Lock()
					code = p.exitRequested
					p.mu.Unlock()
				case execRequest:
					next, ok := p.rt.lookupProgram(v.path)
					if !ok {
						code = 127
						return
					}
					p.resetForExec(v.path, v.argv)
					code = p.runProgram(next, v.path, v.argv)
				default:
					panic(r)
				}
			}
		}()
		return p.childMain(p)
	}()
	p.doExit(code, 0)
}

// Exec replaces the current program image (§5). Open descriptors are
// inherited; signal handlers are reset. Only returns on lookup failure.
func (p *Process) Exec(path string, argv []string) error {
	if _, ok := p.rt.lookupProgram(path); !ok {
		return api.ENOENT
	}
	if _, err := p.pal.DkStreamAttributesQuery("file:" + path); err != nil {
		return err
	}
	panic(execRequest{path: path, argv: argv})
}

// resetForExec clears program-private state across exec: the memory image
// and signal handlers; descriptors and the PID survive.
func (p *Process) resetForExec(path string, argv []string) {
	p.mu.Lock()
	p.programPath = path
	p.argv = argv
	p.mu.Unlock()
	p.sig.resetHandlers()
	p.mm.reset()
}

// Kill sends sig to the process with guest PID pid, or to every member
// of process group -pid when pid is negative (the process-group namespace
// of §4.2). Self-signals call the handler directly — the libOS fast path
// the paper measures as faster than native (§6.4). Remote signals go over
// RPC (§4.2, Figure 3).
func (p *Process) Kill(pid int, sig api.Signal) error {
	if sig <= 0 || sig >= api.NumSignals {
		return api.EINVAL
	}
	start := p.sysEnter()
	if pid < 0 {
		err := p.helper.SignalGroup(int64(-pid), sig)
		p.sysExit(start, host.SysKill, uint64(uint(pid)), err)
		return err
	}
	if int64(pid) == p.pid {
		err := errnoOrNil(p.sig.deliver(sig))
		p.sysExit(start, host.SysKill, uint64(pid), err)
		return err
	}
	err := p.helper.SendSignal(int64(pid), sig)
	if err == api.ETIMEDOUT {
		// The timeout already dropped the cached route to the target, so a
		// single retry re-resolves through the (possibly new) leader — the
		// signal lands if the target moved or the partition healed. A second
		// timeout means the target really is unreachable; surface it rather
		// than blocking the caller in an open-ended retry loop.
		err = p.helper.SendSignal(int64(pid), sig)
	}
	p.sysExit(start, host.SysKill, uint64(pid), err)
	return err
}

// Setpgid moves this process (pid must be 0 or the caller's PID) into
// process group pgid; pgid 0 makes the caller a group leader. Group
// membership is tracked at the sandbox leader.
func (p *Process) Setpgid(pid, pgid int) error {
	if pid != 0 && int64(pid) != p.pid {
		return api.ESRCH // moving other processes is not supported
	}
	target := int64(pgid)
	if pgid == 0 {
		target = p.pid
	}
	p.mu.Lock()
	old := p.pgid
	p.mu.Unlock()
	if old == target {
		return nil
	}
	start := p.sysEnter()
	err := p.helper.JoinGroup(target, p.pid)
	p.sysExit(start, host.SysSetpgid, uint64(target), err)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.pgid = target
	p.mu.Unlock()
	return nil
}

// Getpgid returns the process group ID (0 if never set).
func (p *Process) Getpgid() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.pgid)
}

func errnoOrNil(e api.Errno) error {
	if e != 0 {
		return e
	}
	return nil
}

// Sigaction installs or resets a signal handler.
func (p *Process) Sigaction(sig api.Signal, handler api.SigHandler, disposition string) error {
	return p.sig.sigaction(sig, handler, disposition)
}

// SignalsDrain synchronously delivers pending signals, as on syscall
// return in Linux.
func (p *Process) SignalsDrain() { p.sig.drain() }

// svc adapts the process to the IPC helper's Service interface.
func (p *Process) svc() ipc.Service { return (*procService)(p) }

// procService implements ipc.Service on Process with method-set isolation
// (the helper must only touch local state).
type procService Process

// DeliverSignal marks sig pending (or terminates) — invoked by the IPC
// helper on a signal RPC.
func (s *procService) DeliverSignal(target int64, sig api.Signal) api.Errno {
	p := (*Process)(s)
	if target != p.pid {
		return api.ESRCH
	}
	return p.sig.deliver(sig)
}

// NotifyExit records a child exit notification RPC (§4.2).
func (s *procService) NotifyExit(child int64, status int64, sig api.Signal) {
	p := (*Process)(s)
	p.mu.Lock()
	defer p.mu.Unlock()
	cs, ok := p.children[child]
	if !ok || cs.exited {
		return
	}
	cs.exited = true
	cs.status = status
	cs.signal = sig
	p.childCV.Broadcast()
	p.sig.deliver(api.SIGCHLD)
}

// ProcMeta serves /proc reads for this process from local state.
func (s *procService) ProcMeta(pid int64, field string) (string, api.Errno) {
	p := (*Process)(s)
	if pid != p.pid {
		return "", api.ESRCH
	}
	return p.procMetaLocal(field)
}
