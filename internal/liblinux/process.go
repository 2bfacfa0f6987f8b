package liblinux

import (
	"sync"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/ipc"
	"graphene/internal/pal"
	"graphene/internal/posix"
)

// Process is one libLinux instance: the guest OS state of a single
// picoprocess, servicing Linux system calls from library state and
// coordinating shared abstractions over RPC (§4). It implements api.OS.
type Process struct {
	rt     *Runtime
	pal    *pal.PAL
	helper *ipc.Helper

	pid        int64
	ppid       int64
	pgid       int64
	leaderAddr string

	programPath string
	argv        []string

	fds      *posix.FDTable
	mm       *mmState
	sig      posix.Signals
	children posix.Children

	mu  sync.Mutex
	cwd string
	env map[string]string

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
func newProcess(rt *Runtime, p *pal.PAL, pid, ppid int64, leaderAddr string) (*Process, error) {
	proc := &Process{
		rt:         rt,
		pal:        p,
		pid:        pid,
		ppid:       ppid,
		leaderAddr: leaderAddr,
		fds:        posix.NewFDTable(),
		cwd:        "/",
		env:        make(map[string]string),
	}
	mm, err := newMMState(p)
	if err != nil {
		return nil, err
	}
	proc.mm = mm
	// Wire the SIGSYS redirect: app-issued host syscalls come back to the
	// libOS (Figure 2). A memory fault raises nothing: a libOS access to a
	// bad address is EFAULT to its caller, as a system call's is on Linux.
	if err := p.DkSetExceptionHandler(pal.ExceptionSyscall, proc.handleSyscallException); err != nil {
		return nil, err
	}
	// Map the libOS image: libLinux.so plus the modified glibc stack
	// occupy ~1.4 MB per picoprocess (§6.2's "hello world" floor). The
	// image lives outside the mmap range so it is never checkpointed —
	// each instance is charged its own, which is also why the incremental
	// cost of a forked child stays under a couple of MB. The host kernel
	// holds one copy and the picoprocess maps it by reference, one
	// reference per 2 MiB leaf; a write into it copies what it touches.
	if addr, err := p.DkVirtualMemoryAlloc(libOSImageBase, libOSImageBytes, api.ProtRead|api.ProtExec|api.ProtWrite); err == nil {
		_ = p.Kernel().MapImage(p.Proc().AS, addr, libOSImageBytes)
	}
	// Standard descriptors on the console.
	tty, err := p.DkStreamOpen("dev:tty", 0, 0)
	if err == nil {
		d := &posix.Desc{Kind: posix.TTY, Handle: tty}
		for fd := 0; fd <= 2; fd++ {
			proc.fds.Install(fd, d)
		}
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

// ElectEpoch runs one election round through this process's IPC helper
// (api.Elector): the standby-master takeover path. The round reuses the
// dead-leader recovery machinery, so a standby promoting itself is one
// more leader failover; the epoch is the handover's label.
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

// doExit is the real exit path, in the order of Linux's do_exit: close
// descriptors, leave the process group, persist or migrate IPC state, and
// only then kill the picoprocess. Nothing is sent to the parent: the host
// exit event is its exit notification (§4.2, see watchChild), so once
// wait() has returned there, a write to a pipe only this process read fails
// with EPIPE and this process's System V objects are findable again.
func (p *Process) doExit(code int, killedBy api.Signal) {
	p.exitOnce.Do(func() {
		defer p.rt.stage("exit")()
		p.mu.Lock()
		p.dead = true
		p.exitCode = code
		pgid := p.pgid
		p.mu.Unlock()
		for _, d := range p.fds.CloseAll() {
			_ = p.closeDesc(d) // the process is going; nobody is left to tell
		}
		if p.helper != nil {
			if pgid != 0 {
				_ = p.helper.LeaveGroup(pgid, p.pid)
			}
			p.helper.Shutdown()
		}
		// The host exit code carries the terminating signal above the status.
		p.pal.DkProcessExit(code&0xffff | int(killedBy)<<16)
		p.sig.Exited()
		p.children.Close()
	})
}

// Wait blocks until the child with guest PID pid exits (pid > 0) or any
// child exits (pid == -1), then reaps it.
func (p *Process) Wait(pid int) (api.WaitResult, error) {
	start := p.sysEnter()
	res, err := p.children.Wait(pid)
	if err == nil {
		p.helper.ForgetPID(int64(res.PID))
	}
	p.sysExit(start, host.SysWait4, uint64(uint(pid)), err)
	if err != nil && p.sig.Killed() {
		panic(processExited{}) // killed while it waited: unwind as Exit does
	}
	return res, err
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
	p.unwindIfDead(err)
	return pid, err
}

// unwindIfDead unwinds the calling thread as Exit does when a fork or spawn
// failed because this process is gone, killed while the call ran: the
// thread must not go on to its next call. The host picoprocess is the
// test, not sig.Killed, because the failure comes from the host exit,
// which precedes the signal bookkeeping at the end of doExit.
func (p *Process) unwindIfDead(err error) {
	if err != nil && p.pal.Proc().Dead() {
		panic(processExited{})
	}
}

// Spawn is fork+exec of path in the child, the common shell pattern. It
// takes the zygote fast path: the child resets its memory image on exec
// anyway, so no memory is serialized or transferred — the parent ships the
// cached per-program template plus the fresh dynamic state (env, cwd,
// descriptors, identity), which the regression tests pin as never-stale.
func (p *Process) Spawn(path string, argv []string) (int, error) {
	pid, err := p.spawn(path, argv)
	p.unwindIfDead(err)
	return pid, err
}

func (p *Process) spawn(path string, argv []string) (int, error) {
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

	// Track the child for wait(); its host exit event is the exit
	// notification (§4.2, Table 2).
	p.children.Add(int(childPID))
	go p.watchChild(childPID, hostChild)

	stageDone()
	defer p.rt.stage("wait-ready")()
	// Stopped on the way out: a bare time.After would leave one pending
	// 10 s timer (and its channel) behind every fork.
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	// A fork that fails has no child: untrack it, so wait() never returns
	// a PID the caller was not given and watchChild raises no SIGCHLD.
	failChild := func(err error) (int, error) {
		p.children.Forget(int(childPID))
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

// watchChild is the parent's half of exit notification (§4.2): the child's
// host exit event, which a clean exit fires after doExit's teardown and a
// crash fires all the same, carries status and signal. It is the only code
// that marks a child exited and raises SIGCHLD; a fork that failed was
// already untracked by failChild and is not reported.
func (p *Process) watchChild(pid int64, hostChild *host.Picoprocess) {
	_ = hostChild.ExitEvent().Wait(0)
	hc := hostChild.ExitCode()
	if p.children.Exit(int(pid), hc&0xffff, api.Signal(hc>>16)) {
		p.deliver(api.SIGCHLD)
	}
	// Drop the ownership hint so signal routing does not keep dialing a
	// dead address.
	p.helper.InvalidatePID(pid)
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
	p.sig.ResetForExec()
	p.mm.reset()
}

// Kill sends sig to the process with guest PID pid, or to every member
// of process group -pid when pid is negative (the process-group namespace
// of §4.2). Self-signals call the handler directly — the libOS fast path
// the paper measures as faster than native (§6.4). Remote signals go over
// RPC (§4.2, Figure 3).
func (p *Process) Kill(pid int, sig api.Signal) error {
	if !posix.Valid(sig) {
		return api.EINVAL
	}
	start := p.sysEnter()
	if pid < 0 {
		err := p.helper.SignalGroup(int64(-pid), sig)
		p.sysExit(start, host.SysKill, uint64(uint(pid)), err)
		return err
	}
	if int64(pid) == p.pid {
		p.deliver(sig)
		p.sysExit(start, host.SysKill, uint64(pid), nil)
		return nil
	}
	err := p.helper.SendSignal(int64(pid), sig)
	if err == api.ETIMEDOUT {
		// The timeout already dropped the cached route to the target, so a
		// single retry re-resolves through the (possibly new) leader — the
		// signal lands if the target moved or a new leader took over. A second
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

// deliver delivers sig to this process (§4.2): a caught signal runs its
// handler at the next libOS entry, as Linux delivers on return from a
// system call. A fatal one exits on a fresh goroutine, so a remote kill
// never blocks the IPC helper that delivered it (§4.1's deadlock rule).
func (p *Process) deliver(sig api.Signal) {
	if p.sig.Deliver(sig) == posix.Fatal {
		go p.doExit(128+int(sig), sig)
	}
}

// Sigaction installs or resets a signal handler.
func (p *Process) Sigaction(sig api.Signal, handler api.SigHandler, disposition string) error {
	return p.sig.Sigaction(sig, handler, disposition)
}

// SignalsDrain synchronously delivers pending signals, as on syscall
// return in Linux. A thread of a process a signal has killed unwinds here
// instead, as Exit unwinds the caller.
func (p *Process) SignalsDrain() {
	if p.sig.Drain() {
		panic(processExited{})
	}
}

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
	if !posix.Valid(sig) {
		return api.EINVAL
	}
	p.deliver(sig)
	return 0
}

// ProcMeta serves /proc reads for this process from local state.
func (s *procService) ProcMeta(pid int64, field string) (string, api.Errno) {
	p := (*Process)(s)
	if pid != p.pid {
		return "", api.ESRCH
	}
	return p.procInfo().Render(field)
}
