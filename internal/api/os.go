package api

// Program is an application entry point. Applications are registered under
// file-system paths (standing in for ELF binaries) and receive the process
// abstraction and their argument vector when exec'd.
type Program func(p OS, argv []string) int

// OS is the system-call surface applications program against — the analogue
// of the Linux syscall table in the paper. Three personalities implement it:
//
//   - internal/liblinux: the Graphene library OS (syscalls serviced from
//     library state and coordinated across picoprocesses over RPC)
//   - internal/baseline/native: a native Linux process (shared kernel tables)
//   - internal/baseline/kvm: a process inside a dedicated virtual machine
//
// Unless otherwise noted, methods return api.Errno errors.
type OS interface {
	// --- identity ---

	Getpid() int
	Getppid() int

	// --- process management ---

	// Fork creates a child process running child. The parent's libOS state
	// (descriptors, cwd, signal dispositions, memory image) is duplicated
	// into the child via the personality's fork path (checkpoint + bulk-IPC
	// COW pages on Graphene). It returns the child PID in the parent.
	//
	// This replaces fork(2)'s return-twice convention, which a Go function
	// cannot express; see DESIGN.md. The child function runs in the child
	// process's context and must use only its own OS handle.
	Fork(child func(OS)) (int, error)

	// Exec replaces the current program image with the program registered at
	// path. It only returns on error. Open descriptors are inherited.
	Exec(path string, argv []string) error

	// Spawn is fork followed by exec of path in the child — the common
	// pattern in shells. Returns the child PID.
	Spawn(path string, argv []string) (int, error)

	// Wait blocks until the child with the given PID exits (pid > 0) or any
	// child exits (pid == -1), and reaps it.
	Wait(pid int) (WaitResult, error)

	// Exit terminates the calling process with the given status code. It
	// does not return.
	Exit(code int)

	// --- signals ---

	Kill(pid int, sig Signal) error
	// Sigaction installs handler for sig. A nil handler combined with
	// disposition SigIgn ignores the signal; SigDfl restores the default.
	Sigaction(sig Signal, handler SigHandler, disposition string) error
	// SignalsDrain synchronously delivers any pending signals, as Linux does
	// on return from a system call. Long-running loops may call it.
	SignalsDrain()

	// --- files ---

	Open(path string, flags int, mode FileMode) (int, error)
	Close(fd int) error
	Read(fd int, buf []byte) (int, error)
	Write(fd int, buf []byte) (int, error)
	Lseek(fd int, offset int64, whence int) (int64, error)
	Stat(path string) (Stat, error)
	Fstat(fd int) (Stat, error)
	Unlink(path string) error
	Mkdir(path string, mode FileMode) error
	ReadDir(path string) ([]DirEnt, error)
	Rename(oldPath, newPath string) error
	Chdir(path string) error
	Getcwd() (string, error)
	Dup2(oldFD, newFD int) (int, error)
	Pipe() (readFD, writeFD int, err error)

	// --- memory ---

	// Brk adjusts the program break; Brk(0) queries it. Returns the break.
	Brk(addr uint64) (uint64, error)
	Mmap(addr uint64, length uint64, prot int) (uint64, error)
	Munmap(addr uint64, length uint64) error
	// MemWrite/MemRead touch application memory, standing in for direct
	// loads/stores (apps are Go code, not machine code; see DESIGN.md).
	MemWrite(addr uint64, data []byte) error
	MemRead(addr uint64, buf []byte) error

	// --- System V IPC ---

	Msgget(key int, flags int) (int, error)
	Msgsnd(id int, mtype int64, data []byte, flags int) error
	Msgrcv(id int, mtype int64, buf []byte, flags int) (int64, []byte, error)
	MsgctlRmid(id int) error

	Semget(key int, nsems int, flags int) (int, error)
	Semop(id int, ops []SemBuf) error
	SemctlRmid(id int) error

	// --- networking (simplified TCP) ---

	Listen(addr SockAddr) (int, error)
	Accept(fd int) (int, error)
	Connect(addr SockAddr) (int, error)

	// --- misc ---

	Gettimeofday() (unixMicros int64, err error)
	GetRandom(buf []byte) (int, error)
	// Getenv reads the process environment (inherited across fork/exec).
	Getenv(key string) string
	Setenv(key, value string)

	// ProcSelfRoot returns the path prefix of this personality's /proc
	// namespace, used by tests probing /proc isolation.
	ProcSelfRoot() string
}

// Poller is the optional select/poll surface (LMbench's "select tcp").
type Poller interface {
	// Poll blocks until one of the descriptors is readable, returning its
	// index in fds; timeoutMicros <= 0 waits forever.
	Poll(fds []int, timeoutMicros int64) (int, error)
}

// Threader is the optional thread-spawn surface (multi-threaded servers
// like lighttpd). Threads share the process's descriptors and state.
type Threader interface {
	SpawnThread(fn func()) error
}

// ConnPasser is the optional descriptor-passing surface used by preforked
// servers: the parent accepts and hands connections to workers (Graphene's
// handle-inheritance ABI; SCM_RIGHTS on native Linux).
type ConnPasser interface {
	PassConnection(overFD, connFD int) error
	ReceiveConnection(overFD int) (int, error)
}

// FaultPointer is the optional fault-injection surface: applications name
// decision points ("fleet.scale.up", "fleet.master.kill") and a host
// FaultPlan decides deterministically whether the Nth hit fires. On
// personalities without a fault layer the call is a no-op, so apps can
// evaluate points unconditionally.
type FaultPointer interface {
	// FaultPoint evaluates the named point against the active fault plan.
	// Kill/Delay actions are applied by the host before this
	// returns; the returned code (the host's FaultAction value, 0 = none)
	// lets the application apply caller-side actions such as Drop —
	// suppress the decision the point guards — itself.
	FaultPoint(name string) int
}

// Elector is the optional takeover-election surface. A hot-standby master
// that sees its primary exit runs one election round before adopting
// shared state; the returned epoch labels the new master's term on the
// scoreboard. Under crash-stop the primary that exited writes nothing
// more, so there is no stale writer for the epoch to fence. Personalities
// without a coordination plane back this with a kernel-global epoch
// counter.
type Elector interface {
	ElectEpoch() (int64, error)
}

// SandboxCreator is implemented by personalities supporting dynamic sandbox
// detach (Graphene's sandbox_create library call, §3 and §6.6 of the paper).
type SandboxCreator interface {
	// SandboxCreate moves the calling process into a new sandbox whose file
	// system view is restricted to fsView (must be a subset of the current
	// view). All streams to picoprocesses in the old sandbox are severed.
	SandboxCreate(fsView []string) error
}
