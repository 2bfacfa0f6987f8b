// Package native implements the "native Linux process" baseline of the
// paper's evaluation: the same api.OS surface as libLinux, served by the
// host kernel with no library OS on top. Each native process is a host
// picoprocess with no syscall filter, and every system call enters the
// host's one syscall gate, exactly as a PAL call does under Graphene. Fork
// is an in-kernel copy-on-write clone, exec reloads the program image, exit
// is the picoprocess's exit, and pipes and sockets are the host's streams
// and listeners. What Graphene adds — PAL, reference monitor, checkpoint,
// bulk IPC, RPC — is absent: this is the comparator every table measures
// Graphene against.
package native

import (
	"maps"
	"strings"
	"sync"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/posix"
)

// Kernel is the monolithic kernel all native processes run on: one host
// kernel plus the process-table, program and System V state Linux keeps
// in-kernel.
type Kernel struct {
	FS *host.FileSystem

	host *host.Kernel

	mu       sync.Mutex
	procs    map[int]*Process // by host PID
	programs map[string]api.Program

	// takeoverEpoch backs api.Elector: native has no coordination plane to
	// elect through, so a monotonic counter in the shared kernel provides
	// the same handover label a real election round does on Graphene.
	takeoverEpoch int64

	sysv *sysvTables

	// Wrap, when set, decorates every process handed to application code
	// (the KVM personality wraps guest processes with its device model).
	Wrap func(*Process) api.OS
}

// wrapped applies the Wrap hook (identity when unset).
func (k *Kernel) wrapped(p *Process) api.OS {
	if k.Wrap != nil {
		return k.Wrap(p)
	}
	return p
}

// NewKernel boots an empty native kernel over a fresh host kernel. The host
// runs its open policy and records no flight-recorder events: Linux has no
// reference monitor and no libOS recorder.
func NewKernel() *Kernel {
	hk := host.NewKernel()
	hk.SetTraceRing(-1)
	return &Kernel{
		FS:       hk.FS,
		host:     hk,
		procs:    make(map[int]*Process),
		programs: make(map[string]api.Program),
		sysv:     newSysvTables(),
	}
}

// RegisterProgram installs a binary, mirroring liblinux.Runtime.
func (k *Kernel) RegisterProgram(path string, prog api.Program) error {
	path = host.CleanPath(path)
	k.mu.Lock()
	k.programs[path] = prog
	k.mu.Unlock()
	dir := path
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		dir = path[:i]
		if err := k.FS.MkdirAll(dir, 0755); err != nil && err != api.EEXIST {
			return err
		}
	}
	return k.FS.WriteFile(path, []byte("#!native-program\n"), 0755)
}

func (k *Kernel) lookupProgram(path string) (api.Program, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p, ok := k.programs[host.CleanPath(path)]
	return p, ok
}

// LaunchResult mirrors liblinux.LaunchResult.
type LaunchResult struct {
	Process  *Process
	Done     chan struct{}
	exitCode int
}

// ExitCode returns the root process's exit status (valid after Done).
func (l *LaunchResult) ExitCode() int { return l.exitCode }

// Launch starts path's program as a new top-level process.
func (k *Kernel) Launch(path string, argv []string) (*LaunchResult, error) {
	prog, ok := k.lookupProgram(path)
	if !ok {
		return nil, api.ENOENT
	}
	p, err := k.newProcess(nil)
	if err != nil {
		return nil, err
	}
	p.exec(path, argv)
	// Standard descriptors on the controlling terminal.
	tty := &posix.Desc{Kind: posix.TTY, Path: "tty"}
	for fd := 0; fd <= 2; fd++ {
		p.fds.Install(fd, tty)
	}
	res := &LaunchResult{Process: p, Done: make(chan struct{})}
	p.pp.NewThread(func(int) {
		p.doExit(p.run(prog, argv), 0)
		res.exitCode = p.exitCode
		close(res.Done)
	})
	return res, nil
}

// newProcess creates a host picoprocess and the native process on it. A
// child is an in-kernel clone of parent: its address space shares every
// page copy-on-write, and it shares the parent's open file descriptions,
// taking its own hold on each stream and listener behind them.
func (k *Kernel) newProcess(parent *Process) (*Process, error) {
	var ppp *host.Picoprocess
	if parent != nil {
		ppp = parent.pp
	}
	pp, err := k.host.CreateProcess(ppp, false)
	if err != nil {
		return nil, err
	}
	p := &Process{kernel: k, pp: pp, fds: posix.NewFDTable(), cwd: "/", env: make(map[string]string)}
	if parent != nil {
		parent.pp.AS.ForkCOWInto(pp.AS)
		parent.mu.Lock()
		p.programPath, p.argv = parent.programPath, parent.argv
		p.pgid, p.cwd = parent.pgid, parent.cwd
		p.brk, p.brkEnd = parent.brk, parent.brkEnd
		p.env = maps.Clone(parent.env)
		parent.mu.Unlock()
		var shared []*posix.Desc
		p.fds, shared = parent.fds.Clone()
		for _, d := range shared {
			k.hold(pp, d)
		}
	}
	k.mu.Lock()
	k.procs[pp.ID] = p
	k.mu.Unlock()
	return p, nil
}

// hold gives pp its own hold on the host object behind d — one stream
// reference or one listener co-holder slot per process — which close or the
// picoprocess's exit gives back.
func (k *Kernel) hold(pp *host.Picoprocess, d *posix.Desc) {
	if h := d.Handle; h != nil && h.Kind == host.HandleStream {
		h.Stream.Ref()
		k.host.AdoptStream(pp, h.Stream)
	} else if h != nil && h.Kind == host.HandleListener {
		k.host.AdoptListener(pp, h.Listener)
	}
}

func (k *Kernel) process(pid int) *Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.procs[pid]
}

// groupMembers returns the live processes in process group pgid.
func (k *Kernel) groupMembers(pgid int) []*Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	var out []*Process
	for _, p := range k.procs {
		p.mu.Lock()
		in := p.pgid == pgid
		p.mu.Unlock()
		if in {
			out = append(out, p)
		}
	}
	return out
}

func (k *Kernel) removeProcess(pid int) {
	k.mu.Lock()
	delete(k.procs, pid)
	k.mu.Unlock()
}

// brkBase matches liblinux's data segment origin.
const brkBase = 0x1000_0000

// imageBase/Bytes place the program + libc image (§6.2's 352 KB native
// "hello world" floor) outside the brk and mmap ranges.
const (
	imageBase  = 0x7000_0000_0000
	imageBytes = 352 * 1024
)

// ResidentBytes sums the resident memory of every live picoprocess — the
// native column of Figure 4, counted the way bench.GrapheneEnv counts
// Graphene's. Copy-on-write pages shared across fork are charged
// fractionally, matching how KSM-style dedup is credited in §6.2.
func (k *Kernel) ResidentBytes() uint64 {
	var total uint64
	for _, pp := range k.host.Processes() {
		total += pp.AS.ResidentBytes()
	}
	return total
}

// execRequest / processExited mirror liblinux's exec/exit unwinding.
type execRequest struct {
	prog api.Program
	argv []string
}

type processExited struct{}
