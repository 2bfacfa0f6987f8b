// Package liblinux implements the Graphene library OS ("libLinux" in the
// paper): a Linux personality built entirely on the PAL's 43-call host ABI.
// Each picoprocess runs one LibOS instance; instances collaborate over RPC
// streams (internal/ipc) to present the application with a single, shared
// POSIX OS — PID namespaces, signals, exit notification, System V IPC —
// while servicing everything possible from local library state (§4).
package liblinux

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/ipc"
	"graphene/internal/monitor"
	"graphene/internal/pal"
)

// Runtime is the per-host Graphene installation: the program registry (the
// "binaries" an application can exec) and the trusted launch path through
// the reference monitor.
type Runtime struct {
	kernel *host.Kernel
	mon    *monitor.Monitor

	mu       sync.Mutex
	programs map[string]api.Program

	// zygotes caches the encoded spawn template per program path (the
	// "post-restore template checkpoint" of the fork pipeline): built on
	// the first spawn of a path, reused by every later one, invalidated
	// when the program is re-registered. Only static state lives here —
	// dynamic state (env, cwd, descriptors, identity) is re-captured on
	// every spawn.
	zygotes map[string][]byte

	// stageObs, when set, is told how long each stage of a fork took
	// (BenchmarkForkExitWait's breakdown); nil outside that benchmark.
	stageObs func(stage string, d time.Duration)
}

// stage starts timing one stage of the fork pipeline; the func it returns
// ends it. Without an observer neither reads the clock.
func (r *Runtime) stage(name string) func() {
	if r.stageObs == nil {
		return func() {}
	}
	start := time.Now()
	return func() { r.stageObs(name, time.Since(start)) }
}

// NewRuntime creates a runtime over the given host kernel and monitor.
func NewRuntime(k *host.Kernel, m *monitor.Monitor) *Runtime {
	return &Runtime{
		kernel:   k,
		mon:      m,
		programs: make(map[string]api.Program),
		zygotes:  make(map[string][]byte),
	}
}

// Kernel exposes the host kernel (test and launcher support).
func (r *Runtime) Kernel() *host.Kernel { return r.kernel }

// Monitor exposes the reference monitor.
func (r *Runtime) Monitor() *monitor.Monitor { return r.mon }

// RegisterProgram installs a program at a file system path, standing in
// for an ELF binary (see DESIGN.md). A stub file is written to the host FS
// so stat/open and manifest checks behave as they would for a real binary.
func (r *Runtime) RegisterProgram(path string, prog api.Program) error {
	path = host.CleanPath(path)
	r.mu.Lock()
	r.programs[path] = prog
	// Re-registering a program changes its image: drop the cached zygote
	// template so the next spawn rebuilds it (see DESIGN.md invalidation
	// rules).
	delete(r.zygotes, path)
	r.mu.Unlock()
	dir := parentDir(path)
	if dir != "/" {
		if err := r.kernel.FS.MkdirAll(dir, 0755); err != nil && err != api.EEXIST {
			return err
		}
	}
	return r.kernel.FS.WriteFile(path, []byte("#!graphene-program\n"), 0755)
}

func parentDir(p string) string {
	for i := len(p) - 1; i > 0; i-- {
		if p[i] == '/' {
			return p[:i]
		}
	}
	return "/"
}

func (r *Runtime) lookupProgram(path string) (api.Program, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	prog, ok := r.programs[host.CleanPath(path)]
	return prog, ok
}

// zygoteFor returns the cached spawn template for path — the framed
// secZygote section, ready to write to the child — building it on first
// use. The template pins the program's post-exec memory layout (fresh
// break, no mappings), letting spawn skip memory serialization and
// bulk-IPC transfer entirely.
func (r *Runtime) zygoteFor(path string) ([]byte, error) {
	path = host.CleanPath(path)
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.zygotes[path]; ok {
		return b, nil
	}
	b, err := appendSection(nil, secZygote, &zygoteTemplate{ProgramPath: path, Brk: brkBase, BrkEnd: brkBase})
	if err != nil {
		return nil, err
	}
	r.zygotes[path] = b
	return b, nil
}

// LaunchResult describes a launched root process.
type LaunchResult struct {
	Process *Process
	// Done is closed when the root process exits; ExitCode is then valid.
	Done     chan struct{}
	exitCode int
}

// ExitCode returns the root process's exit status (valid after Done).
func (l *LaunchResult) ExitCode() int { return l.exitCode }

// finish exits the root process and reports the sandbox gone. The exit
// wakes goroutines that still reach the whole host kernel — the helpers'
// accept, broadcast and connection loops, the watchers of reaped children
// — so before Done closes the root yields the processor until they stop
// retiring: a caller that reads the heap after Done (the benchmark's next
// round) must not find this sandbox kept alive by a goroutine that has
// yet to be scheduled, as it is on one busy processor.
func (l *LaunchResult) finish(lib *Process, code int) {
	lib.doExit(code, 0)
	l.exitCode = lib.exitCode
	for n := runtime.NumGoroutine(); ; {
		runtime.Gosched()
		m := runtime.NumGoroutine()
		if m >= n {
			break
		}
		n = m
	}
	close(l.Done)
}

// Launch boots path's program as the root process of a fresh sandbox
// governed by manifest — the reference monitor's application launch path
// (§3). The root LibOS instance becomes the sandbox's namespace leader
// with guest PID 1.
func (r *Runtime) Launch(man *monitor.Manifest, path string, argv []string) (*LaunchResult, error) {
	prog, ok := r.lookupProgram(path)
	if !ok {
		return nil, api.ENOENT
	}
	proc, _, err := r.mon.Launch(man)
	if err != nil {
		return nil, err
	}
	p := pal.New(r.kernel, proc, r.mon)
	lib, err := newProcess(r, p, 1, 0, "")
	if err != nil {
		proc.Exit(127)
		return nil, err
	}
	helper, err := ipc.NewLeader(p, lib.svc(), 1)
	if err != nil {
		proc.Exit(127)
		return nil, err
	}
	lib.helper = helper
	lib.programPath = path
	lib.argv = argv

	res := &LaunchResult{Process: lib, Done: make(chan struct{})}
	proc.NewThread(func(tid int) {
		res.finish(lib, lib.runProgram(prog, path, argv))
	})
	return res, nil
}

// execRequest is panicked by Exec and recovered by runProgram, modeling
// execve's replace-the-image semantics on a Go stack.
type execRequest struct {
	path string
	argv []string
}

// runProgram runs prog and any exec chain, returning the final exit code.
func (p *Process) runProgram(prog api.Program, path string, argv []string) int {
	for {
		code, execReq := p.runOnce(prog, argv)
		if execReq == nil {
			return code
		}
		next, ok := p.rt.lookupProgram(execReq.path)
		if !ok {
			return 127
		}
		p.resetForExec(execReq.path, execReq.argv)
		prog, path, argv = next, execReq.path, execReq.argv
		_ = path
	}
}

func (p *Process) runOnce(prog api.Program, argv []string) (code int, exec *execRequest) {
	defer func() {
		if r := recover(); r != nil {
			if req, ok := r.(execRequest); ok {
				exec = &req
				return
			}
			if _, ok := r.(processExited); ok {
				code = p.exitRequested
				return
			}
			panic(r)
		}
	}()
	return prog(p, argv), nil
}

// processExited is panicked by Exit to unwind the program stack.
type processExited struct{}

// String implements fmt.Stringer for debugging.
func (r *Runtime) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("Runtime{%d programs}", len(r.programs))
}
