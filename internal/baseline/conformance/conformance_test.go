// Package conformance runs one suite of unmodified application programs
// against all three personalities — Graphene (liblinux), a native Linux
// process, and a process in a KVM guest — asserting identical behavior.
// This is the repository's statement of the paper's compatibility claim:
// the same binaries run everywhere.
package conformance

import (
	"testing"
	"time"

	"graphene/internal/api"
	"graphene/internal/baseline/kvm"
	"graphene/internal/baseline/native"
	"graphene/internal/host"
	"graphene/internal/liblinux"
	"graphene/internal/monitor"
)

// personality abstracts "register programs, launch one, wait for exit".
type personality struct {
	name     string
	register func(path string, prog api.Program) error
	launch   func(path string, argv []string) (waitExit func(t *testing.T) int, err error)
}

func grapheneEnv(t *testing.T) personality {
	k := host.NewKernel()
	m := monitor.New(k)
	rt := liblinux.NewRuntime(k, m)
	man, err := monitor.ParseManifest("conf", "mount / /\nallow_read /\nallow_write /\nnet_listen *:*\nnet_connect *:*\n")
	if err != nil {
		t.Fatal(err)
	}
	return personality{
		name:     "graphene",
		register: rt.RegisterProgram,
		launch: func(path string, argv []string) (func(*testing.T) int, error) {
			res, err := rt.Launch(man, path, argv)
			if err != nil {
				return nil, err
			}
			return func(t *testing.T) int {
				select {
				case <-res.Done:
					return res.ExitCode()
				case <-time.After(60 * time.Second):
					t.Fatal("graphene program hung")
					return -1
				}
			}, nil
		},
	}
}

func nativeEnv(t *testing.T) personality {
	k := native.NewKernel()
	return personality{
		name:     "native",
		register: k.RegisterProgram,
		launch: func(path string, argv []string) (func(*testing.T) int, error) {
			res, err := k.Launch(path, argv)
			if err != nil {
				return nil, err
			}
			return func(t *testing.T) int {
				select {
				case <-res.Done:
					return res.ExitCode()
				case <-time.After(60 * time.Second):
					t.Fatal("native program hung")
					return -1
				}
			}, nil
		},
	}
}

func kvmEnv(t *testing.T) personality {
	vm := kvm.StartVM()
	return personality{
		name:     "kvm",
		register: vm.RegisterProgram,
		launch: func(path string, argv []string) (func(*testing.T) int, error) {
			res, err := vm.Launch(path, argv)
			if err != nil {
				return nil, err
			}
			return func(t *testing.T) int {
				select {
				case <-res.Done:
					return res.ExitCode()
				case <-time.After(60 * time.Second):
					t.Fatal("kvm program hung")
					return -1
				}
			}, nil
		},
	}
}

// runEverywhere registers main (plus extra binaries) and runs it on all
// three personalities, asserting exit code 0. Programs signal failures by
// returning a step number.
func runEverywhere(t *testing.T, extra map[string]api.Program, main api.Program, argv ...string) {
	t.Helper()
	envs := []personality{grapheneEnv(t), nativeEnv(t), kvmEnv(t)}
	for _, env := range envs {
		env := env
		t.Run(env.name, func(t *testing.T) {
			for path, prog := range extra {
				if err := env.register(path, prog); err != nil {
					t.Fatal(err)
				}
			}
			if err := env.register("/bin/main", main); err != nil {
				t.Fatal(err)
			}
			wait, err := env.launch("/bin/main", append([]string{"/bin/main"}, argv...))
			if err != nil {
				t.Fatal(err)
			}
			if code := wait(t); code != 0 {
				t.Fatalf("program failed at step %d", code)
			}
		})
	}
}

func TestConformanceFileIO(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		if err := p.Mkdir("/d", 0755); err != nil {
			return 1
		}
		fd, err := p.Open("/d/x", api.OCreate|api.ORdWr, 0644)
		if err != nil {
			return 2
		}
		if _, err := p.Write(fd, []byte("portable")); err != nil {
			return 3
		}
		if _, err := p.Lseek(fd, 0, api.SeekSet); err != nil {
			return 4
		}
		buf := make([]byte, 16)
		n, err := p.Read(fd, buf)
		if err != nil || string(buf[:n]) != "portable" {
			return 5
		}
		st, err := p.Stat("/d/x")
		if err != nil || st.Size != 8 {
			return 6
		}
		if err := p.Rename("/d/x", "/d/y"); err != nil {
			return 7
		}
		if err := p.Unlink("/d/y"); err != nil {
			return 8
		}
		if _, err := p.Open("/d/y", api.ORdOnly, 0); api.ToErrno(err) != api.ENOENT {
			return 9
		}
		return 0
	})
}

func TestConformanceForkWaitPipes(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		r, w, err := p.Pipe()
		if err != nil {
			return 1
		}
		pid, err := p.Fork(func(c api.OS) {
			if _, err := c.Write(w, []byte("child says hi")); err != nil {
				c.Exit(101)
			}
			c.Exit(17)
		})
		if err != nil {
			return 2
		}
		buf := make([]byte, 32)
		n, err := p.Read(r, buf)
		if err != nil || string(buf[:n]) != "child says hi" {
			return 3
		}
		res, err := p.Wait(pid)
		if err != nil || res.ExitCode != 17 {
			return 4
		}
		return 0
	})
}

func TestConformanceSpawnExec(t *testing.T) {
	extra := map[string]api.Program{
		"/bin/echoarg": func(p api.OS, argv []string) int {
			if len(argv) == 2 && argv[1] == "token" {
				return 0
			}
			return 9
		},
	}
	runEverywhere(t, extra, func(p api.OS, argv []string) int {
		pid, err := p.Spawn("/bin/echoarg", []string{"/bin/echoarg", "token"})
		if err != nil {
			return 1
		}
		res, err := p.Wait(pid)
		if err != nil || res.ExitCode != 0 {
			return 2
		}
		if _, err := p.Spawn("/bin/missing", nil); api.ToErrno(err) != api.ENOENT {
			return 3
		}
		return 0
	})
}

func TestConformanceSignals(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		hits := make(chan api.Signal, 1)
		if err := p.Sigaction(api.SIGUSR1, func(s api.Signal) { hits <- s }, ""); err != nil {
			return 1
		}
		if err := p.Kill(p.Getpid(), api.SIGUSR1); err != nil {
			return 2
		}
		p.SignalsDrain()
		select {
		case s := <-hits:
			if s != api.SIGUSR1 {
				return 3
			}
		default:
			return 4
		}
		// Killing an unknown PID fails identically everywhere.
		if err := p.Kill(424242, api.SIGTERM); api.ToErrno(err) != api.ESRCH {
			return 5
		}
		return 0
	})
}

func TestConformanceSysVMessageQueues(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		qid, err := p.Msgget(42, api.IPCCreat)
		if err != nil {
			return 1
		}
		pid, err := p.Fork(func(c api.OS) {
			cq, err := c.Msgget(42, 0)
			if err != nil {
				c.Exit(101)
			}
			if err := c.Msgsnd(cq, 3, []byte("sysv payload"), 0); err != nil {
				c.Exit(102)
			}
			c.Exit(0)
		})
		if err != nil {
			return 2
		}
		mt, data, err := p.Msgrcv(qid, 0, nil, 0)
		if err != nil || mt != 3 || string(data) != "sysv payload" {
			return 3
		}
		if res, err := p.Wait(pid); err != nil || res.ExitCode != 0 {
			return 4
		}
		if err := p.MsgctlRmid(qid); err != nil {
			return 5
		}
		if err := p.Msgsnd(qid, 1, []byte("x"), 0); api.ToErrno(err) != api.EIDRM {
			return 6
		}

		// A remote send to a removed queue answers EIDRM too: a child sends
		// 20 messages to the parent's queue, the parent removes it, and the
		// child sends once more.
		rq, err := p.Msgget(43, api.IPCCreat)
		if err != nil {
			return 7
		}
		r, w, err := p.Pipe()
		if err != nil {
			return 8
		}
		pid, err = p.Fork(func(c api.OS) {
			cq, err := c.Msgget(43, 0)
			if err != nil {
				c.Exit(101)
			}
			for i := 0; i < 20; i++ {
				if err := c.Msgsnd(cq, 1, []byte{byte(i)}, 0); err != nil {
					c.Exit(102)
				}
			}
			if _, err := c.Read(r, make([]byte, 1)); err != nil {
				c.Exit(103)
			}
			if err := c.Msgsnd(cq, 1, []byte("late"), 0); api.ToErrno(err) != api.EIDRM {
				c.Exit(104)
			}
			c.Exit(0)
		})
		if err != nil {
			return 9
		}
		for i := 0; i < 20; i++ {
			if _, data, err := p.Msgrcv(rq, 0, nil, 0); err != nil || data[0] != byte(i) {
				return 10
			}
		}
		if err := p.MsgctlRmid(rq); err != nil {
			return 11
		}
		if _, err := p.Write(w, []byte{1}); err != nil {
			return 12
		}
		if res, err := p.Wait(pid); err != nil || res.ExitCode != 0 {
			return 13
		}
		return 0
	})
}

func TestConformanceSemaphores(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		sid, err := p.Semget(7, 1, api.IPCCreat)
		if err != nil {
			return 1
		}
		if err := p.Semop(sid, []api.SemBuf{{Num: 0, Op: 2}}); err != nil {
			return 2
		}
		if err := p.Semop(sid, []api.SemBuf{{Num: 0, Op: -2}}); err != nil {
			return 3
		}
		if err := p.Semop(sid, []api.SemBuf{{Num: 0, Op: -1, Flg: int16(api.IPCNoWait)}}); api.ToErrno(err) != api.EAGAIN {
			return 4
		}
		if err := p.SemctlRmid(sid); err != nil {
			return 5
		}
		return 0
	})
}

func TestConformanceSockets(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		lfd, err := p.Listen("127.0.0.1:7777")
		if err != nil {
			return 1
		}
		done := make(chan int, 1)
		go func() {
			conn, err := p.Accept(lfd)
			if err != nil {
				done <- 101
				return
			}
			buf := make([]byte, 8)
			n, _ := p.Read(conn, buf)
			if _, err := p.Write(conn, buf[:n]); err != nil {
				done <- 102
				return
			}
			done <- 0
		}()
		cfd, err := p.Connect("127.0.0.1:7777")
		if err != nil {
			return 2
		}
		if _, err := p.Write(cfd, []byte("echo")); err != nil {
			return 3
		}
		buf := make([]byte, 8)
		n, err := p.Read(cfd, buf)
		if err != nil || string(buf[:n]) != "echo" {
			return 4
		}
		if c := <-done; c != 0 {
			return c
		}
		if _, err := p.Connect("127.0.0.1:1"); api.ToErrno(err) != api.ECONNREFUSED {
			return 5
		}
		return 0
	})
}

func TestConformanceMemory(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		brk0, err := p.Brk(0)
		if err != nil {
			return 1
		}
		if _, err := p.Brk(brk0 + 64*1024); err != nil {
			return 2
		}
		if err := p.MemWrite(brk0+1000, []byte("heap")); err != nil {
			return 3
		}
		buf := make([]byte, 4)
		if err := p.MemRead(brk0+1000, buf); err != nil || string(buf) != "heap" {
			return 4
		}
		addr, err := p.Mmap(0, 2*host.PageSize, api.ProtRead|api.ProtWrite)
		if err != nil {
			return 5
		}
		if err := p.Munmap(addr, 2*host.PageSize); err != nil {
			return 6
		}
		return 0
	})
}

func TestConformanceEnvAndCwd(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		p.Setenv("KEY", "value")
		if p.Getenv("KEY") != "value" {
			return 1
		}
		childOK := make(chan bool, 1)
		pid, err := p.Fork(func(c api.OS) {
			childOK <- c.Getenv("KEY") == "value"
			c.Exit(0)
		})
		if err != nil {
			return 2
		}
		if ok := <-childOK; !ok {
			return 3
		}
		p.Wait(pid)
		return 0
	})
}

func TestConformanceProcSelf(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		fd, err := p.Open(p.ProcSelfRoot()+"/self/status", api.ORdOnly, 0)
		if err != nil {
			return 1
		}
		buf := make([]byte, 256)
		n, err := p.Read(fd, buf)
		if err != nil || n == 0 {
			return 2
		}
		return 0
	})
}

func TestConformanceTimeAndRandom(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		us, err := p.Gettimeofday()
		if err != nil || us <= 0 {
			return 1
		}
		buf := make([]byte, 16)
		if n, err := p.GetRandom(buf); err != nil || n != 16 {
			return 2
		}
		return 0
	})
}

// TestConformanceSigchldOnCrashedChild pins wait(2)/signal(7) semantics
// for a child killed by a signal: the parent's waiter sees status
// 128+signo with the terminating signal reported, and SIGCHLD is
// delivered to the parent ("SIGCHLD ... Child stopped or terminated",
// signal(7); "if the child terminated by a signal", wait(2)).
func TestConformanceSigchldOnCrashedChild(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		chld := make(chan struct{}, 4)
		if err := p.Sigaction(api.SIGCHLD, func(api.Signal) { chld <- struct{}{} }, ""); err != nil {
			return 1
		}
		pid, err := p.Fork(func(c api.OS) {
			for { // spin until killed
				time.Sleep(time.Millisecond)
				c.SignalsDrain()
			}
		})
		if err != nil {
			return 2
		}
		time.Sleep(10 * time.Millisecond)
		if err := p.Kill(pid, api.SIGKILL); err != nil {
			return 3
		}
		res, err := p.Wait(pid)
		if err != nil {
			return 4
		}
		if res.ExitCode != 128+int(api.SIGKILL) {
			return 5
		}
		if res.Signaled != api.SIGKILL {
			return 6
		}
		p.SignalsDrain()
		select {
		case <-chld:
		default:
			return 7
		}
		return 0
	})
}

// TestConformanceMsgrcvEidrmWakeup pins msgrcv(2): "EIDRM: While the
// process was sleeping to receive a message, the message queue was
// removed." A receiver blocked on an empty queue must wake with EIDRM —
// not hang, not EINVAL — when another process removes the queue.
func TestConformanceMsgrcvEidrmWakeup(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		qid, err := p.Msgget(0x1D12, api.IPCCreat)
		if err != nil {
			return 1
		}
		r, w, err := p.Pipe()
		if err != nil {
			return 2
		}
		pid, err := p.Fork(func(c api.OS) {
			if _, err := c.Write(w, []byte("r")); err != nil {
				c.Exit(101)
			}
			// Blocks: the queue is empty. Only the parent's rmid ends this.
			_, _, err := c.Msgrcv(qid, 0, nil, 0)
			if api.ToErrno(err) != api.EIDRM {
				c.Exit(102)
			}
			c.Exit(0)
		})
		if err != nil {
			return 3
		}
		if _, err := p.Read(r, make([]byte, 1)); err != nil {
			return 4
		}
		// Give the child time to park inside msgrcv. (If rmid still wins the
		// race, the child sees EIDRM on entry — same errno, weaker test.)
		time.Sleep(10 * time.Millisecond)
		if err := p.MsgctlRmid(qid); err != nil {
			return 5
		}
		res, err := p.Wait(pid)
		if err != nil || res.ExitCode != 0 {
			return 6
		}
		return 0
	})
}

// TestConformanceSemopEidrmWakeup is the semaphore side of the same
// contract — semop(2): "EIDRM: The semaphore set was removed from the
// system" while a process was sleeping in a blocking semop.
func TestConformanceSemopEidrmWakeup(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		sid, err := p.Semget(0x1D13, 1, api.IPCCreat)
		if err != nil {
			return 1
		}
		r, w, err := p.Pipe()
		if err != nil {
			return 2
		}
		pid, err := p.Fork(func(c api.OS) {
			if _, err := c.Write(w, []byte("r")); err != nil {
				c.Exit(101)
			}
			// The semaphore is zero, so a decrement blocks.
			err := c.Semop(sid, []api.SemBuf{{Num: 0, Op: -1}})
			if api.ToErrno(err) != api.EIDRM {
				c.Exit(102)
			}
			c.Exit(0)
		})
		if err != nil {
			return 3
		}
		if _, err := p.Read(r, make([]byte, 1)); err != nil {
			return 4
		}
		time.Sleep(10 * time.Millisecond)
		if err := p.SemctlRmid(sid); err != nil {
			return 5
		}
		res, err := p.Wait(pid)
		if err != nil || res.ExitCode != 0 {
			return 6
		}
		return 0
	})
}

// TestConformanceMsgrcvEintrOnSignal pins msgrcv(2): "EINTR: Sleeping on
// receipt of a message, the process caught a signal." A receiver blocked
// on an empty queue must wake with EINTR — not hang — when a caught
// signal arrives, and the handler must run. The queue is created by the
// parent, so on Graphene the child's park is a deferred remote RPC and
// the interruption exercises the cross-process cancel path.
func TestConformanceMsgrcvEintrOnSignal(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		qid, err := p.Msgget(0x1E14, api.IPCCreat)
		if err != nil {
			return 1
		}
		r, w, err := p.Pipe()
		if err != nil {
			return 2
		}
		pid, err := p.Fork(func(c api.OS) {
			got := make(chan api.Signal, 1)
			if err := c.Sigaction(api.SIGTERM, func(s api.Signal) { got <- s }, ""); err != nil {
				c.Exit(101)
			}
			if _, err := c.Write(w, []byte("r")); err != nil {
				c.Exit(102)
			}
			// Blocks: the queue stays empty. Only the signal ends this.
			_, _, err := c.Msgrcv(qid, 0, nil, 0)
			if api.ToErrno(err) != api.EINTR {
				c.Exit(103)
			}
			c.SignalsDrain()
			select {
			case <-got:
			default:
				c.Exit(104) // EINTR without the handler having run
			}
			c.Exit(0)
		})
		if err != nil {
			return 3
		}
		if _, err := p.Read(r, make([]byte, 1)); err != nil {
			return 4
		}
		// Give the child time to park inside msgrcv.
		time.Sleep(10 * time.Millisecond)
		if err := p.Kill(pid, api.SIGTERM); err != nil {
			return 5
		}
		res, err := p.Wait(pid)
		if err != nil || res.ExitCode != 0 {
			return 6
		}
		return 0
	})
}

// TestConformanceSemopEintrOnSignal is the semaphore side — semop(2):
// "EINTR: While blocked in this system call, the thread caught a
// signal." The child creates the set itself, so on Graphene the park is
// owner-local and the interruption exercises the in-process cancel path.
func TestConformanceSemopEintrOnSignal(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		r, w, err := p.Pipe()
		if err != nil {
			return 1
		}
		pid, err := p.Fork(func(c api.OS) {
			got := make(chan api.Signal, 1)
			if err := c.Sigaction(api.SIGTERM, func(s api.Signal) { got <- s }, ""); err != nil {
				c.Exit(101)
			}
			sid, err := c.Semget(api.IPCPrivate, 1, api.IPCCreat)
			if err != nil {
				c.Exit(102)
			}
			if _, err := c.Write(w, []byte("r")); err != nil {
				c.Exit(103)
			}
			// The semaphore is zero and nobody posts: blocks until signaled.
			err = c.Semop(sid, []api.SemBuf{{Num: 0, Op: -1}})
			if api.ToErrno(err) != api.EINTR {
				c.Exit(104)
			}
			c.SignalsDrain()
			select {
			case <-got:
			default:
				c.Exit(105)
			}
			c.Exit(0)
		})
		if err != nil {
			return 2
		}
		if _, err := p.Read(r, make([]byte, 1)); err != nil {
			return 3
		}
		time.Sleep(10 * time.Millisecond)
		if err := p.Kill(pid, api.SIGTERM); err != nil {
			return 4
		}
		res, err := p.Wait(pid)
		if err != nil || res.ExitCode != 0 {
			return 5
		}
		return 0
	})
}

// TestConformanceForkExecFDInheritance pins fork(2) ("The child inherits
// copies of the parent's set of open file descriptors") composed with
// execve(2) ("By default, file descriptors remain open across an
// execve()"): a pipe write end dup2'd to a well-known descriptor before
// exec must still be writable in the exec'd image.
func TestConformanceForkExecFDInheritance(t *testing.T) {
	const inheritedFD = 7
	extra := map[string]api.Program{
		"/bin/fdwriter": func(p api.OS, argv []string) int {
			// The descriptor came from the pre-exec image; nothing in this
			// program opened it.
			if _, err := p.Write(inheritedFD, []byte("across-exec")); err != nil {
				return 21
			}
			if err := p.Close(inheritedFD); err != nil {
				return 22
			}
			return 0
		},
	}
	runEverywhere(t, extra, func(p api.OS, argv []string) int {
		r, w, err := p.Pipe()
		if err != nil {
			return 1
		}
		pid, err := p.Fork(func(c api.OS) {
			if _, err := c.Dup2(w, inheritedFD); err != nil {
				c.Exit(101)
			}
			if err := c.Exec("/bin/fdwriter", []string{"/bin/fdwriter"}); err != nil {
				c.Exit(102)
			}
		})
		if err != nil {
			return 2
		}
		buf := make([]byte, 16)
		n, err := p.Read(r, buf)
		if err != nil || string(buf[:n]) != "across-exec" {
			return 3
		}
		res, err := p.Wait(pid)
		if err != nil || res.ExitCode != 0 {
			return 4
		}
		return 0
	})
}

// pgrouper is the optional process-group surface.
type pgrouper interface {
	Setpgid(pid, pgid int) error
	Getpgid() int
}

func TestConformanceProcessGroups(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		pg, ok := p.(pgrouper)
		if !ok {
			// KVM wraps native; the wrapper promotes the methods.
			return 1
		}
		if err := pg.Setpgid(0, 0); err != nil {
			return 2
		}
		if pg.Getpgid() != p.Getpid() {
			return 3
		}
		// A child inherits the group.
		got := make(chan int, 1)
		pid, err := p.Fork(func(c api.OS) {
			got <- c.(pgrouper).Getpgid()
			c.Exit(0)
		})
		if err != nil {
			return 4
		}
		if g := <-got; g != pg.Getpgid() {
			return 5
		}
		p.Wait(pid)
		// Group signal reaches self (handler installed).
		hit := make(chan struct{}, 1)
		p.Sigaction(api.SIGUSR2, func(api.Signal) { hit <- struct{}{} }, "")
		if err := p.Kill(-pg.Getpgid(), api.SIGUSR2); err != nil {
			return 6
		}
		p.SignalsDrain()
		select {
		case <-hit:
		default:
			return 7
		}
		// Empty group: ESRCH everywhere.
		if err := p.Kill(-987654, api.SIGTERM); api.ToErrno(err) != api.ESRCH {
			return 8
		}
		return 0
	})
}

// TestConformanceSignalPgroupFanout pins kill(2): "If pid is less than
// -1, then sig is sent to every process in the process group whose ID is
// -pid" — one negative-pid kill reaches the caller and every forked
// member of the group, and each delivery runs that process's handler.
func TestConformanceSignalPgroupFanout(t *testing.T) {
	runEverywhere(t, nil, func(p api.OS, argv []string) int {
		pg, ok := p.(pgrouper)
		if !ok {
			return 1
		}
		if err := pg.Setpgid(0, 0); err != nil {
			return 2
		}
		hits := make(chan int, 8) // buffered: handlers run on member goroutines
		child := func(id int) func(api.OS) {
			return func(c api.OS) {
				got := make(chan struct{}, 1)
				c.Sigaction(api.SIGUSR1, func(api.Signal) { got <- struct{}{} }, "")
				for {
					time.Sleep(time.Millisecond)
					c.SignalsDrain()
					select {
					case <-got:
						hits <- id
						c.Exit(0)
					default:
					}
				}
			}
		}
		pid1, err := p.Fork(child(1))
		if err != nil {
			return 3
		}
		pid2, err := p.Fork(child(2))
		if err != nil {
			return 4
		}
		p.Sigaction(api.SIGUSR1, func(api.Signal) { hits <- 0 }, "")
		time.Sleep(10 * time.Millisecond) // let both children enter their drain loops
		if err := p.Kill(-pg.Getpgid(), api.SIGUSR1); err != nil {
			return 5
		}
		for _, pid := range []int{pid1, pid2} {
			if res, err := p.Wait(pid); err != nil || res.ExitCode != 0 {
				return 6
			}
		}
		p.SignalsDrain()
		seen := map[int]bool{}
		for len(seen) < 3 {
			select {
			case id := <-hits:
				seen[id] = true
			default:
				return 7 // a group member never saw the signal
			}
		}
		return 0
	})
}
